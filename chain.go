package highway

import (
	"fmt"
	"time"

	"ovshighway/internal/graph"
	"ovshighway/internal/mempool"
	"ovshighway/internal/nic"
	"ovshighway/internal/orchestrator"
	"ovshighway/internal/vnf"
)

// ChainOptions tunes chain deployments.
type ChainOptions struct {
	// Flows is the number of distinct 5-tuples generated (default 1).
	Flows int
	// Timestamp stamps generated frames for one-way latency measurement.
	Timestamp bool
	// LanePCP stamps every edge of the chain with this 802.1Q priority
	// (0..7). Only edges that cross a node boundary are affected: their
	// trunk lanes are scheduled in the corresponding DRR class
	// (ClusterConfig.Fabric.PCPWeights). Intra-node hops ignore it.
	LanePCP uint8
	// RatePps paces each end's generator to this rate instead of
	// saturating (0 = unpaced). A paced chain has an exact conservation
	// ledger — every generated packet is eventually received — which the
	// migration experiments use to prove zero loss.
	RatePps float64
}

// endpoints are a benchmark chain's measured ends: the source/sink VMs of
// a memory-only or split chain, and the wire sinks of a NIC chain. Chain
// and SplitChain embed it for their measurement methods.
type endpoints struct {
	ends []*vnf.SrcSink
	wsnk []*nic.WireSink
}

// ResetWindow zeroes all measurement counters.
func (e *endpoints) ResetWindow() {
	for _, s := range e.ends {
		s.ResetWindow()
	}
	for _, s := range e.wsnk {
		s.ResetWindow()
	}
}

// RatePps returns the aggregate receive rate since the window start (both
// directions summed, matching the paper's bidirectional throughput axis).
func (e *endpoints) RatePps() float64 {
	var total float64
	for _, s := range e.ends {
		total += s.RatePps()
	}
	for _, s := range e.wsnk {
		total += s.RatePps()
	}
	return total
}

// MeasureMpps runs a fresh measurement window of the given duration and
// returns the aggregate throughput in Mpps.
func (e *endpoints) MeasureMpps(window time.Duration) float64 {
	e.ResetWindow()
	time.Sleep(window)
	return e.RatePps() / 1e6
}

// LatencyQuantile returns the q-quantile of one-way latency across both
// directions. Only meaningful for chains deployed with Timestamp: true;
// timestamps survive the trunk hop (the pump copies them across pools).
func (e *endpoints) LatencyQuantile(q float64) time.Duration {
	var worst time.Duration
	for _, s := range e.ends {
		if v := s.Lat.Quantile(q); v > worst {
			worst = v
		}
	}
	return worst
}

// LatencyMean returns the mean one-way latency across both directions.
func (e *endpoints) LatencyMean() time.Duration {
	var sum time.Duration
	var n int
	for _, s := range e.ends {
		if s.Lat.Count() > 0 {
			sum += s.Lat.Mean()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// LatencySamples returns the number of recorded latency samples.
func (e *endpoints) LatencySamples() uint64 {
	var total uint64
	for _, s := range e.ends {
		total += s.Lat.Count()
	}
	return total
}

// settle waits (bounded by timeout) for a conservation ledger to stop
// moving: a sustained run of identical observations, not just two, since a
// packet parked behind a stalled thread moves no counter for a while.
func settle(timeout time.Duration, ledger func() uint64) {
	deadline := time.Now().Add(timeout)
	prev := ledger()
	stable := 0
	for time.Now().Before(deadline) && stable < 8 {
		time.Sleep(5 * time.Millisecond)
		cur := ledger()
		if cur == prev {
			stable++
		} else {
			stable = 0
			prev = cur
		}
	}
}

// Chain is a deployed benchmark chain with measurement hooks.
type Chain struct {
	endpoints
	dep  *Deployment
	node *Node
	n    int
	gens []*nic.Generator // NIC chains (Figure 3(b))
	nics []*nic.NIC
}

// applyBidirEndpointArgs injects per-end traffic args into a bidirectional
// chain graph (mirror the 5-tuple for the reverse direction so both ends
// generate sane, distinct flows). Shared by the single-node and the
// cluster split-chain deployers.
func applyBidirEndpointArgs(g *graph.Graph, opts ChainOptions) {
	if opts.LanePCP != 0 {
		for i := range g.Edges {
			g.Edges[i].PCP = opts.LanePCP & 0x07
		}
	}
	for i := range g.VNFs {
		switch g.VNFs[i].Name {
		case "end0":
			g.VNFs[i].Args = orchestrator.SrcSinkArgs{
				Spec: orchestrator.DefaultTrafficSpec(), Flows: opts.Flows, Timestamp: opts.Timestamp,
				RatePps: opts.RatePps,
			}
		case "end1":
			spec := orchestrator.DefaultTrafficSpec()
			spec.SrcIP, spec.DstIP = spec.DstIP, spec.SrcIP
			spec.SrcMAC, spec.DstMAC = spec.DstMAC, spec.SrcMAC
			spec.SrcPort, spec.DstPort = spec.DstPort, spec.SrcPort
			g.VNFs[i].Args = orchestrator.SrcSinkArgs{
				Spec: spec, Flows: opts.Flows, Timestamp: opts.Timestamp,
				RatePps: opts.RatePps,
			}
		}
	}
}

// DeployBidirChain deploys the paper's Figure 3(a) workload: n forwarder VMs
// in a line with a combined source/sink VM at each end, bidirectional 64B
// traffic. The number of VMs in the paper's x-axis sense is n+2.
func (node *Node) DeployBidirChain(n int, opts ChainOptions) (*Chain, error) {
	g := graph.BidirChain(n)
	applyBidirEndpointArgs(g, opts)
	d, err := node.Deploy(g)
	if err != nil {
		return nil, err
	}
	ends := []*vnf.SrcSink{d.inner.SrcSink("end0"), d.inner.SrcSink("end1")}
	return &Chain{endpoints: endpoints{ends: ends}, dep: d, node: node, n: n}, nil
}

// DeployNICChain deploys the paper's Figure 3(b) workload: n forwarder VMs
// between two simulated 10G NICs, with external generators and sinks on
// both NICs (bidirectional 64B traffic through the node).
func (node *Node) DeployNICChain(n int, opts ChainOptions) (*Chain, error) {
	flows := opts.Flows
	if flows == 0 {
		flows = 1
	}
	eth0, err := node.AddNIC(fmt.Sprintf("eth0-n%d", n), 0)
	if err != nil {
		return nil, err
	}
	eth1, err := node.AddNIC(fmt.Sprintf("eth1-n%d", n), 0)
	if err != nil {
		return nil, err
	}
	g := graph.Chain(n, eth0.PortName(), eth1.PortName())
	d, err := node.Deploy(g)
	if err != nil {
		return nil, err
	}
	c := &Chain{dep: d, node: node, n: n, nics: []*nic.NIC{eth0, eth1}}

	fwd := orchestrator.DefaultTrafficSpec()
	rev := fwd
	rev.SrcIP, rev.DstIP = fwd.DstIP, fwd.SrcIP
	rev.SrcPort, rev.DstPort = fwd.DstPort, fwd.SrcPort

	g0, err := nic.NewGenerator(eth0, node.inner.Pool, fwd, flows)
	if err != nil {
		d.Stop()
		return nil, err
	}
	g1, err := nic.NewGenerator(eth1, node.inner.Pool, rev, flows)
	if err != nil {
		g0.Stop()
		d.Stop()
		return nil, err
	}
	c.gens = []*nic.Generator{g0, g1}
	c.wsnk = []*nic.WireSink{nic.NewWireSink(eth0), nic.NewWireSink(eth1)}
	return c, nil
}

// Stop halts traffic and tears the chain down, including any NICs the chain
// created.
func (c *Chain) Stop() {
	for _, g := range c.gens {
		g.Stop()
	}
	c.dep.Stop()
	for _, s := range c.wsnk {
		s.Stop()
	}
	for _, dev := range c.nics {
		// Through RemoveNIC (not bare RemovePort) so the name registration
		// dies with the port and a later chain can reuse it.
		_ = c.node.inner.RemoveNIC(dev.PortName())
	}
	// Wait out PMD iterations still holding the old port snapshot: draining
	// a queue the datapath is also consuming would break the SPSC contract.
	c.node.inner.Switch.WaitDatapathQuiescence()
	for _, dev := range c.nics {
		// Free anything still parked in either NIC queue. The generators and
		// the switch PMDs are stopped or detached by now, so both drains see
		// quiescent rings.
		scratch := make([]*mempool.Buf, 32)
		for {
			k := dev.DrainToWire(scratch)
			if k == 0 {
				break
			}
			mempool.FreeBatch(scratch[:k])
		}
		for {
			k := dev.DrainFromWire(scratch)
			if k == 0 {
				break
			}
			mempool.FreeBatch(scratch[:k])
		}
	}
}

// Length returns the number of forwarder VMs.
func (c *Chain) Length() int { return c.n }

// ExpectedBypasses returns the number of directed bypass links a highway
// node should establish for this chain: every VM↔VM hop in both directions.
// NIC↔VM hops cannot bypass.
func (c *Chain) ExpectedBypasses() int {
	if len(c.gens) > 0 { // NIC chain: n VMs ⇒ n-1 VM↔VM hops
		if c.n < 2 {
			return 0
		}
		return 2 * (c.n - 1)
	}
	// memory-only: n forwarders + 2 endpoint VMs ⇒ n+1 hops
	return 2 * (c.n + 1)
}
