package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	highway "ovshighway"
	"ovshighway/internal/dpdkr"
	"ovshighway/internal/flow"
	"ovshighway/internal/graph"
	"ovshighway/internal/mempool"
	"ovshighway/internal/nic"
	"ovshighway/internal/orchestrator"
	"ovshighway/internal/pkt"
	"ovshighway/internal/trunk"
	"ovshighway/internal/vnf"
	"ovshighway/internal/vswitch"
)

// workload is one traffic mix the benchmark runs. window and lightPps are
// the load constants stated in BENCHMARK.json: the closed phase keeps
// window frames in flight (all streams together), the open phase offers
// lightPps frames/s (all streams together), about a quarter of what the
// workload carries closed. A run splits its measured time over trials
// deployments, each first warmed up for warmUp.
type workload struct {
	name     string
	window   int
	lightPps float64
	trials   int
	warmUp   time.Duration
	// traffic builds the frame sources of the workload's streams from the
	// seed, before any of the program is started.
	traffic func(seed uint64) []traffic
	// build starts the program and deploys the workload on it.
	build func(r *rig) error
}

// warmUp runs the closed loop on a deployment before anything is measured,
// so caches fill and lazy set-up finishes.
const warmUp = 300 * time.Millisecond

// chainVMs is the forwarder count of the stateless chains (Fig 3b).
const chainVMs = 4

// natPlan is the stateful-churn address plan. The port block is the whole
// space above 1023: with a 2 s close linger it holds the 16384 live
// connections plus the lingering ones at three times the rate measured at
// the workload's introduction.
var natPlan = natSpec{
	extIP:     pkt.IP4{192, 0, 2, 1},
	portBase:  1024,
	portCount: 65536 - 1024,
	server:    pkt.IP4{10, 99, 0, 1},
	srvPort:   80,
}

// Stateful-churn table sizing: each of NAT and ACL holds two entries per
// connection (both directions), live or lingering/idling, which stays below
// this capacity at three times the measured rate. The short idle timeout
// retires the ACL's entries, which it never removes on close.
const (
	churnConns       = 16384
	churnCTCapacity  = 131072
	churnIdleTimeout = time.Second
)

var workloads = []*workload{
	{
		name: "highway-chain", window: 512, lightPps: 430_000, trials: 10, warmUp: warmUp,
		traffic: func(seed uint64) []traffic { return udpPair(seed, 2) },
		build: func(r *rig) error {
			return r.buildChain(highway.Config{Mode: highway.ModeHighway}, 2*(chainVMs-1))
		},
	},
	{
		name: "vanilla-16k", window: 512, lightPps: 67_000, trials: 10, warmUp: warmUp,
		traffic: func(seed uint64) []traffic { return udpPair(seed, 8192) },
		build: func(r *rig) error {
			return r.buildChain(highway.Config{Mode: highway.ModeVanilla}, 0)
		},
	},
	{
		// Fewer, longer trials: each warms up past the NAT's 2 s close
		// linger, so the measured phases see ports released and conntrack
		// entries removed as fast as new connections bind them.
		name: "stateful-churn", window: 512, lightPps: 130_000, trials: 4, warmUp: 2500 * time.Millisecond,
		traffic: func(seed uint64) []traffic {
			return []traffic{newTCPConns(rand.New(rand.NewPCG(seed, 3)), churnConns, natPlan)}
		},
		build: func(r *rig) error { return r.buildChurn() },
	},
	{
		name: "split-trunk", window: 512, lightPps: 160_000, trials: 10, warmUp: warmUp,
		traffic: func(seed uint64) []traffic { return udpPair(seed, 32) },
		build:   func(r *rig) error { return r.buildSplit() },
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// udpPair is the stateless bidirectional traffic: flowsPerDir distinct
// 5-tuples each way.
func udpPair(seed uint64, flowsPerDir int) []traffic {
	rng := rand.New(rand.NewPCG(seed, 1))
	return []traffic{newUDPFlows(rng, 0, flowsPerDir), newUDPFlows(rng, 1, flowsPerDir)}
}

// rig is one running deployment of a workload plus the handles the
// benchmark reads layer counters from.
type rig struct {
	srcs     []traffic
	streams  []*stream
	switches []*vswitch.Switch
	pools    []*mempool.Pool
	nics     []*nic.NIC // the benchmark's own NICs (not the trunk ends)
	apps     []*vnf.App
	trunks   []*trunk.Trunk
	nat      *vnf.NAT44
	acl      *vnf.ACL

	wantBypass  int
	bypassCount func() int
	stop        func()

	startDur, deployDur, populateDur time.Duration

	mu           sync.Mutex
	bypassSetups []time.Duration // reported by the program as bypasses come up
}

// onBypassUp is the program's bypass-established hook.
func (r *rig) onBypassUp(_, _ uint32, d time.Duration) {
	r.mu.Lock()
	r.bypassSetups = append(r.bypassSetups, d)
	r.mu.Unlock()
}

func (r *rig) bypassSetupMs() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.bypassSetups) == 0 {
		return 0
	}
	ms := make([]float64, len(r.bypassSetups))
	for i, d := range r.bypassSetups {
		ms[i] = float64(d) / 1e6
	}
	return median(ms)
}

// buildChain is NIC → chainVMs forwarders → NIC on one node.
func (r *rig) buildChain(cfg highway.Config, wantBypass int) error {
	cfg.OnBypassUp = r.onBypassUp
	t0 := time.Now()
	node, err := highway.Start(cfg)
	if err != nil {
		return fmt.Errorf("start node: %w", err)
	}
	eth0, err0 := node.AddNIC("eth0", -1)
	eth1, err1 := node.AddNIC("eth1", -1)
	if err0 != nil || err1 != nil {
		node.Stop()
		return fmt.Errorf("add NICs: %v, %v", err0, err1)
	}
	r.startDur = time.Since(t0)
	t1 := time.Now()
	dep, err := node.Deploy(graph.Chain(chainVMs, "eth0", "eth1"))
	if err != nil {
		node.Stop()
		return fmt.Errorf("deploy chain: %w", err)
	}
	r.deployDur = time.Since(t1)
	inner := node.Internal()
	r.switches = []*vswitch.Switch{inner.Switch}
	r.pools = []*mempool.Pool{inner.Pool}
	r.nics = []*nic.NIC{eth0, eth1}
	r.apps = dep.Internal().Apps()
	r.streams = []*stream{
		{in: eth0, out: eth1, pool: inner.Pool, src: r.srcs[0]},
		{in: eth1, out: eth0, pool: inner.Pool, src: r.srcs[1]},
	}
	r.wantBypass, r.bypassCount = wantBypass, node.BypassCount
	r.stop = func() { dep.Stop(); node.Stop() }
	return nil
}

// buildChurn is NIC → NAT44 → ACL → NIC on one highway node.
func (r *rig) buildChurn() error {
	t0 := time.Now()
	node, err := highway.Start(highway.Config{
		Mode: highway.ModeHighway, OnBypassUp: r.onBypassUp,
		ConntrackCapacity: churnCTCapacity, ConntrackIdle: churnIdleTimeout,
	})
	if err != nil {
		return fmt.Errorf("start node: %w", err)
	}
	eth0, err0 := node.AddNIC("eth0", -1)
	eth1, err1 := node.AddNIC("eth1", -1)
	if err0 != nil || err1 != nil {
		node.Stop()
		return fmt.Errorf("add NICs: %v, %v", err0, err1)
	}
	r.startDur = time.Since(t0)
	g := &graph.Graph{
		VNFs: []graph.VNF{
			{Name: "nat", Kind: graph.KindNAT44, Args: orchestrator.NAT44Args{
				ExtIP: natPlan.extIP, PortBase: natPlan.portBase, PortCount: natPlan.portCount,
			}},
			{Name: "acl", Kind: graph.KindACL, Args: orchestrator.ACLArgs{Rules: []vnf.ACLRule{{
				Priority: 100,
				Match:    flow.MatchAll().WithIPProto(pkt.ProtoTCP).WithIPDst(natPlan.server, 32).WithL4Dst(natPlan.srvPort),
				Allow:    true,
			}}}},
		},
		Edges: []graph.Edge{
			{A: graph.NIC("eth0"), B: graph.VNFPort("nat", 0), Bidirectional: true},
			{A: graph.VNFPort("nat", 1), B: graph.VNFPort("acl", 0), Bidirectional: true},
			{A: graph.VNFPort("acl", 1), B: graph.NIC("eth1"), Bidirectional: true},
		},
	}
	t1 := time.Now()
	dep, err := node.Deploy(g)
	if err != nil {
		node.Stop()
		return fmt.Errorf("deploy NAT/ACL chain: %w", err)
	}
	r.deployDur = time.Since(t1)
	inner := node.Internal()
	r.switches = []*vswitch.Switch{inner.Switch}
	r.pools = []*mempool.Pool{inner.Pool}
	r.nics = []*nic.NIC{eth0, eth1}
	r.apps = dep.Internal().Apps()
	r.nat, r.acl = dep.Internal().NAT44("nat"), dep.Internal().ACL("acl")
	r.streams = []*stream{{in: eth0, out: eth1, pool: inner.Pool, src: r.srcs[0]}}
	r.wantBypass, r.bypassCount = 2, node.BypassCount
	r.stop = func() { dep.Stop(); node.Stop() }
	return nil
}

// buildSplit is NIC@a → 2 VMs@a → trunk → 2 VMs@b → NIC@b on a two-node
// highway cluster with an unshaped trunk.
func (r *rig) buildSplit() error {
	t0 := time.Now()
	c, err := highway.StartCluster(highway.ClusterConfig{
		Config:    highway.Config{Mode: highway.ModeHighway, OnBypassUp: r.onBypassUp},
		Nodes:     []string{"a", "b"},
		TrunkRate: -1,
	})
	if err != nil {
		return fmt.Errorf("start cluster: %w", err)
	}
	na, nb := c.Internal().Node("a"), c.Internal().Node("b")
	ethA, errA := na.AddNIC("eth-a", nic.Config{RatePps: -1})
	ethB, errB := nb.AddNIC("eth-b", nic.Config{RatePps: -1})
	if errA != nil || errB != nil {
		c.Stop()
		return fmt.Errorf("add NICs: %v, %v", errA, errB)
	}
	r.startDur = time.Since(t0)
	g := graph.Chain(chainVMs, "eth-a", "eth-b")
	for i := range g.VNFs {
		g.VNFs[i].Node = "a"
		if i >= chainVMs/2 {
			g.VNFs[i].Node = "b"
		}
	}
	t1 := time.Now()
	dep, err := c.Deploy(g)
	if err != nil {
		c.Stop()
		return fmt.Errorf("deploy split chain: %w", err)
	}
	r.deployDur = time.Since(t1)
	cd := dep.Internal()
	r.switches = []*vswitch.Switch{na.Switch, nb.Switch}
	r.pools = []*mempool.Pool{na.Pool, nb.Pool}
	r.nics = []*nic.NIC{ethA, ethB}
	r.apps = append(cd.Deployment("a").Apps(), cd.Deployment("b").Apps()...)
	r.trunks = cd.Trunks()
	r.streams = []*stream{
		{in: ethA, out: ethB, pool: na.Pool, src: r.srcs[0]},
		{in: ethB, out: ethA, pool: nb.Pool, src: r.srcs[1]},
	}
	r.wantBypass, r.bypassCount = 2*(chainVMs-2), c.BypassCount
	r.stop = func() { dep.Stop(); c.Stop() }
	return nil
}

// setUp starts the workload and makes it ready: every expected bypass up
// and every flow or connection of the population delivered end to end
// once. The traffic is built from the seed before the clock starts; the
// returned duration is the set-up time.
func setUp(w *workload, seed uint64, clock func() int64) (*rig, *engine, time.Duration, error) {
	r := &rig{srcs: w.traffic(seed)}
	t0 := time.Now()
	if err := w.build(r); err != nil {
		return nil, nil, 0, err
	}
	for r.bypassCount() != r.wantBypass {
		if time.Since(t0) > 10*time.Second {
			r.stop()
			return nil, nil, 0, fmt.Errorf("%s: %d of %d bypasses up after 10s", w.name, r.bypassCount(), r.wantBypass)
		}
		time.Sleep(50 * time.Microsecond)
	}
	// Deploy returns before every PMD has begun a loop round with the new
	// ports: a round begun earlier outputs to them as to unknown ports and
	// frees the frames without counting them (one 32-frame batch in about
	// 300 set-ups). Ready includes one fresh round of every PMD.
	for _, sw := range r.switches {
		sw.WaitDatapathQuiescence()
	}
	e := newEngine(r.streams, clock, nicQueue)
	tp := time.Now()
	if err := e.populate(w.window, 10*time.Second); err != nil {
		drops := r.drops()
		r.stop()
		return nil, nil, 0, fmt.Errorf("%s: %w (%s)", w.name, err, drops)
	}
	r.populateDur = time.Since(tp)
	return r, e, time.Since(t0), nil
}

// drops names every layer counter that a lost frame can show in.
func (r *rig) drops() string {
	s := takeSnapshot(r, 0)
	var appDrops uint64
	for _, a := range r.apps {
		appDrops += a.Dropped.Load()
	}
	msg := fmt.Sprintf("drops: vswitch parse errors %d, table misses %d, to VM rings %d; VM tx %d, VM app %d; NIC tx %d; trunk %d, unrouted %d",
		s.dp.ParseErrors, s.dp.ClassifierMisses, s.hostTxDropped, s.appTxDrops, appDrops, s.nicTxDropped, s.trunkDropped, s.trunkUnrouted)
	if r.nat != nil {
		msg += fmt.Sprintf("; NAT exhausted %d, untranslatable %d", r.nat.Exhausted.Load(), r.nat.Untransl.Load())
	}
	if r.acl != nil {
		msg += fmt.Sprintf("; ACL denied %d", r.acl.Denied.Load())
	}
	// Frames held up rather than dropped show as backlog; a frame freed
	// without a count shows as a hop whose frames out fall short of the
	// frames into the next.
	nicQ, toVM, fromVM := 0, 0, 0
	for _, n := range r.nics {
		nicQ += n.QueueBacklog()
	}
	msg += "; port frames from/to the switch:"
	for _, sw := range r.switches {
		for _, p := range sw.Ports() {
			if dp, ok := p.(*dpdkr.Port); ok {
				toVM += dp.NormalBacklog()
				fromVM += dp.ReturnBacklog()
			}
			c := p.PortCounters()
			msg += fmt.Sprintf(" %s %d/%d", p.PortName(), c.RxPackets.Load(), c.TxPackets.Load())
		}
	}
	return msg + fmt.Sprintf("; backlog: NIC queues %d, rings to VMs %d, from VMs %d", nicQ, toVM, fromVM)
}

// nicQueue is the wire-ingress descriptor ring of every NIC (nic.Config's
// default QueueSize).
const nicQueue = 1024
