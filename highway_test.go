package highway

import (
	"testing"
	"time"

	"ovshighway/internal/graph"
	"ovshighway/internal/openflow"
)

func TestStartStopBothModes(t *testing.T) {
	for _, mode := range []Mode{ModeVanilla, ModeHighway} {
		node, err := Start(Config{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if node.Mode() != mode {
			t.Errorf("Mode() = %v, want %v", node.Mode(), mode)
		}
		node.Stop()
		node.Stop() // idempotent
	}
}

func TestBidirChainHighwayEndToEnd(t *testing.T) {
	node, err := Start(Config{Mode: ModeHighway})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()

	chain, err := node.DeployBidirChain(2, ChainOptions{Flows: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer chain.Stop()

	if want := chain.ExpectedBypasses(); want != 6 {
		t.Fatalf("ExpectedBypasses = %d, want 6", want)
	}
	if !node.WaitBypasses(6) {
		t.Fatalf("bypasses = %d, want 6", node.BypassCount())
	}
	mpps := chain.MeasureMpps(300 * time.Millisecond)
	if mpps <= 0 {
		t.Fatalf("throughput = %f Mpps", mpps)
	}
}

func TestNICChainBothModes(t *testing.T) {
	for _, mode := range []Mode{ModeVanilla, ModeHighway} {
		func() {
			node, err := Start(Config{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer node.Stop()
			chain, err := node.DeployNICChain(2, ChainOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer chain.Stop()
			if mode == ModeHighway {
				if want := chain.ExpectedBypasses(); want != 2 {
					t.Fatalf("ExpectedBypasses = %d, want 2", want)
				}
				if !node.WaitBypasses(2) {
					t.Fatalf("bypasses = %d", node.BypassCount())
				}
			}
			mpps := chain.MeasureMpps(300 * time.Millisecond)
			if mpps <= 0 {
				t.Fatalf("%v: throughput = %f", mode, mpps)
			}
		}()
	}
}

func TestLatencyMeasurement(t *testing.T) {
	node, err := Start(Config{Mode: ModeHighway})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	chain, err := node.DeployBidirChain(1, ChainOptions{Timestamp: true})
	if err != nil {
		t.Fatal(err)
	}
	defer chain.Stop()
	if !node.WaitBypasses(chain.ExpectedBypasses()) {
		t.Fatal("bypasses not established")
	}
	chain.ResetWindow()
	time.Sleep(200 * time.Millisecond)
	if chain.LatencySamples() == 0 {
		t.Fatal("no latency samples")
	}
	p50 := chain.LatencyQuantile(0.5)
	p99 := chain.LatencyQuantile(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("p50=%v p99=%v", p50, p99)
	}
	if chain.LatencyMean() <= 0 {
		t.Fatal("mean latency not positive")
	}
}

func TestStatsTransparencyThroughPublicAPI(t *testing.T) {
	node, err := Start(Config{Mode: ModeHighway})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	chain, err := node.DeployBidirChain(1, ChainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer chain.Stop()
	if !node.WaitBypasses(4) {
		t.Fatal("bypasses not established")
	}
	time.Sleep(200 * time.Millisecond)

	// Flow counters must keep increasing even though the vSwitch moves no
	// packets itself.
	var counted uint64
	for _, fs := range node.FlowStats() {
		counted += fs.Packets
	}
	if counted == 0 {
		t.Fatal("flow stats empty while bypass traffic flows")
	}
	// Port stats similarly.
	var rx uint64
	for id := uint32(1); id <= 4; id++ {
		if v, ok := node.PortStats(id); ok {
			rx += v.RxPackets
		}
	}
	if rx == 0 {
		t.Fatal("port stats empty while bypass traffic flows")
	}
}

func TestOpenFlowListenerIntegration(t *testing.T) {
	node, err := Start(Config{Mode: ModeHighway, OpenFlowAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	if node.OpenFlowAddr() == "" {
		t.Fatal("no OpenFlow address")
	}
	c, err := openflow.Dial(node.OpenFlowAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Send(openflow.FeaturesRequest{}); err != nil {
		t.Fatal(err)
	}
	m, _, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(openflow.FeaturesReply); !ok {
		t.Fatalf("got %T", m)
	}
}

// TestControllerDrivenBypassLifecycle is the headline end-to-end scenario:
// an external OpenFlow controller programs p-2-p rules over TCP, the node
// transparently builds bypasses, and deleting a rule dissolves them — all
// while the controller observes a perfectly standard switch.
func TestControllerDrivenBypassLifecycle(t *testing.T) {
	node, err := Start(Config{Mode: ModeHighway, OpenFlowAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()

	// Two idle VMs with one port each (no deployment: raw plumbing).
	ids1, _, err := node.Internal().CreateVM("vmA", 1)
	if err != nil {
		t.Fatal(err)
	}
	ids2, _, err := node.Internal().CreateVM("vmB", 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := ids1[0], ids2[0]

	c, err := openflow.Dial(node.OpenFlowAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	send := func(fm openflow.FlowMod) {
		t.Helper()
		if _, err := c.Send(fm); err != nil {
			t.Fatal(err)
		}
	}
	send(openflow.FlowMod{Command: openflow.FlowCmdAdd, Priority: 10,
		Match:   matchInPort(a),
		Actions: outputTo(b)})
	send(openflow.FlowMod{Command: openflow.FlowCmdAdd, Priority: 10,
		Match:   matchInPort(b),
		Actions: outputTo(a)})

	if !node.WaitBypasses(2) {
		t.Fatalf("bypasses = %d, want 2", node.BypassCount())
	}

	// Controller deletes one direction: that bypass must dissolve.
	send(openflow.FlowMod{Command: openflow.FlowCmdDeleteStrict, Priority: 10,
		Match:   matchInPort(a),
		OutPort: openflow.PortAny})
	if !node.WaitBypasses(1) {
		t.Fatalf("bypasses = %d, want 1", node.BypassCount())
	}
}

func TestExperimentRunnersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests in -short mode")
	}
	cfg := ExperimentConfig{Warmup: 50 * time.Millisecond, Window: 100 * time.Millisecond, Flows: 2}

	r3a, err := RunFig3aPoint(3, ModeHighway, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r3a.Mpps <= 0 {
		t.Fatalf("fig3a row %+v", r3a)
	}
	r3b, err := RunFig3bPoint(2, ModeVanilla, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r3b.Mpps <= 0 {
		t.Fatalf("fig3b row %+v", r3b)
	}
	lat, err := RunLatencyPoint(3, ModeVanilla, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lat.P50 <= 0 || lat.Samples == 0 {
		t.Fatalf("latency row %+v", lat)
	}
	setup, err := RunSetupTime(4, time.Millisecond, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if setup.Samples != 4 || setup.Mean <= 0 {
		t.Fatalf("setup row %+v", setup)
	}
	// With ~3ms of emulated control-plane latency per link (2 plugs + 1
	// config minimum), setup must exceed the raw software cost.
	if setup.Min < 3*time.Millisecond {
		t.Fatalf("emulated delays not reflected: min %v", setup.Min)
	}

	mn, err := RunMultiNodePoint(4, ModeHighway, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mn.Mpps <= 0 || len(mn.Segments) != 2 || mn.Bypasses == 0 {
		t.Fatalf("multinode row %+v", mn)
	}
	wl, err := RunWireLatencyPoint(4, 50*time.Microsecond, ModeVanilla, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Mpps <= 0 || wl.Samples == 0 || wl.P50 < 50*time.Microsecond {
		t.Fatalf("wlatency row %+v", wl)
	}

	// The -exp check datapath gates: clean traffic parses, and the EMC
	// survives unrelated delete churn.
	fs, err := RunFlowScalePoint(1024, 500, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Mpps <= 0 || fs.ParseErrors != 0 || fs.EMCPct <= 90 {
		t.Fatalf("flowscale row %+v", fs)
	}

	// One queue can live on one PMD only: the balancer has nothing to move.
	ps, err := RunPMDScalePoint(2, 1, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Mpps <= 0 || ps.Moves != 0 {
		t.Fatalf("pmdscale row %+v", ps)
	}

	// The point itself fails on a shard-sum mismatch or a lost seed.
	ct, err := RunConntrackPoint(64<<10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Mpps <= 0 || ct.Live < 64<<10 || ct.CTHitPct <= 0 || ct.CTMissPct <= 0 {
		t.Fatalf("conntrack row %+v", ct)
	}
}

func TestInvalidExperimentParams(t *testing.T) {
	if _, err := RunFig3aPoint(1, ModeVanilla, ExperimentConfig{}); err == nil {
		t.Error("fig3a with 1 VM accepted")
	}
	if _, err := RunFig3bPoint(0, ModeVanilla, ExperimentConfig{}); err == nil {
		t.Error("fig3b with 0 VMs accepted")
	}
	if _, err := RunLatencyPoint(0, ModeVanilla, ExperimentConfig{}); err == nil {
		t.Error("latency with 0 VMs accepted")
	}
}

func TestDeployCustomGraphViaPublicAPI(t *testing.T) {
	node, err := Start(Config{Mode: ModeVanilla})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	g := &Graph{
		VNFs: []graph.VNF{
			{Name: "src", Kind: graph.KindSource},
			{Name: "fw", Kind: graph.KindForward},
			{Name: "dst", Kind: graph.KindSink},
		},
		Edges: []graph.Edge{
			{A: graph.VNFPort("src", 0), B: graph.VNFPort("fw", 0), Bidirectional: true},
			{A: graph.VNFPort("fw", 1), B: graph.VNFPort("dst", 0), Bidirectional: true},
		},
	}
	d, err := node.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	sink := d.Internal().Sink("dst")
	deadline := time.Now().Add(3 * time.Second)
	for sink.Received.Load() < 1000 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sink.Received.Load() < 1000 {
		t.Fatalf("sink got %d", sink.Received.Load())
	}
}
