package highway

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestStatefulChainSplitLedger deploys the NAT44→ACL→balancer chain via the
// placement optimizer across a 2-node cluster and closes the zero-loss
// conservation ledger: every packet the paced client sent must land in the
// server sink once generation pauses and the chain drains.
func TestStatefulChainSplitLedger(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Config: Config{Mode: ModeHighway},
		Nodes:  []string{"node0", "node1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	sc, crossings, err := c.DeployStatefulChain(StatefulChainOptions{
		Flows: 32, RatePps: 20_000, Backends: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()

	// The balanced placement must split the 5 VNFs across both nodes.
	hosts := 0
	for _, name := range c.NodeNames() {
		if c.Internal().Node(name) != nil && sc.Deployment().Internal().Deployment(name) != nil {
			hosts++
		}
	}
	if hosts < 2 {
		t.Fatalf("chain deployed on %d node(s), want ≥2 (crossings=%d)", hosts, crossings)
	}
	if crossings < 1 {
		t.Fatalf("split chain reports %d crossings", crossings)
	}

	// Let the chain run: connections establish through NAT (bindings), ACL
	// (classifier walk then bypass) and balancer (backend pins).
	deadline := time.Now().Add(10 * time.Second)
	for sc.Received() < 5000 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if sc.Received() < 5000 {
		t.Fatalf("sink received only %d packets", sc.Received())
	}

	// Stateful behaviour actually engaged.
	if got := sc.NAT().Bound.Load(); got != 32 {
		t.Fatalf("NAT bindings = %d, want 32 (one per flow)", got)
	}
	if sc.ACL().Established.Load() == 0 {
		t.Fatal("ACL conntrack bypass never hit")
	}
	if sc.ACL().Denied.Load() != 0 {
		t.Fatalf("ACL denied %d packets of an allowed workload", sc.ACL().Denied.Load())
	}
	if got := sc.Balancer().NewConns.Load(); got != 32 {
		t.Fatalf("balancer pinned %d connections, want 32", got)
	}

	// Conservation ledger: pause, drain, compare.
	sc.Pause(true)
	if inFlight := sc.Settle(5 * time.Second); inFlight != 0 {
		t.Fatalf("ledger did not close: %d packets unaccounted (sent=%d received=%d)",
			inFlight, sc.Sent(), sc.Received())
	}
}

// TestStatefulChainRefusesToMove: a moved NAT44/ACL/balancer would come up
// with an empty connection table, so Migrate refuses it with
// ErrStatefulMove, and Drain leaves it in place and names it in its error.
// Either way the NAT keeps its bindings and the ledger still closes.
func TestStatefulChainRefusesToMove(t *testing.T) {
	c, err := StartCluster(ClusterConfig{
		Config: Config{Mode: ModeHighway},
		Nodes:  []string{"node0", "node1", "node2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	sc, _, err := c.DeployStatefulChain(StatefulChainOptions{Flows: 32, RatePps: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()
	deadline := time.Now().Add(20 * time.Second)
	for sc.Received() < 2000 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if sc.Received() < 2000 {
		t.Fatalf("sink received only %d packets", sc.Received())
	}

	natNode := func() string {
		for _, name := range c.NodeNames() {
			if d := sc.Deployment().Internal().Deployment(name); d != nil && d.NAT44("nat") != nil {
				return name
			}
		}
		return ""
	}
	home := natNode()
	if home == "" {
		t.Fatal("nat not deployed")
	}
	target := c.NodeNames()[0]
	if target == home {
		target = c.NodeNames()[1]
	}

	// Ledger bracket around the refused moves (set-up losses before the
	// first settle are not this test's concern).
	sc.Pause(true)
	l0 := sc.Settle(5 * time.Second)
	sc.Pause(false)
	if _, err := sc.Deployment().Migrate("nat", target); !errors.Is(err, ErrStatefulMove) {
		t.Fatalf("Migrate(nat) = %v, want ErrStatefulMove", err)
	}
	if _, err := c.Drain(home); err == nil || !strings.Contains(err.Error(), "nat") {
		t.Fatalf("Drain(%s) = %v, want an error naming the stateful nat", home, err)
	}
	if got := natNode(); got != home {
		t.Fatalf("nat moved %s → %s", home, got)
	}
	if sc.Deployment().Internal().NAT44("nat") != sc.NAT() {
		t.Fatal("nat was re-instantiated")
	}
	if got := sc.NAT().Bound.Load(); got != 32 {
		t.Fatalf("NAT bindings = %d, want 32", got)
	}
	base := sc.Received()
	for sc.Received() < base+1000 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	sc.Pause(true)
	if lost := sc.Settle(5*time.Second) - l0; lost != 0 {
		t.Fatalf("%d packets lost across the refused moves", lost)
	}
}
