package main

import (
	"math"
	"testing"
)

func TestLedgerSumsStagesAgainstTheirHop(t *testing.T) {
	l := &spanLog{}
	// Hop 0 takes 1000 ns; its stages cover 100+200+300 = 600 ns, so 0.4 of
	// it is unattributed. Hop 1 takes 500 ns, fully covered. Hop 2 takes
	// 800 ns and its stages 200 ns: 0.75. A span of another name under a
	// hop, and stages without a parent, do not count.
	h0 := l.add("vswitch.hop_ns", 0, 1000, -1, 0, 32)
	l.add("dpdkr.tx_ns", 0, 100, h0, 0, 32)
	l.add("dpdkr.rx_ns", 900, 1000, h0, 0, 16)
	l.add("dpdkr.rx_ns", 800, 900, h0, 0, 16)
	l.add("pkt.parse_ns", 2000, 2300, h0, 0, 32)
	l.add("conntrack.lookup_ns", 2300, 9000, h0, 0, 32)
	l.add("flow.emc_ns", 0, 5000, -1, 0, 32)
	h1 := l.add("vswitch.hop_ns", 10000, 10500, -1, 1, 32)
	l.add("flow.key_ns", 11000, 11500, h1, 1, 32)
	h2 := l.add("vswitch.hop_ns", 20000, 20800, -1, 2, 32)
	l.add("flow.cls_ns", 21000, 21200, h2, 2, 32)

	if got := l.unattributed("vswitch.hop_ns", hopStages); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("unattributed = %v, want the median 0.4 of {0.4, 0, 0.75}", got)
	}
	// Per frame: rx spans of one hop add up before the median over hops.
	if got, want := l.perHop("dpdkr.rx_ns", "vswitch.hop_ns"), 0.0; got != want {
		t.Errorf("perHop(rx) = %v, want %v (median of 200/32, 0, 0)", got, want)
	}
	if got, want := l.perFrame("vswitch.hop_ns"), 800.0/32; got != want {
		t.Errorf("perFrame(hop) = %v, want %v", got, want)
	}
	l.add("conntrack.insert_ns", 0, 300, -1, 3, 2)
	l.add("conntrack.insert_ns", 0, 100, -1, 4, 1)
	if got, want := l.perOp("conntrack.insert_ns"), 400.0/3; got != want {
		t.Errorf("perOp(insert) = %v, want %v", got, want)
	}
	if got := l.perOp("conntrack.remove_ns"); got != 0 {
		t.Errorf("perOp of a stage never taken = %v, want 0", got)
	}
}
