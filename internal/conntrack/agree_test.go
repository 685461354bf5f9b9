package conntrack

import (
	"math/rand"
	"testing"

	"ovshighway/internal/flow"
	"ovshighway/internal/pkt"
)

// TestFlowHashAgreement pins the one-flow-one-hash contract: the RSS queue
// hash of a frame, the conntrack hash of its 5-tuple and the ECMP pick base
// (the TupleHash of the PMD's classifier key, in-port included) are one
// value, whatever the frame's MACs, VLAN tag, DSCP or ingress port.
func TestFlowHashAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randMAC := func() (m pkt.MAC) {
		rng.Read(m[:])
		return m
	}
	buf := make([]byte, 256)
	var rss, pmd pkt.Parser
	for i := 0; i < 2000; i++ {
		tuple := Key{
			Src:     pkt.IP4FromUint32(rng.Uint32()),
			Dst:     pkt.IP4FromUint32(rng.Uint32()),
			SrcPort: uint16(rng.Intn(1 << 16)),
			DstPort: uint16(rng.Intn(1 << 16)),
			Proto:   pkt.ProtoUDP,
		}
		tagged := rng.Intn(2) == 0
		vid := uint16(1 + rng.Intn(4094))
		var n int
		var err error
		if rng.Intn(2) == 0 {
			spec := pkt.UDPSpec{
				SrcMAC: randMAC(), DstMAC: randMAC(),
				SrcIP: tuple.Src, DstIP: tuple.Dst,
				SrcPort: tuple.SrcPort, DstPort: tuple.DstPort,
				FrameLen: pkt.MinFrame,
			}
			if tagged {
				spec.VlanID = vid
			}
			n, err = pkt.BuildUDP(buf, spec)
		} else {
			tuple.Proto = pkt.ProtoTCP
			off := 0
			if tagged {
				off = pkt.VLANLen
			}
			n, err = pkt.BuildTCP(buf[off:], pkt.TCPSpec{
				SrcMAC: randMAC(), DstMAC: randMAC(),
				SrcIP: tuple.Src, DstIP: tuple.Dst,
				SrcPort: tuple.SrcPort, DstPort: tuple.DstPort,
				Flags: pkt.TCPSyn,
			})
			if err == nil && tagged {
				n += off
				err = pkt.PushVlan(buf[:n], vid, 0)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		frame := buf[:n]
		ipOff := pkt.EthernetLen
		if tagged {
			ipOff += pkt.VLANLen
		}
		frame[ipOff+1] = byte(rng.Intn(64)) << 2 // DSCP

		want := HashKey(tuple)
		got, ok := flow.RSSHash(&rss, frame)
		if !ok {
			t.Fatalf("tuple %d: RSSHash rejected the frame", i)
		}
		if got != want {
			t.Fatalf("tuple %d (%+v, vlan=%v): RSSHash %#x != HashKey %#x", i, tuple, tagged, got, want)
		}
		if err := pmd.Parse(frame); err != nil {
			t.Fatal(err)
		}
		k := flow.ExtractKey(&pmd, 1+rng.Uint32()%64)
		kp := k.Pack()
		if pick := kp.TupleHash(); pick != want {
			t.Fatalf("tuple %d (%+v, vlan=%v): ECMP pick base %#x != HashKey %#x", i, tuple, tagged, pick, want)
		}
	}
}
