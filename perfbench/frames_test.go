package main

import (
	"math/rand/v2"
	"testing"

	"ovshighway/internal/pkt"
)

func TestUDPFlowsCheckOrderAndIntegrity(t *testing.T) {
	u := newUDPFlows(rand.New(rand.NewPCG(3, 3)), 1, 5)
	frames := make([][]byte, 12)
	for i := range frames {
		frames[i] = make([]byte, frameLen)
		u.next(frames[i], uint32(1000+i))
	}
	for i, f := range frames[:10] {
		ts, ok := u.check(f)
		if !ok || ts != uint32(1000+i) {
			t.Fatalf("frame %d: ok=%v ts=%d", i, ok, ts)
		}
	}
	if _, ok := u.check(frames[3]); ok {
		t.Error("a duplicate passed the check")
	}
	bad := append([]byte(nil), frames[10]...)
	bad[30]++ // destination address
	if _, ok := u.check(bad); ok {
		t.Error("a frame with a rewritten header passed the check")
	}
	bad = append([]byte(nil), frames[10]...)
	bad[udpTag.ts] ^= 0x80
	if _, ok := u.check(bad); ok {
		t.Error("a frame with a corrupt stamp passed the check")
	}
	// Skipping frames 10 is loss, not a violation.
	if _, ok := u.check(frames[11]); !ok {
		t.Error("a frame after a gap failed the check")
	}
}

// natRewrite translates a client frame the way the stateful-churn NAT
// must: source address and port replaced, checksums recomputed.
func natRewrite(t *testing.T, f []byte, port uint16) []byte {
	t.Helper()
	out := append([]byte(nil), f...)
	var p pkt.Parser
	if err := p.Parse(out); err != nil || !p.Decoded.Has(pkt.LayerTCP) {
		t.Fatalf("generated frame does not parse as TCP: %v", err)
	}
	p.IPv4.SetSrc(natPlan.extIP)
	p.TCP.SetSrcPort(port)
	p.IPv4.UpdateChecksum()
	p.TCP.SetChecksum(0)
	p.TCP.SetChecksum(pkt.L4Checksum(p.IPv4.Src(), p.IPv4.Dst(), pkt.ProtoTCP, p.TCP.Segment()))
	return out
}

func TestTCPConnsFollowScheduleAndHoldNATInvariants(t *testing.T) {
	const slots = 3
	c := newTCPConns(rand.New(rand.NewPCG(4, 4)), slots, natPlan)
	// Slot s's first connection lasts firstLifetime(s) frames, later ones
	// connFrames; flags follow SYN, ACK..., RST.
	var p pkt.Parser
	frame := make([]byte, frameLen)
	rounds := connFrames + firstLifetime(0)
	seen := make(map[int][]uint8)
	for i := 0; i < rounds*slots; i++ {
		c.next(frame, uint32(i))
		if err := p.Parse(frame); err != nil || !p.Decoded.Has(pkt.LayerTCP) {
			t.Fatal("generated frame does not parse")
		}
		slot := int(p.IPv4.Src().Uint32() & 0xffff)
		seen[slot] = append(seen[slot], p.TCP.Flags())
		conn, _, _ := connOf(slot, uint32(len(seen[slot])-1))
		port := uint16(2000 + 10*slot + int(conn)) // one port per connection
		if _, ok := c.check(natRewrite(t, frame, port)); !ok {
			t.Fatalf("slot %d frame %d: translated frame failed the check", slot, len(seen[slot])-1)
		}
	}
	for s, flags := range seen {
		l0 := firstLifetime(s)
		if flags[0] != pkt.TCPSyn || flags[l0-1] != pkt.TCPRst || flags[l0] != pkt.TCPSyn || flags[1] != pkt.TCPAck {
			t.Errorf("slot %d: flags %v do not follow the connection schedule", s, flags[:l0+1])
		}
	}

	// A port change inside a connection, an untranslated source, and a
	// port outside the block are violations.
	c2 := newTCPConns(rand.New(rand.NewPCG(5, 5)), 1, natPlan)
	for i := 0; i < 3; i++ {
		c2.next(frame, 0)
		port := uint16(3000)
		if i == 2 {
			port = 3001
		}
		_, ok := c2.check(natRewrite(t, frame, port))
		if ok != (i < 2) {
			t.Errorf("frame %d on port %d: ok=%v", i, port, ok)
		}
	}
	c3 := newTCPConns(rand.New(rand.NewPCG(5, 5)), 1, natPlan)
	c3.next(frame, 0)
	if _, ok := c3.check(frame); ok {
		t.Error("an untranslated frame passed the check")
	}
	c3.next(frame, 0)
	if _, ok := c3.check(natRewrite(t, frame, natPlan.portBase-1)); ok {
		t.Error("a port outside the NAT block passed the check")
	}
}
