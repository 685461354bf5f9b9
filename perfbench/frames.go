package main

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"

	"ovshighway/internal/pkt"
)

// frameLen is the size of every generated frame: the paper's 64-byte
// frame (60 bytes materialized, the 4-byte FCS is not).
const frameLen = pkt.MinFrame

var be = binary.BigEndian

// tag is the in-band record every frame carries: which flow it belongs to,
// its sequence number within that flow, the (low 32 bits of the) time it was
// sent or due, and a check word over the three.
type tag struct {
	flow, seq, ts uint32
}

// check is never 0: a TCP window of 0 is not representable in
// pkt.BuildTCP, which takes 0 to mean the default window.
func (t tag) check() uint16 {
	x := uint64(t.flow)<<32 | uint64(t.seq)
	x ^= uint64(t.ts) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return max(uint16(x)^uint16(x>>16), 1)
}

// tagLayout places the tag fields inside a frame. UDP frames carry the tag
// as their payload; TCP frames have only four payload bytes at 60 bytes, so
// the tag also rides in header fields no program layer rewrites (sequence,
// acknowledgement and window).
type tagLayout struct {
	flow, seq, ts, check int
}

var (
	udpTag = tagLayout{flow: 42, seq: 46, ts: 50, check: 54}
	tcpTag = tagLayout{flow: 38, seq: 42, ts: 54, check: 48}
)

func (l tagLayout) put(f []byte, t tag) {
	be.PutUint32(f[l.flow:], t.flow)
	be.PutUint32(f[l.seq:], t.seq)
	be.PutUint32(f[l.ts:], t.ts)
	be.PutUint16(f[l.check:], t.check())
}

// get reads the tag back; ok is false when the check word does not match.
func (l tagLayout) get(f []byte) (t tag, ok bool) {
	t = tag{flow: be.Uint32(f[l.flow:]), seq: be.Uint32(f[l.seq:]), ts: be.Uint32(f[l.ts:])}
	return t, be.Uint16(f[l.check:]) == t.check()
}

// traffic is one direction's frame source and the checker for the frames
// that direction delivers. next writes the next frame of the sequence into
// dst (at least frameLen bytes), stamped ts. check validates a delivered
// frame and returns its stamp; ok is false on any correctness violation.
type traffic interface {
	next(dst []byte, ts uint32)
	check(f []byte) (ts uint32, ok bool)
	// flows is the population: frames next emits before it repeats a flow.
	flows() int
}

// udpFlows cycles 64-byte UDP frames over a fixed set of distinct 5-tuples
// in a seeded order. Every hop of the stateless chains forwards frames
// unmodified, so a delivered frame must match its flow's header byte for
// byte and arrive in per-flow sequence order.
type udpFlows struct {
	hdr     [][]byte // per flow: the 42 header bytes every frame of it carries
	order   []uint32 // seeded permutation the sender cycles through
	pos     int
	nextSeq []uint32 // sender: per-flow next sequence number
	expSeq  []uint32 // receiver: per-flow next expected sequence number
}

// newUDPFlows builds n distinct flows for direction dir (0 or 1): the flow
// index is encoded in the source address, so tuples never collide, and the
// ports and cycle order come from rng.
func newUDPFlows(rng *rand.Rand, dir, n int) *udpFlows {
	u := &udpFlows{
		hdr:     make([][]byte, n),
		order:   make([]uint32, n),
		nextSeq: make([]uint32, n),
		expSeq:  make([]uint32, n),
	}
	buf := make([]byte, 2048)
	for i := range u.hdr {
		spec := pkt.UDPSpec{
			SrcMAC:   pkt.MAC{0x02, 0, 0, 0, byte(dir), 0x01},
			DstMAC:   pkt.MAC{0x02, 0, 0, 0, byte(dir), 0x02},
			SrcIP:    pkt.IP4{10, byte(1 + dir), byte(i >> 8), byte(i)},
			DstIP:    pkt.IP4{10, byte(101 + dir), 0, 1},
			SrcPort:  uint16(1024 + rng.IntN(60000)),
			DstPort:  uint16(1024 + rng.IntN(60000)),
			Payload:  make([]byte, 16),
			FrameLen: frameLen,
		}
		if _, err := pkt.BuildUDP(buf, spec); err != nil {
			panic(err) // the spec is fixed-size; failure is a bug
		}
		be.PutUint16(buf[40:], 0) // no UDP checksum: the tag changes per frame
		u.hdr[i] = append([]byte(nil), buf[:udpTag.flow]...)
		u.order[i] = uint32(i)
	}
	rng.Shuffle(n, func(i, j int) { u.order[i], u.order[j] = u.order[j], u.order[i] })
	return u
}

func (u *udpFlows) flows() int { return len(u.hdr) }

func (u *udpFlows) next(dst []byte, ts uint32) {
	f := u.order[u.pos]
	if u.pos++; u.pos == len(u.order) {
		u.pos = 0
	}
	copy(dst, u.hdr[f])
	clear(dst[len(u.hdr[f]):frameLen])
	udpTag.put(dst, tag{flow: f, seq: u.nextSeq[f], ts: ts})
	u.nextSeq[f]++
}

func (u *udpFlows) check(f []byte) (uint32, bool) {
	if len(f) != frameLen {
		return 0, false
	}
	t, ok := udpTag.get(f)
	if !ok || t.flow >= uint32(len(u.hdr)) || !bytes.Equal(f[:udpTag.flow], u.hdr[t.flow]) {
		return t.ts, false
	}
	// A gap (seq ahead) is loss and shows in the run's ledger; going back
	// is a duplicate or a reordering.
	if t.seq < u.expSeq[t.flow] {
		return t.ts, false
	}
	u.expSeq[t.flow] = t.seq + 1
	return t.ts, true
}

// Stateful-churn connection schedule: every connection lives connFrames
// frames (a SYN, connFrames-2 data frames, a RST). The first connection of
// slot s is shortened so that opens and closes spread evenly over the run.
const connFrames = 128

func firstLifetime(slot int) int { return connFrames - slot%(connFrames-1) }

// connOf maps a slot's frame number to its connection number and the
// frame's index within that connection.
func connOf(slot int, seq uint32) (conn uint32, idx int, life int) {
	l0 := uint32(firstLifetime(slot))
	if seq < l0 {
		return 0, int(seq), int(l0)
	}
	d := seq - l0
	return 1 + d/connFrames, int(d % connFrames), connFrames
}

// natSpec is the address plan of the stateful-churn workload.
type natSpec struct {
	extIP     pkt.IP4
	portBase  uint16
	portCount int
	server    pkt.IP4
	srvPort   uint16
}

// tcpConns drives a population of concurrent synthetic TCP connections
// through a source NAT. Slot s always holds one live connection; when it
// closes, the slot opens the next one on a fresh source port. The checker
// sees frames after translation and holds the NAT's invariants: the source
// is the external address, the port lies in the block and stays the same
// for the life of the connection, and flags follow the connection schedule.
type tcpConns struct {
	nat     natSpec
	srcMAC  pkt.MAC
	dstMAC  pkt.MAC
	order   []uint32
	pos     int
	portOff []uint16 // seeded per-slot offset of the source-port sequence
	nextSeq []uint32
	expSeq  []uint32
	rxConn  []uint32 // receiver: connection whose external port is recorded
	rxPort  []uint16 // receiver: that connection's external port (0 = none)
	parser  pkt.Parser
	payload [4]byte
}

func newTCPConns(rng *rand.Rand, n int, nat natSpec) *tcpConns {
	c := &tcpConns{
		nat:     nat,
		srcMAC:  pkt.MAC{0x02, 0, 0, 0, 0x10, 0x01},
		dstMAC:  pkt.MAC{0x02, 0, 0, 0, 0x10, 0x02},
		order:   make([]uint32, n),
		portOff: make([]uint16, n),
		nextSeq: make([]uint32, n),
		expSeq:  make([]uint32, n),
		rxConn:  make([]uint32, n),
		rxPort:  make([]uint16, n),
	}
	for i := range c.order {
		c.order[i] = uint32(i)
		c.portOff[i] = uint16(rng.IntN(60000))
	}
	rng.Shuffle(n, func(i, j int) { c.order[i], c.order[j] = c.order[j], c.order[i] })
	return c
}

func (c *tcpConns) flows() int { return len(c.order) }

func slotIP(slot int) pkt.IP4 { return pkt.IP4FromUint32(10<<24 | 64<<16 | uint32(slot)) }

// srcPort is connection conn's source port in slot s. Consecutive
// connections of a slot step through 60000 ports, so a tuple is not reused
// while the NAT may still hold its lingering binding.
func (c *tcpConns) srcPort(slot int, conn uint32) uint16 {
	return uint16(1024 + (uint32(c.portOff[slot])+conn)%60000)
}

func (c *tcpConns) next(dst []byte, ts uint32) {
	s := int(c.order[c.pos])
	if c.pos++; c.pos == len(c.order) {
		c.pos = 0
	}
	seq := c.nextSeq[s]
	c.nextSeq[s]++
	conn, idx, life := connOf(s, seq)
	flags := pkt.TCPAck
	switch idx {
	case 0:
		flags = pkt.TCPSyn
	case life - 1:
		flags = pkt.TCPRst
	}
	t := tag{flow: uint32(s), seq: seq, ts: ts}
	be.PutUint32(c.payload[:], ts)
	n, err := pkt.BuildTCP(dst, pkt.TCPSpec{
		SrcMAC: c.srcMAC, DstMAC: c.dstMAC,
		SrcIP: slotIP(s), DstIP: c.nat.server,
		SrcPort: c.srcPort(s, conn), DstPort: c.nat.srvPort,
		Seq: t.flow, Ack: t.seq, Window: t.check(), Flags: flags,
		Payload: c.payload[:],
	})
	if err != nil {
		panic(err) // fixed-size spec; failure is a bug
	}
	clear(dst[n:frameLen])
}

func (c *tcpConns) check(f []byte) (uint32, bool) {
	if len(f) != frameLen {
		return 0, false
	}
	t, ok := tcpTag.get(f)
	if !ok || t.flow >= uint32(len(c.order)) {
		return t.ts, false
	}
	if c.parser.Parse(f) != nil || !c.parser.Decoded.Has(pkt.LayerTCP) || !c.parser.IPv4.VerifyChecksum() {
		return t.ts, false
	}
	ip, tcp := c.parser.IPv4, c.parser.TCP
	if pkt.L4Checksum(ip.Src(), ip.Dst(), pkt.ProtoTCP, tcp.Segment()) != 0 {
		return t.ts, false
	}
	s := int(t.flow)
	port := tcp.SrcPort()
	if ip.Src() != c.nat.extIP || ip.Dst() != c.nat.server || tcp.DstPort() != c.nat.srvPort ||
		port < c.nat.portBase || int(port-c.nat.portBase) >= c.nat.portCount {
		return t.ts, false
	}
	if t.seq < c.expSeq[s] {
		return t.ts, false
	}
	c.expSeq[s] = t.seq + 1
	conn, idx, life := connOf(s, t.seq)
	want := pkt.TCPAck
	switch idx {
	case 0:
		want = pkt.TCPSyn
	case life - 1:
		want = pkt.TCPRst
	}
	if tcp.Flags() != want {
		return t.ts, false
	}
	if c.rxPort[s] == 0 || c.rxConn[s] != conn {
		c.rxConn[s], c.rxPort[s] = conn, port
	} else if c.rxPort[s] != port {
		return t.ts, false
	}
	return t.ts, true
}
