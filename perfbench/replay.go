package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ovshighway/internal/conntrack"
	"ovshighway/internal/dpdkr"
	"ovshighway/internal/flow"
	"ovshighway/internal/mempool"
	"ovshighway/internal/pkt"
	"ovshighway/internal/vnf"
	"ovshighway/internal/vswitch"
)

// span is one timed call (or one loop of calls over a batch) into a layer.
// Spans of one replayed batch share batch; stages of a vSwitch hop name the
// hop's span as parent (-1 = none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Batch  int32  `json:"batch"`
	Frames int32  `json:"frames"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	base  time.Time
	spans []span
}

func (l *spanLog) now() int64 { return int64(time.Since(l.base)) }

func (l *spanLog) add(name string, start, end int64, parent, batchID int32, frames int) int32 {
	l.spans = append(l.spans, span{Name: name, Start: start, End: end, Parent: parent, Batch: batchID, Frames: int32(frames)})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) writeFile(workload string, seed uint64) (string, error) {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, f.Close()
}

// perFrame is the median over a stage's spans of span time per frame.
func (l *spanLog) perFrame(name string) float64 {
	var xs []float64
	for _, s := range l.spans {
		if s.Name == name && s.Frames > 0 {
			xs = append(xs, float64(s.End-s.Start)/float64(s.Frames))
		}
	}
	return median(xs)
}

// perOp is the mean span time per operation of a stage whose spans cover
// only the frames that took it (inserts, removes); 0 if none did.
func (l *spanLog) perOp(name string) float64 {
	var ns, ops float64
	for _, s := range l.spans {
		if s.Name == name {
			ns += float64(s.End - s.Start)
			ops += float64(s.Frames)
		}
	}
	return frac(ns, ops)
}

// hopStages are the spans a vSwitch hop's cost is attributed to.
var hopStages = []string{
	"dpdkr.tx_ns", "dpdkr.rx_ns", "pkt.parse_ns", "flow.key_ns", "flow.hash_ns",
	"flow.emc_ns", "flow.smc_ns", "flow.cls_ns",
}

// ledgerTolerance is the unattributed share of a hop the ledger accepts:
// what the stages cannot see (the PMD noticing the batch, phase-2 actions,
// the port-side ring hand-offs) must stay below it for the stage spans to
// count as accounting for the hop. At its introduction the share measured
// 0.03 to 0.16 across the workloads.
const ledgerTolerance = 0.25

// unattributed returns, over the hop spans named hop, the median of
// 1 − Σ(stage spans of that hop) ÷ hop span: the share of a hop's time no
// stage accounts for.
func (l *spanLog) unattributed(hop string, stages []string) float64 {
	isStage := make(map[string]bool, len(stages))
	for _, s := range stages {
		isStage[s] = true
	}
	sum := make(map[int32]int64)
	for _, s := range l.spans {
		if s.Parent >= 0 && isStage[s.Name] {
			sum[s.Parent] += s.End - s.Start
		}
	}
	var xs []float64
	for i, s := range l.spans {
		if s.Name == hop && s.End > s.Start {
			xs = append(xs, 1-float64(sum[int32(i)])/float64(s.End-s.Start))
		}
	}
	return median(xs)
}

// Replay sizes: warm batches fill caches and tables untimed (two passes
// over the largest population), measured batches are timed. hopTimeout is
// how long a private hop may take to return a batch before its missing
// frames count as lost: far longer than any hop, so that a stall of the
// host delays a span but loses nothing.
const (
	replayWarm     = 1024
	replayMeasured = 8192
	hopTimeout     = 5 * time.Second
)

// replayer holds private instances of each layer, fed the workload's own
// frame sequence one 32-frame batch at a time.
type replayer struct {
	log  *spanLog
	pool *mempool.Pool

	// One vSwitch hop: a private switch with two dpdkr ports and the
	// chains' steering rules (in_port → output, both ways).
	sw     *vswitch.Switch
	guests [2]*dpdkr.PMD

	// The same hop's lookup stages, run on private copies of a PMD's state.
	parsers [batch]pkt.Parser
	keys    [batch]flow.Packed
	hashes  [batch]uint32
	hashes2 [batch]uint32
	flows   [batch]*flow.Flow
	table   *flow.Table
	emc     *flow.EMC
	smc     *flow.SMC

	ct       *conntrack.Table
	tuples   [batch]conntrack.Key
	ctHashes [batch]uint32
	hits     [batch]*conntrack.Entry

	// Private NAT44 and ACL apps, each between two host-side ports.
	natIn, natOut, aclIn, aclOut *dpdkr.Port
	apps                         []*vnf.App

	lost int // frames a private hop did not return in time
}

func newReplayer() (*replayer, error) {
	rp := &replayer{log: &spanLog{base: time.Now()}}
	var err error
	if rp.pool, err = mempool.New(mempool.Config{Capacity: 1024}); err != nil {
		return nil, err
	}
	rules := func(t *flow.Table) {
		t.Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 1)
		t.Add(10, flow.MatchInPort(2), flow.Actions{flow.Output(1)}, 2)
	}
	rp.sw = vswitch.New(vswitch.Config{})
	for i := range rp.guests {
		p, g, err := dpdkr.NewPort(uint32(i+1), fmt.Sprintf("replay%d", i+1), 0)
		if err != nil {
			return nil, err
		}
		if err := rp.sw.AddPort(p); err != nil {
			return nil, err
		}
		rp.guests[i] = g
	}
	rules(rp.sw.Table())
	rp.table = flow.NewTable()
	rules(rp.table)
	rp.emc, rp.smc = flow.NewEMC(8192), flow.NewSMC(32768)
	if rp.ct, err = conntrack.New(conntrack.Config{Capacity: churnCTCapacity, IdleTimeout: time.Hour}); err != nil {
		return nil, err
	}

	var natG, aclG [2]*dpdkr.PMD
	if rp.natIn, natG[0], err = dpdkr.NewPort(11, "nat-in", 0); err != nil {
		return nil, err
	}
	if rp.natOut, natG[1], err = dpdkr.NewPort(12, "nat-out", 0); err != nil {
		return nil, err
	}
	if rp.aclIn, aclG[0], err = dpdkr.NewPort(13, "acl-in", 0); err != nil {
		return nil, err
	}
	if rp.aclOut, aclG[1], err = dpdkr.NewPort(14, "acl-out", 0); err != nil {
		return nil, err
	}
	natCT, err := conntrack.New(conntrack.Config{Capacity: churnCTCapacity, IdleTimeout: time.Hour})
	if err != nil {
		return nil, err
	}
	aclCT, err := conntrack.New(conntrack.Config{Capacity: churnCTCapacity, IdleTimeout: time.Hour})
	if err != nil {
		return nil, err
	}
	natApp, _, err := vnf.NewNAT44("nat", natG[0], natG[1], rp.pool, vnf.NAT44Config{
		ExtIP: natPlan.extIP, PortBase: natPlan.portBase, PortCount: natPlan.portCount, Table: natCT,
	})
	if err != nil {
		return nil, err
	}
	aclApp, _, err := vnf.NewACL("acl", aclG[0], aclG[1], rp.pool, aclCT,
		[]vnf.ACLRule{{Priority: 1, Match: flow.MatchAll(), Allow: true}}, true)
	if err != nil {
		return nil, err
	}
	rp.apps = []*vnf.App{natApp, aclApp}
	if err := rp.sw.Start(); err != nil {
		return nil, err
	}
	for _, a := range rp.apps {
		a.Start()
	}
	return rp, nil
}

func (rp *replayer) stop() {
	for _, a := range rp.apps {
		a.Stop()
	}
	rp.sw.Stop()
}

// replayLayers replays the workload's frame sequence, from the same seed,
// through private instances of the packet-path layers, adds the span
// metrics and the ledger to pl, and returns the spans.
func replayLayers(w *workload, seed uint64, pl map[string]metric) (*spanLog, error) {
	rp, err := newReplayer()
	if err != nil {
		return nil, fmt.Errorf("replay set-up: %w", err)
	}
	defer rp.stop()
	srcs := w.traffic(seed)
	for b := 0; b < replayWarm+replayMeasured && rp.lost == 0; b++ {
		rp.batch(srcs, b, b >= replayWarm)
	}
	if rp.lost > 0 {
		return nil, fmt.Errorf("replay: %d frames not returned by a private hop within %v", rp.lost, hopTimeout)
	}
	l := rp.log
	for _, name := range []string{
		"mempool.get_ns", "mempool.free_ns", "dpdkr.tx_ns", "pkt.parse_ns",
		"flow.key_ns", "flow.hash_ns", "flow.emc_ns", "flow.smc_ns", "flow.cls_ns",
		"conntrack.hashkey_ns", "conntrack.lookup_ns", "vswitch.hop_ns", "vnf.nat_hop_ns", "vnf.acl_hop_ns",
	} {
		pl[name] = metric{l.perFrame(name), "ns"}
	}
	// A frame's dpdkr.rx can take several Rx calls; attribute per hop.
	pl["dpdkr.rx_ns"] = metric{l.perHop("dpdkr.rx_ns", "vswitch.hop_ns"), "ns"}
	pl["conntrack.insert_ns"] = metric{l.perOp("conntrack.insert_ns"), "ns"}
	pl["conntrack.remove_ns"] = metric{l.perOp("conntrack.remove_ns"), "ns"}
	un := l.unattributed("vswitch.hop_ns", hopStages)
	pl["ledger.unattributed_frac"] = metric{un, "frac"}
	verdict := "within"
	if un > ledgerTolerance {
		verdict = "outside"
	}
	fmt.Printf("ledger: %.3f of a vswitch hop (%.0f ns/frame) is not covered by its stage spans, %s tolerance %.2f\n",
		un, pl["vswitch.hop_ns"].Value, verdict, ledgerTolerance)
	return l, nil
}

// perHop is the median over hops of the summed per-frame time of a child
// stage that may record several spans per hop.
func (l *spanLog) perHop(child, hop string) float64 {
	sum := make(map[int32]int64)
	for _, s := range l.spans {
		if s.Name == child && s.Parent >= 0 {
			sum[s.Parent] += s.End - s.Start
		}
	}
	var xs []float64
	for i, s := range l.spans {
		if s.Name == hop && s.Frames > 0 {
			xs = append(xs, float64(sum[int32(i)])/float64(s.Frames))
		}
	}
	return median(xs)
}

// batch replays batch number b of the workload (streams alternate) through
// every private layer. Spans are only kept when record is set.
func (rp *replayer) batch(srcs []traffic, b int, record bool) {
	l := rp.log
	id := int32(b)
	dir := b % len(srcs)
	src := srcs[dir]
	inPort := uint32(dir + 1)
	keep := func(name string, start, end int64, parent int32, frames int) int32 {
		if !record {
			return -1
		}
		return l.add(name, start, end, parent, id, frames)
	}

	var bufs, out [batch]*mempool.Buf
	t := l.now()
	k := rp.pool.GetBatch(bufs[:])
	keep("mempool.get_ns", t, l.now(), -1, k)
	for _, buf := range bufs[:k] {
		buf.Len = frameLen
		src.next(buf.Data[buf.Off:buf.Off+frameLen], 0)
	}

	// One vSwitch hop: guest Tx on one port, guest Rx on the other.
	hop := keep("vswitch.hop_ns", 0, 0, -1, k)
	h0 := l.now()
	n := rp.guests[dir].Tx(bufs[:k])
	t = l.now()
	keep("dpdkr.tx_ns", h0, t, hop, n)
	mempool.FreeBatch(bufs[n:k])
	got := 0
	for got < n && l.now()-h0 < int64(hopTimeout) {
		r0 := l.now()
		m := rp.guests[1-dir].Rx(out[got:n])
		if m > 0 {
			keep("dpdkr.rx_ns", r0, l.now(), hop, m)
			got += m
		}
	}
	if record {
		l.spans[hop].Start, l.spans[hop].End = h0, l.now()
	}
	rp.lost += n - got
	frames := out[:got]

	// The hop's lookup stages on the frames it carried.
	t = l.now()
	for i, f := range frames {
		_ = rp.parsers[i].Parse(f.Bytes()) // generated frames always hold an Ethernet header
	}
	keep("pkt.parse_ns", t, l.now(), hop, got)
	t = l.now()
	for i := range frames {
		key := flow.ExtractKey(&rp.parsers[i], inPort)
		rp.keys[i] = key.Pack()
	}
	keep("flow.key_ns", t, l.now(), hop, got)
	t = l.now()
	for i := range frames {
		rp.hashes[i] = rp.keys[i].Hash()
		rp.hashes2[i] = rp.keys[i].Hash2()
	}
	keep("flow.hash_ns", t, l.now(), hop, got)
	gen := rp.table.Generation()
	t = l.now()
	for i := range frames {
		rp.flows[i] = rp.emc.Lookup(rp.keys[i], rp.hashes[i], gen)
	}
	keep("flow.emc_ns", t, l.now(), hop, got)
	t = l.now()
	for i := range frames {
		if rp.flows[i] == nil {
			rp.flows[i] = rp.smc.Lookup(&rp.keys[i], rp.hashes[i], gen)
		}
	}
	keep("flow.smc_ns", t, l.now(), hop, got)
	t = l.now()
	for i := range frames {
		if rp.flows[i] != nil {
			continue
		}
		// The PMD's miss path: classifier walk, EMC insert with demotion of
		// a live victim into the SMC, SMC insert.
		f := rp.table.LookupPacked(&rp.keys[i])
		if f != nil {
			if vk, vf, ev := rp.emc.Insert(rp.keys[i], rp.hashes[i], f, gen); ev {
				rp.smc.Insert(&vk, vk.Hash(), vf, gen)
			}
			rp.smc.Insert(&rp.keys[i], rp.hashes[i], f, gen)
		}
		rp.flows[i] = f
	}
	keep("flow.cls_ns", t, l.now(), hop, got)

	// Connection tracking as a stateful VNF does it per frame: hash, look
	// up, insert on a miss, remove on a RST.
	for i := range frames {
		rp.tuples[i], _ = rp.parsers[i].FiveTuple()
	}
	t = l.now()
	for i := range frames {
		rp.ctHashes[i] = conntrack.HashKey(rp.tuples[i])
	}
	keep("conntrack.hashkey_ns", t, l.now(), -1, got)
	nowNano := time.Now().UnixNano()
	t = l.now()
	for i := range frames {
		rp.hits[i] = rp.ct.Lookup(rp.tuples[i], nowNano)
	}
	keep("conntrack.lookup_ns", t, l.now(), -1, got)
	inserts, removes := 0, 0
	t = l.now()
	for i := range frames {
		if rp.hits[i] == nil {
			rp.ct.Insert(rp.tuples[i], nowNano)
			inserts++
		}
	}
	if inserts > 0 {
		keep("conntrack.insert_ns", t, l.now(), -1, inserts)
	}
	t = l.now()
	for i := range frames {
		if p := &rp.parsers[i]; p.Decoded.Has(pkt.LayerTCP) && p.TCP.Flags()&pkt.TCPRst != 0 {
			rp.ct.Remove(rp.tuples[i])
			removes++
		}
	}
	if removes > 0 {
		keep("conntrack.remove_ns", t, l.now(), -1, removes)
	}

	// Whole VNF hops: host Send into the app's first port, Recv from its
	// second.
	var mid [batch]*mempool.Buf
	t = l.now()
	got = rp.vnfHop(rp.natIn, rp.natOut, frames, mid[:])
	keep("vnf.nat_hop_ns", t, l.now(), -1, got)
	t = l.now()
	got = rp.vnfHop(rp.aclIn, rp.aclOut, mid[:got], out[:])
	keep("vnf.acl_hop_ns", t, l.now(), -1, got)

	t = l.now()
	mempool.FreeBatch(out[:got])
	keep("mempool.free_ns", t, l.now(), -1, got)
}

// vnfHop sends frames into a private app's input port and collects what
// it transmits on its output port.
func (rp *replayer) vnfHop(in, out *dpdkr.Port, frames, dst []*mempool.Buf) int {
	n := in.Send(frames)
	got := 0
	deadline := rp.log.now() + int64(hopTimeout)
	for got < n && rp.log.now() < deadline {
		got += out.Recv(dst[got:n])
	}
	rp.lost += n - got
	return got
}
