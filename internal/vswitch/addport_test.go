package vswitch

import (
	"sync"
	"testing"
	"time"

	"ovshighway/internal/dpdkr"
	"ovshighway/internal/flow"
	"ovshighway/internal/mempool"
	"ovshighway/internal/pkt"
	"ovshighway/internal/stats"
)

// gatedPort is a DataPort that hands out one queued batch and parks the
// receiving PMD inside that Recv until released: the PMD is then held in a
// round that began with whatever port snapshot was current at the time.
type gatedPort struct {
	id      uint32
	batch   chan []*mempool.Buf
	parked  chan struct{}
	release chan struct{}
	once    sync.Once
	ctr     stats.PortCounters
}

func newGatedPort(id uint32) *gatedPort {
	return &gatedPort{
		id:      id,
		batch:   make(chan []*mempool.Buf, 1),
		parked:  make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (p *gatedPort) PortID() uint32                    { return p.id }
func (p *gatedPort) PortName() string                  { return "gated" }
func (p *gatedPort) PortCounters() *stats.PortCounters { return &p.ctr }
func (p *gatedPort) Send(bufs []*mempool.Buf) int      { mempool.FreeBatch(bufs); return len(bufs) }
func (p *gatedPort) Recv(out []*mempool.Buf) int {
	select {
	case b := <-p.batch:
		p.once.Do(func() {
			close(p.parked)
			<-p.release
		})
		return copy(out, b)
	default:
		return 0
	}
}

// TestAddPortWaitsOutStaleSnapshotRounds holds the only PMD inside a round
// that began before port 2 existed, then adds port 2 and a rule that
// outputs to it. Every frame of the held round must be accounted for: either
// delivered to port 2 or counted as a table miss. Before AddPort waited for
// datapath quiescence, the rule landed while the round still held the old
// snapshot, the frames matched it, and the output to the unknown port freed
// them with no counter.
func TestAddPortWaitsOutStaleSnapshotRounds(t *testing.T) {
	sw := New(Config{NumPMDs: 1})
	pool := mempool.MustNew(mempool.Config{Capacity: 256, BufSize: 2048, Headroom: 128})
	gen := newGatedPort(1)
	if err := sw.AddPort(gen); err != nil {
		t.Fatal(err)
	}
	if err := sw.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sw.Stop)

	// Distinct source ports: every frame takes its own classifier walk, so
	// a table miss counts each one (no within-batch dedup).
	const frames = 8
	raw := make([]byte, 256)
	bufs := make([]*mempool.Buf, frames)
	for i := range bufs {
		spec := defaultSpec
		spec.SrcPort += uint16(i)
		n, err := pkt.BuildUDP(raw, spec)
		if err != nil {
			t.Fatal(err)
		}
		if bufs[i], err = pool.Get(); err != nil {
			t.Fatal(err)
		}
		if err := bufs[i].SetBytes(raw[:n]); err != nil {
			t.Fatal(err)
		}
	}
	gen.batch <- bufs
	<-gen.parked

	late, latePMD, err := dpdkr.NewPort(2, "late", 64)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		err := sw.AddPort(late)
		sw.Table().Add(10, flow.MatchInPort(1), flow.Actions{flow.Output(2)}, 0)
		done <- err
	}()
	// A correct AddPort cannot return while the PMD is parked; give a
	// premature return time to happen before letting the round finish.
	select {
	case err := <-done:
		done <- err
	case <-time.After(200 * time.Millisecond):
	}
	close(gen.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	out := make([]*mempool.Buf, frames)
	delivered := 0
	deadline := time.Now().Add(2 * time.Second)
	for delivered+int(sw.TableMisses.Load()) < frames && time.Now().Before(deadline) {
		k := latePMD.Rx(out)
		delivered += k
		mempool.FreeBatch(out[:k])
		time.Sleep(time.Millisecond)
	}
	if got := delivered + int(sw.TableMisses.Load()); got != frames {
		t.Fatalf("%d of %d frames accounted for (delivered %d, table misses %d): the rest were freed with no counter",
			got, frames, delivered, sw.TableMisses.Load())
	}
}
