package main

import (
	"math/rand/v2"
	"testing"
	"time"

	"ovshighway/internal/mempool"
)

// loopPort delivers every frame it accepts straight back to its own drain
// side, except every dropEvery-th frame, which it frees (0 = no drops).
type loopPort struct {
	q         []*mempool.Buf
	dropEvery int
	seen      int
	dropped   int
}

func (p *loopPort) InjectFromWire(bufs []*mempool.Buf) int {
	for _, b := range bufs {
		p.seen++
		if p.dropEvery > 0 && p.seen%p.dropEvery == 0 {
			p.dropped++
			b.Free()
			continue
		}
		p.q = append(p.q, b)
	}
	return len(bufs)
}

func (p *loopPort) DrainToWire(out []*mempool.Buf) int {
	n := copy(out, p.q)
	p.q = p.q[n:]
	return n
}

func (p *loopPort) QueueBacklog() int { return len(p.q) }

// fakeClock advances step ns per reading and jumps by stall once the
// reading passes stallAt.
type fakeClock struct {
	t, step, stallAt, stall int64
}

func (c *fakeClock) now() int64 {
	c.t += c.step
	if c.stall > 0 && c.t >= c.stallAt {
		c.t += c.stall
		c.stall = 0
	}
	return c.t
}

func testEngine(t *testing.T, p port, clock func() int64) *engine {
	t.Helper()
	pool, err := mempool.New(mempool.Config{Capacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	src := newUDPFlows(rand.New(rand.NewPCG(1, 1)), 0, 8)
	return newEngine([]*stream{{in: p, out: p, pool: pool, src: src}}, clock, nicQueue)
}

func TestOpenLoopTimesFramesFromDueTime(t *testing.T) {
	const (
		rate   = 1e6     // frames/s: one due every 1000 ns
		stall  = 1000000 // ns: the generator stalls 1 ms ...
		from   = 0
		until  = 4000000 // ... in a 4 ms open phase
		stepNs = 50
	)
	clk := &fakeClock{step: stepNs, stallAt: 1000000, stall: stall}
	e := testEngine(t, &loopPort{}, clk.now)
	lat, err := newSamples(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	defer lat.free()
	late, err := newSamples(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	defer late.free()
	e.lat, e.late = lat, late
	e.open(from, until, rate, 512)
	e.settle(0)

	if want := uint64(until / 1000); e.attempted != want || e.delivered != want {
		t.Fatalf("attempted %d, delivered %d; want %d each", e.attempted, e.delivered, want)
	}
	// Timed from when they were due, the frames the stall held back carry
	// its delay: about stall/1000 of them are late by more than half of it
	// on average, and the worst by nearly all of it.
	slow := 0
	var worst uint32
	for _, v := range lat.xs {
		if v > stall/2 {
			slow++
		}
		worst = max(worst, v)
	}
	if slow < stall/2/1000-5 || slow > stall/2/1000+5 {
		t.Errorf("%d frames over %d ns late, want about %d", slow, stall/2, stall/2/1000)
	}
	if worst < stall-2000 || worst > stall+2000 {
		t.Errorf("worst latency %d ns, want about the %d ns stall", worst, stall)
	}
	if q := lat.quantiles(0.5); q[0] > 1000 {
		t.Errorf("median latency %d ns: frames outside the stall should be on time", q[0])
	}
	if q := late.quantiles(1); q[0] < stall-2000 {
		t.Errorf("generator lateness max %d ns, want about the %d ns stall", q[0], stall)
	}
}

func TestLossAccountingCountsDroppedFrames(t *testing.T) {
	for _, open := range []bool{false, true} {
		p := &loopPort{dropEvery: 7}
		clk := &fakeClock{step: 100}
		e := testEngine(t, p, clk.now)
		if open {
			e.open(0, 2000000, 1e6, 64)
		} else {
			e.closed(2000000, 64)
		}
		e.settle(0)
		if p.dropped == 0 {
			t.Fatal("the port dropped nothing")
		}
		if e.failed() != uint64(p.dropped) || e.delivered != e.attempted-uint64(p.dropped) {
			t.Errorf("open=%v: attempted %d, delivered %d, failed %d; the port dropped %d",
				open, e.attempted, e.delivered, e.failed(), p.dropped)
		}
		if e.violations != 0 {
			t.Errorf("open=%v: %d violations from a port that only drops", open, e.violations)
		}
	}
}

func TestPauseDoesNotWriteOffFrames(t *testing.T) {
	e := testEngine(t, &loopPort{}, (&fakeClock{}).now)
	s := e.streams[0]
	e.progress(0, true)
	s.inflight = 10
	// The whole process pauses for longer than stallNs between two
	// iterations: the program was paused too, so nothing is written off.
	now := 2 * stallNs
	e.progress(now, false)
	if s.inflight != 10 {
		t.Fatalf("a pause wrote off the in-flight frames")
	}
	// Running on without progress, the loop writes them off after stallNs.
	for s.inflight == 10 && now < 4*stallNs {
		now += int64(time.Millisecond)
		e.progress(now, false)
	}
	if s.inflight != 0 || now < 2*stallNs+stallNs-maxGapNs {
		t.Errorf("in-flight %d after %d ns of idle loop time; want 0 after about %d", s.inflight, now-2*stallNs, stallNs)
	}
}

// corruptPort flips one payload byte of its n-th frame.
type corruptPort struct {
	loopPort
	n int
}

func (p *corruptPort) InjectFromWire(bufs []*mempool.Buf) int {
	for _, b := range bufs {
		if p.seen++; p.seen == p.n {
			b.Bytes()[udpTag.seq] ^= 1
		}
		p.q = append(p.q, b)
	}
	return len(bufs)
}

func TestCorruptFrameIsAViolationAndAFailure(t *testing.T) {
	p := &corruptPort{n: 100}
	clk := &fakeClock{step: 100}
	e := testEngine(t, p, clk.now)
	e.closed(1000000, 64)
	e.settle(0)
	if e.violations != 1 || e.failed() != 1 {
		t.Errorf("violations %d, failed %d; want 1 and 1", e.violations, e.failed())
	}
}

func TestPopulateSendsEachFlowOnce(t *testing.T) {
	clk := &fakeClock{step: 100}
	e := testEngine(t, &loopPort{}, clk.now)
	if err := e.populate(512, 1e9); err != nil {
		t.Fatal(err)
	}
	if e.attempted != 8 || e.delivered != 8 {
		t.Errorf("attempted %d, delivered %d; want the 8 flows once", e.attempted, e.delivered)
	}
	e2 := testEngine(t, &loopPort{dropEvery: 3}, (&fakeClock{step: 1000}).now)
	if err := e2.populate(512, 1e9); err == nil {
		t.Error("populate succeeded although frames were lost")
	}
}
