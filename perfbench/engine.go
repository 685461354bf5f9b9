package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"ovshighway/internal/mempool"
)

// port is the wire side of a NIC as the generator sees it.
type port interface {
	InjectFromWire(bufs []*mempool.Buf) int
	DrainToWire(out []*mempool.Buf) int
	QueueBacklog() int
}

// stream is one traffic direction: frames from src enter the program at in
// and must come out at out.
type stream struct {
	in, out port
	pool    *mempool.Pool
	src     traffic

	inflight int   // injected and not yet drained; paces the closed loop
	budget   int   // frames the stream may still inject; <0 = no limit
	t0       int64 // open loop: due time of the stream's first frame
	sent     int64 // open loop: frames injected so far
}

// engine is the benchmark's single generator goroutine: it injects every
// frame, drains every delivery, checks each delivered frame and keeps the
// run's ledger. Nothing else touches the wire side of the NICs.
type engine struct {
	streams []*stream
	clock   func() int64 // monotonic ns
	ringCap int          // NIC wire-ingress queue size: never offer more

	attempted  uint64 // frames handed to InjectFromWire
	refused    uint64 // ... of which the NIC did not accept
	delivered  uint64 // frames drained that passed every check
	violations uint64 // frames drained that failed a check

	lat  *samples // latency of each frame delivered; nil = not recorded
	late *samples // open loop: per-batch lateness of the generator

	// sample, when set, is called every sampleEvery loop iterations to
	// watch gauges.
	sample func()
	iters  uint64

	lastIter int64 // clock reading of the last loop iteration
	idleNs   int64 // loop time since the last iteration that moved a frame

	rx, tx []*mempool.Buf
}

// maxReported is how many violating frames a run prints to standard error.
const maxReported = 3

// batch is the burst size of every inject and drain call.
const batch = 32

// sampleEvery is how many generator loop iterations pass between gauge
// readings.
const sampleEvery = 64

// stallNs is how long a loop goes without moving any frame before it
// writes its in-flight frames off, so lost frames cannot wedge the window.
// Written-off frames that arrive later still count as delivered. Only time
// the loop runs counts: a gap between two iterations adds at most maxGapNs,
// so a pause of the whole process or host, which pauses the program too,
// writes nothing off.
const (
	stallNs  = int64(200 * time.Millisecond)
	maxGapNs = int64(10 * time.Millisecond)
)

func newEngine(streams []*stream, clock func() int64, ringCap int) *engine {
	for _, s := range streams {
		s.budget = -1
	}
	return &engine{
		streams: streams, clock: clock, ringCap: ringCap,
		rx: make([]*mempool.Buf, batch), tx: make([]*mempool.Buf, batch),
	}
}

// failed is the frames attempted that were not delivered intact: refused at
// inject, never delivered, or failing a check.
func (e *engine) failed() uint64 { return e.attempted - e.delivered }

func (e *engine) tick() {
	e.iters++
	if e.sample != nil && e.iters%sampleEvery == 0 {
		e.sample()
	}
}

// drainAll takes every frame the NICs delivered, checks it and records its
// latency against now. Returns the frames drained.
func (e *engine) drainAll(now int64) int {
	got := 0
	for _, s := range e.streams {
		for {
			k := s.out.DrainToWire(e.rx)
			if k == 0 {
				break
			}
			for _, b := range e.rx[:k] {
				ts, ok := s.src.check(b.Bytes())
				if !ok {
					if e.violations < maxReported {
						fmt.Fprintf(os.Stderr, "violation: delivered frame fails its check: %x\n", b.Bytes())
					}
					e.violations++
					continue
				}
				e.delivered++
				if e.lat != nil {
					e.lat.add(uint32(now) - ts)
				}
			}
			mempool.FreeBatch(e.rx[:k])
			s.inflight = max(s.inflight-k, 0)
			got += k
			if k < len(e.rx) {
				break
			}
		}
	}
	return got
}

// inject offers up to n next frames of s. Frame i is stamped
// base + (j0+i)·period: the injection time in the closed loop (period 0),
// the frame's due time in the open loop. Returns the frames offered.
func (e *engine) inject(s *stream, n int, base int64, period float64, j0 int64) int {
	n = min(n, len(e.tx), e.ringCap-s.in.QueueBacklog())
	if s.budget >= 0 {
		n = min(n, s.budget)
	}
	if n <= 0 {
		return 0
	}
	k := s.pool.GetBatch(e.tx[:n])
	for i, b := range e.tx[:k] {
		ts := base + int64(float64(j0+int64(i))*period)
		b.Len = frameLen
		s.src.next(b.Data[b.Off:b.Off+frameLen], uint32(ts))
	}
	acc := s.in.InjectFromWire(e.tx[:k])
	if acc < k {
		mempool.FreeBatch(e.tx[acc:k])
		e.refused += uint64(k - acc)
	}
	e.attempted += uint64(k)
	s.inflight += acc
	if s.budget >= 0 {
		s.budget -= k
	}
	return k
}

// closed runs the closed loop until the clock reaches until, or until every
// stream has used up its budget and has all its frames back: each stream
// keeps window/len(streams) frames in flight, injecting only as frames
// come back.
func (e *engine) closed(until int64, window int) {
	per := max(window/len(e.streams), 1)
	e.progress(e.clock(), true)
	for {
		now := e.clock()
		if now >= until || e.exhausted() {
			return
		}
		work := e.drainAll(now) > 0
		now = e.clock()
		for _, s := range e.streams {
			if s.inflight < per && e.inject(s, per-s.inflight, now, 0, 0) > 0 {
				work = true
			}
		}
		e.tick()
		if !e.progress(now, work) {
			runtime.Gosched()
		}
	}
}

// progress notes whether a loop iteration at now moved any frame, and
// returns work. After stallNs of loop time without progress it writes the
// in-flight frames off.
func (e *engine) progress(now int64, work bool) bool {
	gap := min(now-e.lastIter, maxGapNs)
	e.lastIter = now
	if work {
		e.idleNs = 0
		return true
	}
	if e.idleNs += gap; e.idleNs > stallNs {
		for _, s := range e.streams {
			s.inflight = 0
		}
		e.idleNs = 0
	}
	return false
}

// exhausted reports whether no stream may inject more and none has frames
// in flight.
func (e *engine) exhausted() bool {
	for _, s := range e.streams {
		if s.budget != 0 || s.inflight > 0 {
			return false
		}
	}
	return true
}

// populate sends the first frames of every stream — one per flow of the
// population — through the closed loop and waits until all of them are
// back. It fails if they are not back by timeout.
func (e *engine) populate(window int, timeout time.Duration) error {
	for _, s := range e.streams {
		s.budget = s.src.flows()
	}
	defer func() {
		for _, s := range e.streams {
			s.budget = -1
		}
	}()
	start := e.delivered + e.violations
	total := 0
	for _, s := range e.streams {
		total += s.src.flows()
	}
	back := func() uint64 { return e.delivered + e.violations - start }
	deadline := e.clock() + int64(timeout)
	e.closed(deadline, window)
	// Frames the closed loop wrote off during a stall may still arrive.
	for back() < uint64(total) && e.clock() < deadline {
		e.drainAll(e.clock())
		runtime.Gosched()
	}
	if back() < uint64(total) {
		return fmt.Errorf("populate: %d of %d frames back after %v, %d refused at inject", back(), total, timeout, e.refused)
	}
	return nil
}

// open runs the open loop from the clock time from to until at ratePps
// frames/s over all streams. Each frame is stamped with the time it was
// due, so a stall of the generator or of the program counts against every
// frame it delayed; the generator's own lateness goes to e.late per batch.
// Frames that fell due before until are all sent, however late.
//
// Catching up after a stall, a stream keeps at most window/len(streams)
// frames in flight, as in the closed loop: the rings between the program's
// layers have no backpressure, and a backlog dumped at once would be
// dropped as an artefact of the generator's own lateness. At the light
// rate a stream normally has a few frames in flight, so the cap only binds
// after a stall, whose delay the due-time stamps still count.
func (e *engine) open(from, until int64, ratePps float64, window int) {
	per := max(window/len(e.streams), 1)
	period := float64(len(e.streams)) * 1e9 / ratePps
	for i, s := range e.streams {
		s.t0 = from + int64(float64(i)*period/float64(len(e.streams)))
		s.sent = 0
	}
	e.progress(e.clock(), true)
	for {
		now := e.clock()
		work := e.drainAll(now) > 0
		behind := false
		for _, s := range e.streams {
			dueBy := min(now, until-1)
			if dueBy < s.t0 {
				continue
			}
			due := int64(float64(dueBy-s.t0)/period) + 1
			if due <= s.sent {
				continue
			}
			behind = true
			k := e.inject(s, min(int(due-s.sent), per-s.inflight), s.t0, period, s.sent)
			if k == 0 {
				continue
			}
			if e.late != nil {
				e.late.add(uint32(now - (s.t0 + int64(float64(s.sent)*period))))
			}
			s.sent += int64(k)
			work = true
		}
		e.tick()
		if now >= until && !behind {
			return
		}
		if !e.progress(now, work) {
			runtime.Gosched()
		}
	}
}

// settle drains until every stream has its frames back or maxWait passes.
func (e *engine) settle(maxWait time.Duration) {
	deadline := e.clock() + int64(maxWait)
	for {
		now := e.clock()
		e.drainAll(now)
		pending := false
		for _, s := range e.streams {
			pending = pending || s.inflight > 0
		}
		if !pending || now > deadline {
			return
		}
		e.tick()
		runtime.Gosched()
	}
}
