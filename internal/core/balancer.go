package core

import (
	"sync/atomic"
	"time"

	"ovshighway/internal/loop"
	"ovshighway/internal/vswitch"
)

// BalancerConfig parametrizes a Balancer. Zero values take defaults.
type BalancerConfig struct {
	// Interval is the sampling period: each tick takes one load sample and,
	// if the spread is past threshold, performs one rebalance step. Default
	// 100ms (OVS's pmd-auto-lb rebalances on the same sampled-window
	// principle, just over longer windows).
	Interval time.Duration
	// SpreadThreshold is the max(busy)−min(busy) per-PMD busy-fraction gap
	// that triggers a rebalance. Default 0.2 — the acceptance bound: loads
	// inside the bound are "balanced" and moving queues would only churn
	// caches for nothing.
	SpreadThreshold float64
	// MinBusy is the minimum busy fraction of the hottest PMD for a
	// rebalance to be worth it: an idle datapath always has "infinite"
	// relative spread but nothing to gain from moving queues. Default 0.02.
	MinBusy float64
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

func (c *BalancerConfig) fill() {
	if c.Interval == 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.SpreadThreshold == 0 {
		c.SpreadThreshold = 0.2
	}
	if c.MinBusy == 0 {
		c.MinBusy = 0.02
	}
}

// BalancerStats are the balancer's lifetime counters (diagnostic).
type BalancerStats struct {
	// Samples is the number of completed sampling windows.
	Samples uint64
	// Rebalances is the number of windows that triggered at least one move.
	Rebalances uint64
	// Moves is the total number of queue re-homings performed.
	Moves uint64
}

// Balancer is the datapath auto-balancer: the revival of the core package's
// "watch the switch, react at run time" pattern pointed at load instead of
// rules. It samples every PMD's busy fraction over its interval (windowed
// via PMDLoad.Delta, so only the last interval counts), and when the
// hottest-to-coldest gap exceeds the threshold it re-homes the cheapest
// queues off the hottest PMD onto the coldest one using the switch's
// quiesce-then-move protocol — per-flow ordering is never at risk, and the
// moved flows simply warm the destination PMD's caches (generation checks
// keep any stale entry from serving).
type Balancer struct {
	sw  *vswitch.Switch
	cfg BalancerConfig

	prevPMDs   []vswitch.PMDLoad
	prevQueues []vswitch.QueueLoad

	samples    atomic.Uint64
	rebalances atomic.Uint64
	moves      atomic.Uint64

	loop *loop.Loop
}

// NewBalancer builds a balancer over sw. Call Run (usually in a goroutine)
// to start sampling, or drive it deterministically with RebalanceOnce.
func NewBalancer(sw *vswitch.Switch, cfg BalancerConfig) *Balancer {
	cfg.fill()
	return &Balancer{sw: sw, cfg: cfg, loop: loop.New()}
}

// Run samples until Stop. Intended as a goroutine; at most one Run per
// balancer.
func (b *Balancer) Run() {
	b.loop.Run(b.cfg.Interval, func() { b.RebalanceOnce() })
}

// Stop halts Run and waits for it. Safe to call multiple times and on a
// balancer that was never Run (the caller must have ordered Run before Stop
// if it started one).
func (b *Balancer) Stop() { b.loop.Stop() }

// Stats returns the lifetime counters.
func (b *Balancer) Stats() BalancerStats {
	return BalancerStats{
		Samples:    b.samples.Load(),
		Rebalances: b.rebalances.Load(),
		Moves:      b.moves.Load(),
	}
}

// RebalanceOnce closes one sampling window and performs at most one
// rebalance step (a small batch of moves hot→cold). It returns the number
// of queues moved. The first call only primes the window. Exported so tests
// and experiments can drive convergence deterministically without the
// ticker.
func (b *Balancer) RebalanceOnce() int {
	pmds := b.sw.PMDLoads()
	queues := b.sw.QueueLoads()
	prevP, prevQ := b.prevPMDs, b.prevQueues
	b.prevPMDs, b.prevQueues = pmds, queues
	if prevP == nil || len(pmds) < 2 {
		return 0
	}
	b.samples.Add(1)

	// Windowed busy fractions for this interval.
	frac := make([]float64, len(pmds))
	var hot, cold int
	for i, l := range pmds {
		if i < len(prevP) {
			l = l.Delta(prevP[i])
		}
		frac[i] = l.BusyFraction()
		if frac[i] > frac[hot] {
			hot = i
		}
		if frac[i] < frac[cold] {
			cold = i
		}
	}
	gap := frac[hot] - frac[cold]
	if gap < b.cfg.SpreadThreshold || frac[hot] < b.cfg.MinBusy {
		return 0
	}

	// Candidate queues: everything homed on the hot PMD, with this window's
	// busy time as cost. The hot PMD must keep at least one queue.
	type cand struct {
		port uint32
		qid  int
		busy uint64
	}
	prevQBy := make(map[[2]uint64]uint64, len(prevQ))
	for _, l := range prevQ {
		prevQBy[[2]uint64{uint64(l.Port), uint64(l.Queue)}] = l.BusyNanos
	}
	var cands []cand
	var hotTotal uint64
	for _, l := range queues {
		if l.PMD != hot {
			continue
		}
		busy := l.BusyNanos
		if p, ok := prevQBy[[2]uint64{uint64(l.Port), uint64(l.Queue)}]; ok && busy >= p {
			busy -= p
		}
		cands = append(cands, cand{port: l.Port, qid: l.Queue, busy: busy})
		hotTotal += busy
	}
	if len(cands) < 2 {
		return 0 // a single hot queue cannot be split; moving it just swaps roles
	}

	// Cheapest-first moves, stopping once roughly half the gap's worth of
	// busy time has been re-homed: moving more would overshoot and oscillate.
	// Window total nanos approximates the hot PMD's measured wall time.
	var hotWindow uint64
	if hot < len(prevP) {
		hotWindow = pmds[hot].Delta(prevP[hot]).TotalNanos
	} else {
		hotWindow = pmds[hot].TotalNanos
	}
	gapNanos := uint64(gap / 2 * float64(hotWindow))
	// Sort ascending by busy (insertion sort: candidate lists are tiny).
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].busy < cands[j-1].busy; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	maxMoves := len(cands) / 2
	if maxMoves < 1 {
		maxMoves = 1
	}
	moved := 0
	var movedBusy uint64
	for _, c := range cands {
		if moved >= maxMoves {
			break
		}
		if moved > 0 && movedBusy >= gapNanos {
			break
		}
		if err := b.sw.MoveQueue(c.port, c.qid, cold); err != nil {
			if b.cfg.Logf != nil {
				b.cfg.Logf("balancer: move port %d q %d → pmd %d: %v", c.port, c.qid, cold, err)
			}
			continue
		}
		moved++
		movedBusy += c.busy
	}
	if moved > 0 {
		b.rebalances.Add(1)
		b.moves.Add(uint64(moved))
		if b.cfg.Logf != nil {
			b.cfg.Logf("balancer: moved %d queue(s) pmd %d → pmd %d (gap %.2f)", moved, hot, cold, gap)
		}
	}
	return moved
}
