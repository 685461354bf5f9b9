// Package loop is the control plane's one periodic-loop primitive: a
// ticker-driven goroutine with an idempotent, waiting Stop. The datapath
// balancer, the cluster reconciler and the placement rebalancer run on it.
package loop

import (
	"sync"
	"sync/atomic"
	"time"
)

// Loop runs one tick function every interval until stopped. Build it with
// New; a Loop runs at most once.
type Loop struct {
	stop, done chan struct{}
	stopOnce   sync.Once
	running    atomic.Bool
}

// New returns a loop that is not yet running.
func New() *Loop { return &Loop{stop: make(chan struct{}), done: make(chan struct{})} }

// Start runs the loop on a new goroutine; Stop waits for it from the moment
// Start returns.
func (l *Loop) Start(interval time.Duration, tick func()) {
	l.running.Store(true)
	go l.Run(interval, tick)
}

// Run calls tick every interval on the calling goroutine until Stop. No tick
// starts once Stop has been called.
func (l *Loop) Run(interval time.Duration, tick func()) {
	l.running.Store(true)
	defer close(l.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			if l.Stopping() {
				return
			}
			tick()
		}
	}
}

// Stopping reports whether the loop was told to stop; a long tick polls it
// to abandon its remaining work.
func (l *Loop) Stopping() bool {
	select {
	case <-l.stop:
		return true
	default:
		return false
	}
}

// Signal tells the loop to stop without waiting for it. Idempotent.
func (l *Loop) Signal() { l.stopOnce.Do(func() { close(l.stop) }) }

// Stop signals the loop and, if it was started, waits for the tick in flight
// and the loop to finish. Idempotent, and safe on a loop that never ran.
func (l *Loop) Stop() {
	l.Signal()
	if l.running.Load() {
		<-l.done
	}
}
