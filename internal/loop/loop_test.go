package loop

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestLoopTicksUntilStop(t *testing.T) {
	l := New()
	var ticks atomic.Int64
	l.Start(time.Millisecond, func() { ticks.Add(1) })
	deadline := time.Now().Add(5 * time.Second)
	for ticks.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("loop never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	l.Stop()
	after := ticks.Load()
	time.Sleep(10 * time.Millisecond)
	if got := ticks.Load(); got != after {
		t.Fatalf("ticked %d times after Stop returned", got-after)
	}
	l.Stop() // idempotent
	if !l.Stopping() {
		t.Fatal("Stopping false after Stop")
	}
}

func TestLoopStopWaitsForTick(t *testing.T) {
	l := New()
	entered := make(chan struct{})
	var finished atomic.Bool
	l.Start(time.Millisecond, func() {
		select {
		case <-entered:
		default:
			close(entered)
		}
		for !l.Stopping() {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(5 * time.Millisecond)
		finished.Store(true)
	})
	<-entered
	l.Stop()
	if !finished.Load() {
		t.Fatal("Stop returned before the tick in flight finished")
	}
}

func TestLoopStopWithoutRun(t *testing.T) {
	l := New()
	l.Stop()
	l.Stop()
	ran := false
	l.Run(time.Millisecond, func() { ran = true })
	if ran {
		t.Fatal("Run after Stop ticked")
	}
}
