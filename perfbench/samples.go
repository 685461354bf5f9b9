package main

import (
	"fmt"
	"math"
	"slices"
	"syscall"
	"unsafe"
)

// samples records one value per event (a frame's latency in ns) so that
// quantiles are exact. The store lives outside the Go heap — a lazily
// backed anonymous mapping — so the heap_mb metric reads the program's
// heap and not the benchmark's record.
type samples struct {
	mem      []byte
	xs       []uint32
	overflow uint64 // values not stored because the mapping was full
}

// newSamples reserves room for up to n values; pages are only backed as
// they are written.
func newSamples(n int) (*samples, error) {
	if n < 1 {
		n = 1
	}
	mem, err := syscall.Mmap(-1, 0, n*4, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("map sample store of %d values: %w", n, err)
	}
	xs := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n)
	return &samples{mem: mem, xs: xs[:0:n]}, nil
}

func (s *samples) add(v uint32) {
	if len(s.xs) == cap(s.xs) {
		s.overflow++
		return
	}
	s.xs = append(s.xs, v)
}

func (s *samples) count() int { return len(s.xs) }

func (s *samples) reset() { s.xs = s.xs[:0]; s.overflow = 0 }

func (s *samples) free() {
	if s.mem != nil {
		_ = syscall.Munmap(s.mem) // the process keeps running either way
		s.mem, s.xs = nil, nil
	}
}

// quantiles returns the nearest-rank q-quantiles of the recorded values,
// sorting the store in place.
func (s *samples) quantiles(qs ...float64) []uint32 {
	slices.Sort(s.xs)
	out := make([]uint32, len(qs))
	for i, q := range qs {
		out[i] = nearestRank(s.xs, q)
	}
	return out
}

// nearestRank returns the q-quantile of sorted by the nearest-rank rule: the
// smallest value with at least a share q of all values at or below it, i.e.
// sorted[ceil(q·n)-1]. Zero for an empty slice.
func nearestRank(sorted []uint32, q float64) uint32 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon keeps q·n from rounding up past an exact integer rank
	// (0.99·100 must give rank 99, not 100).
	r := int(math.Ceil(q*float64(n) - 1e-9))
	r = min(max(r, 1), n)
	return sorted[r-1]
}
