package main

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// oracleRank is nearest rank by its definition: the smallest recorded value
// with at least permille/1000 of all values at or below it.
func oracleRank(xs []uint32, permille int) uint32 {
	s := slices.Clone(xs)
	slices.Sort(s)
	for _, v := range s {
		atOrBelow := 0
		for _, x := range s {
			if x <= v {
				atOrBelow++
			}
		}
		if atOrBelow*1000 >= permille*len(s) {
			return v
		}
	}
	return s[len(s)-1]
}

func TestQuantilesMatchSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 2047} {
		xs := make([]uint32, n)
		for i := range xs {
			// Few distinct values, so ties are common.
			xs[i] = uint32(rng.IntN(n/3 + 2))
		}
		s, err := newSamples(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range xs {
			s.add(x)
		}
		permilles := []int{1, 10, 250, 500, 900, 990, 999, 1000}
		qs := make([]float64, len(permilles))
		for i, p := range permilles {
			qs[i] = float64(p) / 1000
		}
		got := s.quantiles(qs...)
		for i, p := range permilles {
			if want := oracleRank(xs, p); got[i] != want {
				t.Errorf("n=%d q=%v: got %d, want %d", n, qs[i], got[i], want)
			}
		}
		s.free()
	}
}

func TestSamplesCountOverflow(t *testing.T) {
	s, err := newSamples(4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.free()
	for i := range 6 {
		s.add(uint32(i))
	}
	if s.count() != 4 || s.overflow != 2 {
		t.Errorf("count %d, overflow %d; want 4 and 2", s.count(), s.overflow)
	}
	s.reset()
	if s.count() != 0 || s.overflow != 0 {
		t.Errorf("after reset: count %d, overflow %d", s.count(), s.overflow)
	}
}
