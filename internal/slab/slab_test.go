package slab

import "testing"

type rec struct {
	a, b int
	p    *rec
}

// TestResetZeroesAcrossChunks: after a Reset, values carved again — past a
// chunk boundary too — read zero, whatever the last run wrote into them.
func TestResetZeroesAcrossChunks(t *testing.T) {
	var s Slab[rec]
	const n = 2*chunkLen + 7
	for i := 0; i < n; i++ {
		r := s.New()
		r.a, r.b, r.p = i+1, -i, r
	}
	s.Reset()
	for i := 0; i < n+chunkLen; i++ {
		if r := s.New(); *r != (rec{}) {
			t.Fatalf("value %d after Reset = %+v, want zero", i, *r)
		}
	}
}

// TestPointersStable: a value New returned keeps its address and contents
// while later News grow the slab by many chunks.
func TestPointersStable(t *testing.T) {
	var s Slab[rec]
	var got []*rec
	for i := 0; i < 5*chunkLen; i++ {
		r := s.New()
		r.a = i
		for _, q := range got {
			if q == r {
				t.Fatalf("New %d returned a pointer handed out before", i)
			}
		}
		got = append(got, r)
	}
	for i, r := range got {
		if r.a != i {
			t.Fatalf("value %d reads %d after growth", i, r.a)
		}
	}
}

// TestWarmRefillAllocatesNothing: once a run has made its chunks, Reset and
// the same run again cost no allocation.
func TestWarmRefillAllocatesNothing(t *testing.T) {
	var s Slab[rec]
	run := func() {
		s.Reset()
		for i := 0; i < 3*chunkLen+1; i++ {
			s.New().a = i
		}
	}
	run()
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Fatalf("a warm refill cost %v allocations, want 0", n)
	}
}
