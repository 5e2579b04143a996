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

// TestAtCarvesUpToIndex: At addresses values by index, stable across
// growth, and Reset zeroes every value up to the highest index, while Get
// reads without carving.
func TestAtCarvesUpToIndex(t *testing.T) {
	var s Slab[rec]
	if s.Get(0) != nil {
		t.Fatal("Get on an empty slab returned a value")
	}
	p := s.At(3)
	p.a = 1
	s.At(2*chunkLen + 5).a = 2
	if s.At(3) != p || s.Get(3) != p || p.a != 1 {
		t.Fatal("At moved or lost a value")
	}
	if s.Get(3*chunkLen) != nil || s.Cap() != 3*chunkLen {
		t.Fatalf("Get past the chunks, or Cap %d, want nil and %d", s.Cap(), 3*chunkLen)
	}
	s.Reset()
	if p.a != 0 || s.Get(2*chunkLen+5).a != 0 {
		t.Fatal("Reset left values At carved")
	}
	if s.New() != s.Get(0) {
		t.Fatal("New after Reset did not start at the first value")
	}
}

// TestTrimFollowsTheLastRun: Trim keeps the chunks the values carved since
// the last Trim reached, across Resets in between, and drops the rest once
// they are more than twice that; a warm run of that size allocates nothing.
func TestTrimFollowsTheLastRun(t *testing.T) {
	var s Slab[rec]
	for i := 0; i < 10*chunkLen; i++ {
		s.New()
	}
	s.Trim()
	if s.Cap() != 10*chunkLen {
		t.Fatalf("Trim after the run that made them kept %d values, want %d", s.Cap(), 10*chunkLen)
	}
	s.At(2*chunkLen + 1) // three chunks, then two
	s.Reset()
	s.At(chunkLen)
	s.Trim()
	if s.Cap() != 3*chunkLen {
		t.Fatalf("Trim after a 3-chunk run kept %d values, want %d", s.Cap(), 3*chunkLen)
	}
	for i := 0; i < 5*chunkLen; i++ {
		s.New()
	}
	s.Trim()
	if s.Cap() != 5*chunkLen {
		t.Fatalf("Trim within twice the last run kept %d values, want %d", s.Cap(), 5*chunkLen)
	}
	run := func() {
		s.At(4*chunkLen + 9)
		s.Trim()
	}
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Fatalf("a warm indexed run cost %v allocations, want 0", n)
	}
}
