package coalesce

import (
	"math/rand"
	"testing"
)

// TestFlushCyclesMatchNaive runs many strand rounds — random ranges, then a
// Flush — over one BitSet, comparing every round's intervals against a
// fresh naive reference. This is the equivalence test for the open-addressed
// directory across growth, whole-directory Reset at flush time, and page
// reuse off the freelist.
func TestFlushCyclesMatchNaive(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := New()
		for round := 0; round < 50; round++ {
			n := naiveSet{}
			for i := 0; i < 40; i++ {
				// Drift the base so different rounds live on different
				// pages, forcing retired pages to be reused under new
				// page indices.
				base := uint64(round) << 15
				addr := (base + rng.Uint64()%(1<<19)) &^ 3
				size := uint64(rng.Intn(1024)) &^ 3
				b.SetRange(addr, size)
				n.setRange(addr, size)
			}
			ivs, words := flushAll(b)
			compare(t, ivs, n.intervals())
			if words != uint64(len(n)) {
				t.Fatalf("seed %d round %d: words = %d, want %d", seed, round, words, len(n))
			}
			if again, w := flushAll(b); len(again) != 0 || w != 0 {
				t.Fatalf("seed %d round %d: flush left %d intervals (%d words) behind", seed, round, len(again), w)
			}
		}
	}
}

// TestFlushReusesPages pins the freelist behavior: a second strand with the
// same footprint must be served entirely from retired pages.
func TestFlushReusesPages(t *testing.T) {
	b := New()
	b.SetRange(0x00000, 64)
	b.SetRange(0x10000, 64)
	b.SetRange(0x20000, 64)
	flushAll(b)
	if b.Pages() != 3 {
		t.Fatalf("allocated %d pages, want 3", b.Pages())
	}
	// Different page indices, same footprint: no new allocations.
	b.SetRange(0x30000, 64)
	b.SetRange(0x40000, 64)
	b.SetRange(0x50000, 64)
	ivs, _ := flushAll(b)
	compare(t, ivs, [][2]uint64{{0x30000, 64}, {0x40000, 64}, {0x50000, 64}})
	if b.Pages() != 3 {
		t.Fatalf("second strand allocated new pages: %d total, want 3", b.Pages())
	}
}

// TestSortOrdered covers both the insertion-sort (≤8) and slices.Sort paths.
func TestSortOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 7, 8, 9, 64, 500} {
		s := make([]uint64, n)
		for i := range s {
			s[i] = rng.Uint64() % 1000
		}
		sortOrdered(s)
		for i := 1; i < len(s); i++ {
			if s[i-1] > s[i] {
				t.Fatalf("n=%d: not sorted at %d: %v", n, i, s)
			}
		}
	}
}
