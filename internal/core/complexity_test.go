package core

import (
	"math"
	"math/rand"
	"testing"
)

// These tests validate the paper's §4.4 analysis empirically: operation
// cost is O(h + k) with h the tree height and k the overlap count, heights
// stay logarithmic under treap priorities, and the Lemma 4.1 bound keeps
// the tree linear in the number of inserts.

func TestTreapHeightLogarithmic(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 13, 1 << 15} {
		tr := NewTree()
		for i := 0; i < n; i++ { // the last of 1<<15 ends at offset 65535, a tree's span exactly
			tr.InsertWrite(Interval{uint64(i) * 2, uint64(i)*2 + 1, int32(i)}, nil)
		}
		h := float64(tr.Height())
		bound := 4.3 * math.Log2(float64(n)) // E[h] ≈ 2.99·lg n for treaps
		if h > bound {
			t.Errorf("n=%d: height %.0f exceeds %.1f", n, h, bound)
		}
	}
}

func TestNodesVisitedPerOpTracksHeightPlusOverlaps(t *testing.T) {
	// Disjoint inserts: k = 0, so nodes/op must be O(lg n).
	tr := NewTree()
	const n = 1 << 14
	for i := 0; i < n; i++ {
		tr.InsertWrite(Interval{uint64(i) * 4, uint64(i)*4 + 2, int32(i)}, nil)
	}
	tr.ResetStats()
	for i := 0; i < 4096; i++ {
		s := uint64((i * 37) % n * 4)
		tr.Query(Interval{s, s + 2, 0}, nil)
	}
	st := tr.Stats()
	perOp := float64(st.NodesVisited) / float64(st.Ops)
	if bound := 4.5 * math.Log2(n); perOp > bound {
		t.Errorf("nodes/op %.1f exceeds %.1f for point queries on %d nodes", perOp, bound, n)
	}
	if st.Overlaps != uint64(st.Ops) {
		t.Errorf("point queries on full coverage: overlaps %d != ops %d", st.Overlaps, st.Ops)
	}
}

func TestOverlapsChargeToIntervalSize(t *testing.T) {
	// Theorem 4.1's amortization: an interval overlapping k stored
	// intervals has size >= k (stored intervals are disjoint and each
	// contributes >= 1 unit to the overlap range). Verify the accounting
	// on random workloads: overlaps per op never exceed the interval's
	// length plus one.
	rng := rand.New(rand.NewSource(9))
	tr := NewTree()
	for i := 0; i < 3000; i++ {
		s := rng.Uint64() % 25000
		length := uint64(rng.Intn(64) + 1)
		before := tr.Stats().Overlaps
		tr.InsertWrite(Interval{s, s + length, int32(i)}, nil)
		k := tr.Stats().Overlaps - before
		if k > length+2 {
			t.Fatalf("insert of %d words overlapped %d stored intervals", length, k)
		}
	}
}

func TestAmortizedLinearTotalSize(t *testing.T) {
	// Lemma 4.1 at scale: m inserts leave at most 2m+1 intervals, for both
	// trees, under adversarial gap-filling patterns.
	lo := func(a, b int32) bool { return a > b }
	rt := NewTree()
	m := 0
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 40; round++ {
		for i := 0; i < 20; i++ {
			s := uint64(rng.Intn(4000))
			rt.InsertRead(Interval{s, s + uint64(rng.Intn(8)+1), int32(10000 + m)}, lo, nil)
			m++
		}
		// Giant low-priority read forced to fill every gap.
		rt.InsertRead(Interval{0, 4100, int32(round)}, lo, nil)
		m++
		if rt.Size() > 2*m+1 {
			t.Fatalf("read tree size %d exceeds 2m+1 after %d inserts", rt.Size(), m)
		}
	}
}

func TestStableCostAcrossGrowth(t *testing.T) {
	// Figure 8's observation: nodes visited per op grows like lg n, i.e.
	// slowly; going from 2^10 to 2^14 intervals must not even double it.
	perOpAt := func(n int) float64 {
		tr := NewTree()
		for i := 0; i < n; i++ {
			tr.InsertWrite(Interval{uint64(i) * 4, uint64(i)*4 + 2, int32(i)}, nil)
		}
		tr.ResetStats()
		for i := 0; i < 2000; i++ {
			s := uint64((i * 613) % n * 4)
			tr.Query(Interval{s, s + 2, 0}, nil)
		}
		st := tr.Stats()
		return float64(st.NodesVisited) / float64(st.Ops)
	}
	small, large := perOpAt(1<<10), perOpAt(1<<14)
	if large > 2*small {
		t.Errorf("nodes/op grew from %.1f to %.1f across 16x growth; want sub-linear", small, large)
	}
}

func TestSortedRunCostsHeightPlusRun(t *testing.T) {
	// The finger's point: a strand's k address-sorted intervals on one tree
	// cost O(h + k) together, not k·O(h). fft's shape — exact-match re-reads
	// of every other stored interval of a 4096-node tree, whose neighbours
	// belong to another reader — must stay within a small constant per
	// interval, query and insert alike, where walking from the root pays the
	// depth (≈ 13) every time. The insert also looks at both neighbours of
	// the node it takes over, which could have its reader (6.5 measured).
	const n, k = 4096, 2048
	lo := func(a, b int32) bool { return a > b }
	tr := NewTree()
	for i := 0; i < n; i++ { // two alternating readers, so no two nodes merge
		tr.InsertRead(Interval{uint64(i) * 4, uint64(i)*4 + 4, int32(i % 2)}, lo, nil)
	}
	perOp := func(fromRoot bool, op func(x Interval)) float64 {
		tr.ResetStats()
		for i := 0; i < k; i++ {
			if fromRoot {
				tr.finger = 0
			}
			op(Interval{uint64(i) * 8, uint64(i)*8 + 4, 2})
		}
		st := tr.Stats()
		if st.Overlaps != k {
			t.Fatalf("exact-match run: %d overlaps, want %d", st.Overlaps, k)
		}
		return float64(st.NodesVisited) / k
	}
	read := func(x Interval) { tr.InsertRead(x, lo, nil) }
	query := func(x Interval) { tr.Query(x, nil) }
	for _, c := range []struct {
		name string
		op   func(x Interval)
	}{{"InsertRead", read}, {"Query", query}} {
		run, root := perOp(false, c.op), perOp(true, c.op)
		t.Logf("%s: %.2f nodes per interval over a sorted run, %.2f from the root", c.name, run, root)
		if run > 7 || run > root/2 {
			t.Errorf("%s: sorted run visits %.2f nodes per interval (%.2f from the root), want <= 7 and at most half", c.name, run, root)
		}
	}
}
