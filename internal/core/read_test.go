package core

import (
	"fmt"
	"testing"
)

// Accessor ranks for read-tree tests: higher rank is left-of lower rank.
func leftOfByID() LeftOfFunc {
	// Larger ID wins; convenient for hand-built cases.
	return func(a, b int32) bool { return a > b }
}

func TestInsertReadIntoEmpty(t *testing.T) {
	tr := NewTree()
	o := newWordOracle()
	checkedRead(t, tr, o, Interval{10, 20, 1}, leftOfByID())
}

func TestInsertReadCaseA(t *testing.T) {
	tr := NewTree()
	o := newWordOracle()
	lo := leftOfByID()
	for _, iv := range []Interval{{40, 50, 1}, {10, 20, 2}, {60, 70, 3}, {0, 5, 4}} {
		checkedRead(t, tr, o, iv, lo)
	}
	if tr.Size() != 4 {
		t.Fatalf("Size() = %d, want 4", tr.Size())
	}
}

func TestInsertReadCaseB_NewWins(t *testing.T) {
	tr := NewTree()
	o := newWordOracle()
	lo := leftOfByID()
	checkedRead(t, tr, o, Interval{10, 20, 1}, lo)
	checkedRead(t, tr, o, Interval{15, 30, 2}, lo) // 2 is left-of 1
	ivs := intervals(tr)
	want := []Interval{{10, 15, 1}, {15, 30, 2}}
	if len(ivs) != 2 || ivs[0] != want[0] || ivs[1] != want[1] {
		t.Fatalf("contents = %v, want %v", ivs, want)
	}
}

func TestInsertReadCaseB_OldWins(t *testing.T) {
	tr := NewTree()
	o := newWordOracle()
	lo := leftOfByID()
	checkedRead(t, tr, o, Interval{10, 20, 5}, lo)
	checkedRead(t, tr, o, Interval{15, 30, 2}, lo) // 5 stays left-of 2
	ivs := intervals(tr)
	want := []Interval{{10, 20, 5}, {20, 30, 2}}
	if len(ivs) != 2 || ivs[0] != want[0] || ivs[1] != want[1] {
		t.Fatalf("contents = %v, want %v", ivs, want)
	}
}

func TestInsertReadCaseB_LeftSideBothOutcomes(t *testing.T) {
	lo := leftOfByID()
	// New wins on the left overlap.
	tr := NewTree()
	o := newWordOracle()
	checkedRead(t, tr, o, Interval{10, 20, 1}, lo)
	checkedRead(t, tr, o, Interval{5, 15, 9}, lo)
	ivs := intervals(tr)
	want := []Interval{{5, 15, 9}, {15, 20, 1}}
	if len(ivs) != 2 || ivs[0] != want[0] || ivs[1] != want[1] {
		t.Fatalf("new-wins contents = %v, want %v", ivs, want)
	}
	// Old wins on the left overlap.
	tr = NewTree()
	o = newWordOracle()
	checkedRead(t, tr, o, Interval{10, 20, 9}, lo)
	checkedRead(t, tr, o, Interval{5, 15, 1}, lo)
	ivs = intervals(tr)
	want = []Interval{{5, 10, 1}, {10, 20, 9}}
	if len(ivs) != 2 || ivs[0] != want[0] || ivs[1] != want[1] {
		t.Fatalf("old-wins contents = %v, want %v", ivs, want)
	}
}

func TestInsertReadCaseC_NewWinsSplits(t *testing.T) {
	tr := NewTree()
	o := newWordOracle()
	lo := leftOfByID()
	checkedRead(t, tr, o, Interval{10, 40, 1}, lo)
	checkedRead(t, tr, o, Interval{20, 30, 2}, lo)
	ivs := intervals(tr)
	want := []Interval{{10, 20, 1}, {20, 30, 2}, {30, 40, 1}}
	if len(ivs) != 3 || ivs[0] != want[0] || ivs[1] != want[1] || ivs[2] != want[2] {
		t.Fatalf("contents = %v, want %v", ivs, want)
	}
}

func TestInsertReadCaseC_OldWinsUnchanged(t *testing.T) {
	tr := NewTree()
	o := newWordOracle()
	lo := leftOfByID()
	checkedRead(t, tr, o, Interval{10, 40, 5}, lo)
	checkedRead(t, tr, o, Interval{20, 30, 2}, lo)
	ivs := intervals(tr)
	if len(ivs) != 1 || ivs[0] != (Interval{10, 40, 5}) {
		t.Fatalf("contents = %v, want untouched [10,40)@5", ivs)
	}
}

func TestInsertReadCaseD_NewWins(t *testing.T) {
	tr := NewTree()
	o := newWordOracle()
	lo := leftOfByID()
	checkedRead(t, tr, o, Interval{20, 30, 1}, lo)
	checkedRead(t, tr, o, Interval{10, 40, 2}, lo)
	// 2 wins everywhere, and takes the covered node over: one node.
	if ivs := intervals(tr); len(ivs) != 1 || ivs[0] != (Interval{10, 40, 2}) {
		t.Fatalf("contents = %v, want [10,40)@2", ivs)
	}
}

func TestInsertReadCaseD_OldWinsMiddle(t *testing.T) {
	tr := NewTree()
	o := newWordOracle()
	lo := leftOfByID()
	checkedRead(t, tr, o, Interval{20, 30, 5}, lo)
	checkedRead(t, tr, o, Interval{10, 40, 2}, lo)
	ivs := intervals(tr)
	want := []Interval{{10, 20, 2}, {20, 30, 5}, {30, 40, 2}}
	if len(ivs) != 3 || ivs[0] != want[0] || ivs[1] != want[1] || ivs[2] != want[2] {
		t.Fatalf("contents = %v, want %v", ivs, want)
	}
}

func TestInsertReadPaperWorkedExample(t *testing.T) {
	// §4 intro: reads [8,16,a], [24,32,b], [40,52,c], [52,60,d]; new read
	// [12,56,e] where e is left-of a and c but not b and d. Result must
	// project to [8,12,a], [12,24,e], [24,32,b], [32,52,e], [52,60,d].
	const a, b, c, d, e = 1, 2, 3, 4, 5
	rank := map[int32]int{a: 0, b: 9, c: 1, d: 8, e: 5} // e beats a,c; loses to b,d
	lo := rankLeftOf(rank)
	tr := NewTree()
	o := newWordOracle()
	for _, iv := range []Interval{{8, 16, a}, {24, 32, b}, {40, 52, c}, {52, 60, d}} {
		checkedRead(t, tr, o, iv, lo)
	}
	checkedRead(t, tr, o, Interval{12, 56, e}, lo)
	wantOwner := func(bt uint64) int32 {
		switch {
		case bt >= 8 && bt < 12:
			return a
		case bt >= 12 && bt < 24:
			return e
		case bt >= 24 && bt < 32:
			return b
		case bt >= 32 && bt < 52:
			return e
		case bt >= 52 && bt < 60:
			return d
		}
		return -1
	}
	for bt := uint64(8); bt < 60; bt++ {
		if o.bytes[bt] != wantOwner(bt) {
			t.Fatalf("byte %d owned by %d, want %d", bt, o.bytes[bt], wantOwner(bt))
		}
	}
}

func TestInsertReadLemmaGapFilling(t *testing.T) {
	// Lemma 4.1's example: [1,2,a], [3,4,b], [5,6,c], then read [0,7,d)
	// where a,b,c are all left-of d: d only fills the gaps.
	const a, b, c, d = 10, 11, 12, 1
	lo := leftOfByID() // a,b,c > d, so they all stay
	tr := NewTree()
	o := newWordOracle()
	for _, iv := range []Interval{{1, 2, a}, {3, 4, b}, {5, 6, c}} {
		checkedRead(t, tr, o, iv, lo)
	}
	checkedRead(t, tr, o, Interval{0, 7, d}, lo)
	ivs := intervals(tr)
	want := []Interval{{0, 1, d}, {1, 2, a}, {2, 3, d}, {3, 4, b}, {4, 5, d}, {5, 6, c}, {6, 7, d}}
	if len(ivs) != len(want) {
		t.Fatalf("contents = %v, want %v", ivs, want)
	}
	for i := range want {
		if ivs[i] != want[i] {
			t.Fatalf("contents[%d] = %v, want %v (full: %v)", i, ivs[i], want[i], ivs)
		}
	}
}

func TestInsertReadSizeBound(t *testing.T) {
	// Lemma 4.1: intervals + gaps grow by at most 2 per insert, so after m
	// inserts the tree holds at most 2m+1 intervals — even with the
	// gap-filling worst case. checkedRead holds it to the exact figure: one
	// node per maximal run of the projection.
	tr := NewTree()
	o := newWordOracle()
	lo := leftOfByID()
	m := 0
	// Adversarial: alternate small scattered reads with huge covering reads
	// by a weaker accessor (forced to fill gaps).
	for round := 0; round < 8; round++ {
		for i := 0; i < 6; i++ {
			s := uint64(round*100 + i*15)
			checkedRead(t, tr, o, Interval{s, s + 4, int32(1000 + round*10 + i)}, lo)
			m++
			if tr.Size() > 2*m+1 {
				t.Fatalf("size %d exceeds 2m+1 after %d inserts", tr.Size(), m)
			}
		}
		checkedRead(t, tr, o, Interval{0, uint64(round*100 + 100), int32(round)}, lo)
		m++
		if tr.Size() > 2*m+1 {
			t.Fatalf("size %d exceeds 2m+1 after %d inserts", tr.Size(), m)
		}
	}
}

// TestCoveringReadAbsorbsFragments: a read that beats every fragment it
// covers leaves one node — not the fragments relabelled plus a node per gap —
// and the nodes it took over go back to the pool's free list.
func TestCoveringReadAbsorbsFragments(t *testing.T) {
	const n = 64
	tr := NewTree()
	o := newWordOracle()
	lo := leftOfByID()
	for i := uint64(0); i < n; i++ {
		checkedRead(t, tr, o, Interval{10*i + 3, 10*i + 7, int32(1 + i%5)}, lo)
	}
	free := tr.pool.Stats().Free
	checkedRead(t, tr, o, Interval{0, 10 * n, 100}, lo)
	if ivs := intervals(tr); len(ivs) != 1 || ivs[0] != (Interval{0, 10 * n, 100}) {
		t.Fatalf("contents = %v, want the one run [0,%d)@100", ivs, 10*n)
	}
	if got := tr.pool.Stats().Free - free; got != n-1 {
		t.Fatalf("%d nodes went back to the pool, want %d", got, n-1)
	}
}

// TestInsertReadJoinsTouchingNodes: what x holds joins the nodes of its own
// reader that touch it — before it, after it, or both — and the nodes it
// takes over, while a node x loses to still splits it.
func TestInsertReadJoinsTouchingNodes(t *testing.T) {
	for _, c := range []struct {
		name   string
		stored []Interval
		x      Interval
		want   []Interval
	}{
		{"before", []Interval{{0, 10, 7}}, Interval{10, 20, 7}, []Interval{{0, 20, 7}}},
		{"after", []Interval{{20, 30, 7}}, Interval{10, 20, 7}, []Interval{{10, 30, 7}}},
		{"bridge", []Interval{{0, 10, 7}, {20, 30, 7}}, Interval{10, 20, 7},
			[]Interval{{0, 30, 7}}},
		{"takes over, joins both", []Interval{{0, 10, 9}, {10, 20, 1}, {20, 30, 9}}, Interval{10, 20, 9},
			[]Interval{{0, 30, 9}}},
		{"trims, joins before", []Interval{{0, 10, 9}, {10, 30, 1}}, Interval{10, 20, 9},
			[]Interval{{0, 20, 9}, {20, 30, 1}}},
		{"loses, joins around", []Interval{{0, 10, 5}, {12, 14, 8}, {20, 30, 5}}, Interval{10, 20, 5},
			[]Interval{{0, 12, 5}, {12, 14, 8}, {14, 30, 5}}},
	} {
		tr := NewTree()
		o := newWordOracle()
		for _, iv := range c.stored {
			checkedRead(t, tr, o, iv, leftOfByID())
		}
		checkedRead(t, tr, o, c.x, leftOfByID())
		if got := intervals(tr); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: contents = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestInsertReadPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty interval")
		}
	}()
	NewTree().InsertRead(Interval{5, 5, 1}, leftOfByID(), nil)
}
