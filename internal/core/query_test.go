package core

import "testing"

func TestQueryEmptyTree(t *testing.T) {
	tr := NewTree()
	tr.Query(Interval{0, 100, 1}, func(acc int32, lo, hi uint64) {
		t.Fatal("overlap reported on empty tree")
	})
}

func TestQueryNoOverlap(t *testing.T) {
	tr := NewTree()
	o := newWordOracle()
	checkedWrite(t, tr, o, Interval{10, 20, 1})
	checkedWrite(t, tr, o, Interval{40, 50, 2})
	checkedQuery(t, tr, o, Interval{20, 40, 9}) // exactly the gap, touching both
	checkedQuery(t, tr, o, Interval{0, 10, 9})
	checkedQuery(t, tr, o, Interval{50, 60, 9})
}

func TestQuerySingleAndMultiOverlap(t *testing.T) {
	tr := NewTree()
	o := newWordOracle()
	for i := 0; i < 10; i++ {
		checkedWrite(t, tr, o, Interval{uint64(i * 20), uint64(i*20 + 10), int32(i)})
	}
	checkedQuery(t, tr, o, Interval{5, 8, 99})    // inside one interval
	checkedQuery(t, tr, o, Interval{15, 45, 99})  // spans two
	checkedQuery(t, tr, o, Interval{0, 200, 99})  // spans all
	checkedQuery(t, tr, o, Interval{95, 125, 99}) // straddles a gap
}

func TestQueryBoundaryClipping(t *testing.T) {
	tr := NewTree()
	tr.InsertWrite(Interval{10, 30, 7}, nil)
	var lo, hi uint64
	calls := 0
	tr.Query(Interval{5, 15, 0}, func(acc int32, l, h uint64) { calls++; lo, hi = l, h })
	if calls != 1 || lo != 10 || hi != 15 {
		t.Fatalf("query clip = [%d,%d) in %d calls, want [10,15) once", lo, hi, calls)
	}
}

func TestQueryCountsStats(t *testing.T) {
	tr := NewTree()
	tr.InsertWrite(Interval{0, 10, 1}, nil)
	tr.InsertWrite(Interval{20, 30, 2}, nil)
	tr.ResetStats()
	tr.Query(Interval{5, 25, 0}, nil)
	st := tr.Stats()
	if st.Ops != 1 {
		t.Fatalf("Ops = %d, want 1", st.Ops)
	}
	if st.Overlaps != 2 {
		t.Fatalf("Overlaps = %d, want 2", st.Overlaps)
	}
	if st.NodesVisited == 0 {
		t.Fatal("NodesVisited = 0, want > 0")
	}
}

func TestHeightBalancedVsUnbalanced(t *testing.T) {
	// Sequential (sorted) inserts would make a plain BST a path of height
	// n; the treap stays logarithmic.
	const n = 4096
	bal := NewTree()
	for i := 0; i < n; i++ {
		bal.InsertWrite(Interval{uint64(i * 10), uint64(i*10 + 5), int32(i)}, nil)
	}
	bal.checkInvariants()
	if h := bal.Height(); h > 60 {
		t.Errorf("treap height %d is not logarithmic for n=%d", h, n)
	}
}

func TestWalkOrdered(t *testing.T) {
	tr := NewTree()
	o := newWordOracle()
	for _, s := range []uint64{50, 10, 90, 30, 70, 20, 80} {
		checkedWrite(t, tr, o, Interval{s, s + 5, int32(s)})
	}
	starts := sortedStarts(tr)
	var prev uint64
	first := true
	tr.Walk(func(iv Interval) {
		if !first && iv.Start < prev {
			t.Fatal("Walk not in address order")
		}
		prev = iv.Start
		first = false
	})
	if len(starts) != 7 {
		t.Fatalf("got %d intervals, want 7", len(starts))
	}
}
