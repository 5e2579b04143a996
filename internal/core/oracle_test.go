package core

import (
	"fmt"
	"sort"
	"testing"
)

// wordOracle is the ground-truth model of one access-history tree: a flat
// map from byte address to accessor. Projecting the interval tree onto
// bytes must always match it exactly.
type wordOracle struct {
	bytes map[uint64]int32
}

func newWordOracle() *wordOracle { return &wordOracle{bytes: make(map[uint64]int32)} }

// overlapSet flattens OverlapFunc callbacks into (address, accessor) pairs
// and rejects double reports of the same byte within one operation.
type overlapSet struct {
	t     *testing.T
	pairs map[string]bool
	seen  map[uint64]bool
}

func newOverlapSet(t *testing.T) *overlapSet {
	return &overlapSet{t: t, pairs: make(map[string]bool), seen: make(map[uint64]bool)}
}

func (os *overlapSet) fn(acc int32, lo, hi uint64) {
	if lo >= hi {
		os.t.Fatalf("overlap callback with empty range [%d,%d)", lo, hi)
	}
	for b := lo; b < hi; b++ {
		if os.seen[b] {
			os.t.Fatalf("byte %d reported as overlapping twice in one operation", b)
		}
		os.seen[b] = true
		os.pairs[fmt.Sprintf("%d@%d", b, acc)] = true
	}
}

// expectedOverlaps returns the pairs the oracle predicts for interval x.
func (o *wordOracle) expectedOverlaps(x Interval) map[string]bool {
	want := make(map[string]bool)
	for b := x.Start; b < x.End; b++ {
		if acc, ok := o.bytes[b]; ok {
			want[fmt.Sprintf("%d@%d", b, acc)] = true
		}
	}
	return want
}

func comparePairSets(t *testing.T, ctx string, got, want map[string]bool) {
	t.Helper()
	for p := range want {
		if !got[p] {
			t.Fatalf("%s: missing overlap pair %s", ctx, p)
		}
	}
	for p := range got {
		if !want[p] {
			t.Fatalf("%s: unexpected overlap pair %s", ctx, p)
		}
	}
}

func (o *wordOracle) applyWrite(x Interval) {
	for b := x.Start; b < x.End; b++ {
		o.bytes[b] = x.Acc
	}
}

func (o *wordOracle) applyRead(x Interval, leftOf LeftOfFunc) {
	for b := x.Start; b < x.End; b++ {
		if old, ok := o.bytes[b]; !ok || leftOf(x.Acc, old) {
			o.bytes[b] = x.Acc
		}
	}
}

// project expands the tree to a byte map.
func project(tr *Tree) map[uint64]int32 {
	m := make(map[uint64]int32)
	tr.Walk(func(iv Interval) {
		for b := iv.Start; b < iv.End; b++ {
			m[b] = iv.Acc
		}
	})
	return m
}

func compareProjection(t *testing.T, ctx string, tr *Tree, o *wordOracle) {
	t.Helper()
	got := project(tr)
	if len(got) != len(o.bytes) {
		t.Fatalf("%s: tree covers %d bytes, oracle %d\n tree: %s", ctx, len(got), len(o.bytes), dump(tr))
	}
	for b, acc := range o.bytes {
		if got[b] != acc {
			t.Fatalf("%s: byte %d has accessor %d, oracle says %d\n tree: %s", ctx, b, got[b], acc, dump(tr))
		}
	}
}

func dump(tr *Tree) string {
	var ivs []Interval
	tr.Walk(func(iv Interval) { ivs = append(ivs, iv) })
	return fmt.Sprint(ivs)
}

// intervals reads the tree's contents in address order.
func intervals(tr *Tree) []Interval {
	var ivs []Interval
	tr.Walk(func(iv Interval) { ivs = append(ivs, iv) })
	return ivs
}

// checkedWrite runs InsertWrite, validating overlaps against the oracle and
// updating the oracle.
func checkedWrite(t *testing.T, tr *Tree, o *wordOracle, x Interval) {
	t.Helper()
	os := newOverlapSet(t)
	want := o.expectedOverlaps(x)
	tr.InsertWrite(x, os.fn)
	tr.checkInvariants()
	comparePairSets(t, fmt.Sprintf("InsertWrite(%v)", x), os.pairs, want)
	o.applyWrite(x)
	compareProjection(t, fmt.Sprintf("after InsertWrite(%v)", x), tr, o)
}

// runs counts the oracle's maximal runs — contiguous positions with one
// accessor — which is exactly how many nodes a maximal read tree holds.
func (o *wordOracle) runs() int {
	n := 0
	for b, acc := range o.bytes {
		if prev, ok := o.bytes[b-1]; b == 0 || !ok || prev != acc {
			n++
		}
	}
	return n
}

// compareRuns asserts that a read tree holds one node per maximal run of the
// oracle: with the projection equal, that is the maximality invariant.
func compareRuns(t *testing.T, ctx string, tr *Tree, o *wordOracle) {
	t.Helper()
	if got, want := tr.Size(), o.runs(); got != want {
		t.Fatalf("%s: %d read nodes, the oracle has %d maximal runs\n tree: %s", ctx, got, want, dump(tr))
	}
}

// checkedRead runs InsertRead, validating overlaps against the oracle and
// updating the oracle.
func checkedRead(t *testing.T, tr *Tree, o *wordOracle, x Interval, leftOf LeftOfFunc) {
	t.Helper()
	os := newOverlapSet(t)
	want := o.expectedOverlaps(x)
	tr.InsertRead(x, leftOf, os.fn)
	tr.checkReadTree()
	comparePairSets(t, fmt.Sprintf("InsertRead(%v)", x), os.pairs, want)
	o.applyRead(x, leftOf)
	compareProjection(t, fmt.Sprintf("after InsertRead(%v)", x), tr, o)
	compareRuns(t, fmt.Sprintf("after InsertRead(%v)", x), tr, o)
}

// checkedQuery runs Query and validates the overlap set without mutating
// anything.
func checkedQuery(t *testing.T, tr *Tree, o *wordOracle, x Interval) {
	t.Helper()
	os := newOverlapSet(t)
	want := o.expectedOverlaps(x)
	before := dump(tr)
	tr.Query(x, os.fn)
	tr.checkInvariants()
	if after := dump(tr); after != before {
		t.Fatalf("Query(%v) mutated the tree: %s -> %s", x, before, after)
	}
	comparePairSets(t, fmt.Sprintf("Query(%v)", x), os.pairs, want)
}

// rankLeftOf builds a LeftOfFunc from an explicit ranking: higher rank wins
// (is left-of lower rank).
func rankLeftOf(rank map[int32]int) LeftOfFunc {
	return func(a, b int32) bool { return rank[a] > rank[b] }
}

// sortedStarts is a helper for assertions on exact tree contents.
func sortedStarts(tr *Tree) []uint64 {
	var s []uint64
	tr.Walk(func(iv Interval) { s = append(s, iv.Start) })
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
