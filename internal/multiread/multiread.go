// Package multiread implements the multi-reader interval access history
// needed for race detection beyond series-parallel DAGs.
//
// The paper's read tree stores one reader per word — the leftmost — which
// Feng–Leiserson showed is a sufficient witness for fork-join programs, and
// which the paper notes breaks down for futures and other general DAGs
// (§7: "it is not sufficient to store one reader per memory location").
// For an arbitrary DAG there is no single total order from which a "left-
// most" witness can be drawn: two parallel readers r₁ and r₂ may each be
// the only witness for different future writers.
//
// This package stores, per region of memory, an *antichain* of readers:
// every stored reader is pairwise logically parallel with the others.
// Keeping an antichain instead of all readers is safe because a reader r
// that precedes a newly inserted reader a can never witness a race a
// cannot: any future writer w is executed after a, so w parallel with r
// implies w is parallel with a (otherwise a ≼ w would give r ≼ a ≼ w).
// The store therefore prunes dominated readers on insert, keeping sets
// small for mostly-series programs while remaining sound and complete for
// any DAG.
//
// Regions are maximal runs of addresses with identical reader sets, kept
// as a sorted slice of disjoint intervals. Insertions split regions at the
// new interval's boundaries; queries enumerate (reader, subrange) pairs.
// Operations cost O(log n) to locate plus O(regions touched × readers per
// region); the slice representation trades the treap's asymptotics for
// simplicity, which is adequate for the DAG runner's intended scale (the
// reachability bitsets, not the access history, bound it first).
// The STINT engine keeps its reads here, in word positions, when its Reach
// answers Series (stint/internal/detect).
package multiread

import (
	"fmt"
	"slices"
	"sort"
)

// SeriesFunc reports whether strand a precedes strand b in the DAG
// (a happens-before b). It is used to prune dominated readers.
type SeriesFunc func(a, b int32) bool

// EmitFunc receives one (reader, subrange) pair from a query.
type EmitFunc func(acc int32, lo, hi uint64)

// region is a maximal run [start, end) whose words were read by exactly
// the readers in acc (an antichain, in insertion order).
type region struct {
	start, end uint64
	acc        []int32
}

// Map is a multi-reader interval map. The zero value is ready for use.
type Map struct {
	regions []region // sorted by start, pairwise disjoint
	spliced []region // Insert's scratch: the regions it splices in
	readers int      // (region, reader) entries, kept by Insert
	ops     uint64
	touched uint64
}

// Size returns the number of stored regions.
func (m *Map) Size() int { return len(m.regions) }

// Readers returns the total number of stored (region, reader) entries — the
// footprint the antichain pruning keeps bounded.
func (m *Map) Readers() int { return m.readers }

// Ops returns the number of Insert/Query operations performed.
func (m *Map) Ops() uint64 { return m.ops }

// firstOverlapping returns the index of the first region that ends after
// addr (candidates for overlap with an interval starting at addr).
func (m *Map) firstOverlapping(addr uint64) int {
	return sort.Search(len(m.regions), func(i int) bool { return m.regions[i].end > addr })
}

// Insert records that strand acc read [start, end). Overlapped regions gain
// acc (minus any readers acc dominates); gaps become new regions with acc
// as the only reader.
func (m *Map) Insert(start, end uint64, acc int32, series SeriesFunc) {
	if start >= end {
		panic("multiread: empty interval")
	}
	m.ops++
	first := m.firstOverlapping(start)
	i, out := first, m.spliced[:0] // the regions replacing [first, i)
	cursor := start
	for ; i < len(m.regions) && m.regions[i].start < end; i++ {
		r := m.regions[i]
		m.touched++
		if cursor < r.start {
			out = append(out, region{start: cursor, end: r.start, acc: []int32{acc}})
			m.readers++
		}
		// Left part of r outside [start,end) keeps its readers unchanged.
		if r.start < start {
			out = append(out, region{start: r.start, end: start, acc: r.acc})
			m.readers += len(r.acc)
		}
		lo, hi := max(r.start, start), min(r.end, end)
		mid := addReader(r.acc, acc, series)
		out = append(out, region{start: lo, end: hi, acc: mid})
		m.readers += len(mid) - len(r.acc)
		if r.end > end {
			out = append(out, region{start: end, end: r.end, acc: r.acc})
			m.readers += len(r.acc)
		}
		cursor = hi
	}
	if cursor < end {
		out = append(out, region{start: cursor, end: end, acc: []int32{acc}})
		m.readers++
	}
	m.regions = slices.Replace(m.regions, first, i, out...)
	m.spliced = out
}

// addReader returns the antichain with acc added: readers that precede acc
// are pruned; acc is not added twice.
func addReader(readers []int32, acc int32, series SeriesFunc) []int32 {
	out := make([]int32, 0, len(readers)+1)
	present := false
	for _, r := range readers {
		switch {
		case r == acc:
			present = true
			out = append(out, r)
		case series == nil || !series(r, acc):
			out = append(out, r)
		}
	}
	if !present {
		out = append(out, acc)
	}
	return out
}

// Query emits every (reader, subrange) pair overlapping [start, end).
func (m *Map) Query(start, end uint64, emit EmitFunc) {
	if start >= end {
		panic("multiread: empty query interval")
	}
	m.ops++
	for i := m.firstOverlapping(start); i < len(m.regions) && m.regions[i].start < end; i++ {
		r := m.regions[i]
		m.touched++
		lo, hi := max(r.start, start), min(r.end, end)
		for _, acc := range r.acc {
			emit(acc, lo, hi)
		}
	}
}

// Walk calls fn on every region in address order (for tests and dumps).
func (m *Map) Walk(fn func(start, end uint64, readers []int32)) {
	for i := range m.regions {
		fn(m.regions[i].start, m.regions[i].end, m.regions[i].acc)
	}
}

// checkInvariants panics on disorder, overlap, empty regions, duplicate
// readers within a region, or a reader count Insert got wrong.
func (m *Map) checkInvariants() {
	var prevEnd uint64
	readers := 0
	for i, r := range m.regions {
		if r.start >= r.end {
			panic(fmt.Sprintf("multiread: empty region %d", i))
		}
		if i > 0 && r.start < prevEnd {
			panic(fmt.Sprintf("multiread: region %d overlaps predecessor", i))
		}
		if len(r.acc) == 0 {
			panic(fmt.Sprintf("multiread: region %d has no readers", i))
		}
		seen := map[int32]bool{}
		for _, a := range r.acc {
			if seen[a] {
				panic(fmt.Sprintf("multiread: region %d stores reader %d twice", i, a))
			}
			seen[a] = true
		}
		prevEnd = r.end
		readers += len(r.acc)
	}
	if readers != m.readers {
		panic(fmt.Sprintf("multiread: %d readers stored, %d counted", readers, m.readers))
	}
}
