// Package core implements the paper's primary contribution: an access
// history maintained at interval granularity in balanced binary search
// trees (treaps).
//
// An access history for sequential race detection of fork-join programs
// needs, per memory location, only the last writer and the leftmost reader
// (Feng & Leiserson). Instead of a per-word hashmap, this package stores
// maximal intervals of contiguous words with the same accessor in two
// treaps — one for writes, one for reads — keyed by interval start and
// maintaining the invariant that no two intervals in a tree overlap.
//
// Tree is the shared structure; InsertWrite implements §4.1 of the paper
// (new interval always wins, overlapping old intervals are trimmed or
// removed), InsertRead implements §4.2 (the left-of relation decides which
// accessor survives on overlap, so the new interval may itself be split; the
// read tree keeps one node per reader's contiguous run), and Query
// implements the read-only overlap enumeration of §4.3. Each
// operation costs O(h + k), where h is the tree height and k the number of
// stored intervals overlapping the argument; treap priorities keep
// h = O(lg n) with high probability.
package core

import "fmt"

// Interval is a half-open range of positions [Start, End) accessed by the
// strand identified by Acc. The unit is the caller's — the detector engines
// pass shadow-word positions — and a Tree requires only Start < End inside
// its 65 535-position span (Tree.SetBase).
type Interval struct {
	Start uint64
	End   uint64
	Acc   int32
}

func (iv Interval) String() string {
	return fmt.Sprintf("[%#x,%#x)@%d", iv.Start, iv.End, iv.Acc)
}

// LeftOfFunc reports whether the strand with the first ID is "left of" the
// strand with the second: logically parallel and earlier in sequential
// order, or in series and later. The read tree keeps the left-of winner
// when intervals overlap.
type LeftOfFunc func(a, b int32) bool

// OverlapFunc receives one stored interval that overlaps an operation's
// argument, together with the overlapping range [lo, hi). Each stored
// interval is reported at most once per operation.
type OverlapFunc func(acc int32, lo, hi uint64)
