// Package spord implements serial SP-Order reachability for fork-join
// programs.
//
// SP-Order (Bender, Fineman, Gilbert, Leiserson; SPAA 2004) maintains two
// total orders over the strands of a series-parallel DAG: the English order,
// which follows the sequential (depth-first, spawned-child-first) execution
// order, and the Hebrew order, which mirrors it (depth-first,
// continuation-first). Two strands are logically parallel exactly when the
// two orders disagree about their relative position. Both orders live in
// order-maintenance lists (stint/internal/om), so maintaining them costs
// amortized O(1) per spawn and each reachability query costs O(1).
//
// This package also provides the left-of relation used by Feng–Leiserson
// sequential race detection: strand a is left-of strand b when a is parallel
// with b and precedes it in sequential order, or a is in series with b and
// follows it. For strands of one serial execution, left-of coincides with
// "later in the Hebrew order", which is how LeftOf is implemented; the
// package tests verify the identity against a brute-force DAG oracle.
package spord

import (
	"stint/internal/om"
	"stint/internal/slab"
)

// Strand identifies a maximal instruction sequence with no parallel control.
// Strands are created by SP and referenced by the access history for the
// lifetime of a detection run.
type Strand struct {
	id  int32
	seq int32
	eng *om.Node
	heb *om.Node
}

// ID returns the strand's dense index: strands are numbered from 0 in
// creation order.
func (s *Strand) ID() int32 { return s.id }

// Frame holds the per-function-instance state SP-Order needs: the pending
// sync strand of the current sync block, if any.
type Frame struct {
	sync *Strand
}

// Pending reports whether the frame's current sync block has outstanding
// spawns (i.e. a sync strand has been reserved but not yet entered).
func (f *Frame) Pending() bool { return f.sync != nil }

// SP maintains SP-Order for one serial execution of a fork-join program.
type SP struct {
	eng     *om.List
	heb     *om.List
	strands []*Strand
	// Strand records are carved out of a slab that Reset trims, so a
	// reused SP allocates nothing in steady state.
	recs slab.Slab[Strand]
	cur  *Strand
	seq  int32 // next sequential rank to hand out (see SeqRank)
}

// New returns an SP with a single root strand, which is also the current
// strand.
func New() *SP {
	sp := &SP{eng: om.NewList(), heb: om.NewList()}
	sp.start()
	return sp
}

// start creates the root strand and makes it current.
func (sp *SP) start() {
	root := sp.newStrand(sp.eng.InsertAfter(nil), sp.heb.InsertAfter(nil))
	sp.makeCurrent(root)
}

// Reset rewinds the SP to the state New returns, retaining the strand
// records and order-list memory the last run used. All Strand
// pointers handed out before the Reset are recycled wholesale; the access
// history referencing them must be reset in the same breath. Because the
// root strand is re-created through the identical insertion sequence, a
// reused SP is indistinguishable from a fresh one.
func (sp *SP) Reset() {
	sp.eng.Reset()
	sp.heb.Reset()
	sp.recs.Trim()
	sp.strands = sp.strands[:0]
	sp.seq = 0
	sp.start()
}

// Retained returns how many strand records and order-list nodes and groups
// the SP's slabs hold.
func (sp *SP) Retained() int { return sp.recs.Cap() + sp.eng.Retained() + sp.heb.Retained() }

// makeCurrent stamps s with the next sequential rank and makes it current.
// Every strand becomes current exactly once, so ranks are dense and strictly
// follow the serial execution order.
func (sp *SP) makeCurrent(s *Strand) {
	s.seq = sp.seq
	sp.seq++
	sp.cur = s
}

func (sp *SP) newStrand(eng, heb *om.Node) *Strand {
	s := sp.recs.New()
	s.id, s.eng, s.heb = int32(len(sp.strands)), eng, heb
	sp.strands = append(sp.strands, s)
	return s
}

// Current returns the strand the program is executing now.
func (sp *SP) Current() *Strand { return sp.cur }

// StrandCount returns the number of strands created so far.
func (sp *SP) StrandCount() int { return len(sp.strands) }

// Strand returns the strand with the given ID.
func (sp *SP) Strand(id int32) *Strand { return sp.strands[id] }

// Spawn records a spawn from the current strand within frame f. It creates
// the spawned-child strand and the continuation strand (and, on the first
// spawn of a sync block, reserves the sync strand), makes the child the
// current strand, and returns the continuation so the caller can restore it
// with Restore when the child's serial execution returns.
//
// English order after the first spawn of a block from strand v:
// v, child, continuation, syncStrand. Hebrew order: v, continuation, child,
// syncStrand. Later spawns in the same block omit the sync strand.
func (sp *SP) Spawn(f *Frame) (child, continuation *Strand) {
	v := sp.cur
	childEng := sp.eng.InsertAfter(v.eng)
	contEng := sp.eng.InsertAfter(childEng)
	contHeb := sp.heb.InsertAfter(v.heb)
	childHeb := sp.heb.InsertAfter(contHeb)
	child = sp.newStrand(childEng, childHeb)
	continuation = sp.newStrand(contEng, contHeb)
	if f.sync == nil {
		syncEng := sp.eng.InsertAfter(contEng)
		syncHeb := sp.heb.InsertAfter(childHeb)
		f.sync = sp.newStrand(syncEng, syncHeb)
	}
	sp.makeCurrent(child)
	return child, continuation
}

// Restore makes the continuation strand current again after a spawned
// child's serial execution has returned.
func (sp *SP) Restore(continuation *Strand) { sp.makeCurrent(continuation) }

// Sync ends the current sync block of frame f. If the block had spawns, the
// reserved sync strand becomes current; otherwise Sync is a no-op (a sync
// with nothing outstanding does not create a strand). It returns the current
// strand after the sync.
func (sp *SP) Sync(f *Frame) *Strand {
	if f.sync != nil {
		s := f.sync
		f.sync = nil
		sp.makeCurrent(s)
	}
	return sp.cur
}

// Parallel reports whether strands a and b are logically parallel: the
// English and Hebrew orders disagree about their relative position.
func Parallel(a, b *Strand) bool {
	if a == b {
		return false
	}
	return om.Before(a.eng, b.eng) != om.Before(a.heb, b.heb)
}

// Series reports whether a strictly precedes b in the series (happens-
// before) order: a comes before b in both total orders.
func Series(a, b *Strand) bool {
	if a == b {
		return false
	}
	return om.Before(a.eng, b.eng) && om.Before(a.heb, b.heb)
}

// LeftOf reports whether a is to the left of b: a is parallel with b and
// precedes it in sequential order, or a is in series with b and follows it.
// For any two distinct strands of one execution this is equivalent to a
// being later in the Hebrew order.
func LeftOf(a, b *Strand) bool {
	return om.Before(b.heb, a.heb)
}

// SeqBefore reports whether a precedes b in the sequential execution
// (English) order.
func SeqBefore(a, b *Strand) bool {
	return om.Before(a.eng, b.eng)
}

// The ID-based methods below make *SP satisfy the detector's reachability
// interface (stint/internal/detect.Reach).

// CurrentID returns the ID of the current strand.
func (sp *SP) CurrentID() int32 { return sp.cur.id }

// Parallel reports whether the strands with the given IDs are logically
// parallel.
func (sp *SP) Parallel(a, b int32) bool {
	return Parallel(sp.strands[a], sp.strands[b])
}

// LeftOf reports whether strand a is left-of strand b, by ID.
func (sp *SP) LeftOf(a, b int32) bool {
	return LeftOf(sp.strands[a], sp.strands[b])
}

// SeqRank returns the sequential (English-order) rank of the strand with
// the given ID: strands are ranked from 0 in the order they become current,
// which for one serial execution is the order their instructions run.
// Creation order differs — a sync strand is created at the first spawn of
// its block but runs only after the block's last child joins.
func (sp *SP) SeqRank(id int32) int32 { return sp.strands[id].seq }
