// Package spord answers serial reachability for fork-join programs with
// SP-bags (Feng, Leiserson; SPAA 1997).
//
// The detectors ask one question: is a strand that already ran logically
// parallel with the current one? (For such a pair, left-of is simply
// not-parallel; see stint/internal/detect.) SP-bags answers it during the
// serial, depth-first execution. Each running task (function instance) has
// an S-bag, the strands that precede its current strand, and a P-bag, those
// of its returned children that no sync has joined yet, which are parallel
// with it. A spawn opens the child's task with an S-bag of its own, a
// child's return folds that into the parent's P-bag, and a sync folds the
// P-bag into the S-bag. A strand that ran is parallel with the current one
// exactly when it is in a P-bag. The bags are a union-find over strands, so
// a query is near-constant and nothing is relabeled.
package spord

import "stint/internal/slab"

// Strand identifies a maximal instruction sequence with no parallel control.
// Strands are created by SP and referenced by the access history for the
// lifetime of a detection run. A task is named by its first strand.
type Strand struct {
	id, task int32
	seq      int32 // sequential rank, stamped when the strand becomes current
	pbag     int32 // a task's first strand: a member of its P-bag, 0 if empty
}

// ID returns the strand's dense index: strands are numbered from 0 in
// creation order.
func (s *Strand) ID() int32 { return s.id }

// Frame holds the per-function-instance state SP needs: the sync strand
// reserved for the current sync block, if it has spawned.
type Frame struct {
	sync *Strand
}

// SP maintains SP-bags for one serial execution of a fork-join program.
// Strand i is recs' i-th record, and uf[i] its union-find entry: its parent,
// or at a root, negative, ^(rank<<1 | 1 if the set is a P-bag). Reset keeps
// what the last run used (slab.Slab.Trim's rule, for uf too), so a reused
// SP allocates nothing in steady state.
type SP struct {
	recs slab.Slab[Strand]
	uf   []int32
	cur  *Strand
	seq  int32 // next sequential rank to hand out (see SeqRank)
}

// New returns an SP with a single root strand, which is also the current
// strand.
func New() *SP {
	sp := &SP{}
	sp.Reset()
	return sp
}

// Reset rewinds the SP to the state New returns, retaining the records the
// last run used. Strand pointers handed out before are recycled; the access
// history referencing them must be reset in the same breath. The root
// strand is in no P-bag, so a pbag of 0 reads as empty.
func (sp *SP) Reset() {
	sp.recs.Trim()
	if cap(sp.uf) > 2*len(sp.uf) {
		sp.uf = make([]int32, 0, len(sp.uf))
	}
	sp.uf, sp.seq = sp.uf[:0], 0
	sp.makeCurrent(sp.newStrand(0))
}

// Retained returns how many strand records and union-find entries SP holds.
func (sp *SP) Retained() int { return sp.recs.Cap() + cap(sp.uf) }

// makeCurrent stamps s with the next sequential rank and makes it current.
// Every strand becomes current once, so ranks follow the serial execution.
func (sp *SP) makeCurrent(s *Strand) {
	s.seq = sp.seq
	sp.seq++
	sp.cur = s
}

// newStrand creates a strand of the given task, which joins the task's
// S-bag, or opens a task with a bag of its own if task is the new ID.
func (sp *SP) newStrand(task int32) *Strand {
	id := int32(len(sp.uf))
	s := sp.recs.At(int(id))
	s.id, s.task = id, task
	if task == id {
		task = ^0 // a root of rank 0 in an S-bag
	}
	sp.uf = append(sp.uf, task)
	return s
}

// find returns the root of strand s's bag, halving the path it walks: each
// strand on it skips to its grandparent.
func (sp *SP) find(s int32) int32 {
	for {
		p := sp.uf[s]
		if p < 0 {
			return s
		}
		gp := sp.uf[p]
		if gp < 0 {
			return p
		}
		sp.uf[s], s = gp, gp
	}
}

// union merges the bags holding strands a and b, by rank, into a P-bag if p.
func (sp *SP) union(a, b int32, p bool) {
	a, b = sp.find(a), sp.find(b)
	ra, rb := ^sp.uf[a]>>1, ^sp.uf[b]>>1
	if ra < rb {
		a, b, ra, rb = b, a, rb, ra
	}
	if a != b {
		sp.uf[b] = a
		if ra == rb {
			ra++
		}
	}
	sp.uf[a] = ^(ra << 1)
	if p {
		sp.uf[a] = ^(ra<<1 | 1)
	}
}

// foldP moves the bag holding strand s into task into's P-bag.
func (sp *SP) foldP(into, s int32) {
	r := sp.recs.Get(int(into))
	if r.pbag == 0 {
		r.pbag = s
	}
	sp.union(r.pbag, s, true)
}

// StrandCount returns the number of strands created so far.
func (sp *SP) StrandCount() int { return len(sp.uf) }

// Spawn records a spawn from the current strand within frame f. It creates
// the spawned child's strand, the first of a new task, and the continuation
// strand (and, on the first spawn of a sync block, reserves the sync
// strand), makes the child current, and returns the continuation for
// Restore to make current when the child's serial execution returns.
func (sp *SP) Spawn(f *Frame) (child, continuation *Strand) {
	v := sp.cur.task
	child = sp.newStrand(int32(len(sp.uf)))
	continuation = sp.newStrand(v)
	if f.sync == nil {
		f.sync = sp.newStrand(v)
	}
	sp.makeCurrent(child)
	return child, continuation
}

// Restore makes the continuation current again after a spawned child's
// serial execution has returned, with its implicit sync: the child's task
// becomes parallel with the continuation.
func (sp *SP) Restore(continuation *Strand) {
	sp.foldP(continuation.task, sp.cur.task)
	sp.makeCurrent(continuation)
}

// Sync ends the current sync block of frame f. If the block had spawns, the
// reserved sync strand becomes current, in series with all the block did;
// otherwise Sync is a no-op (a sync with nothing outstanding does not create
// a strand). It returns the current strand after the sync.
func (sp *SP) Sync(f *Frame) *Strand {
	if s := f.sync; s != nil {
		f.sync = nil
		t := sp.recs.Get(int(s.task))
		sp.union(s.task, t.pbag, false)
		t.pbag = 0
		sp.makeCurrent(s)
	}
	return sp.cur
}

// CurrentID returns the ID of the current strand.
func (sp *SP) CurrentID() int32 { return sp.cur.id }

// ParallelWithCurrent reports whether the strand with the given ID, which
// has run, is logically parallel with the current strand. With CurrentID it
// makes *SP the detectors' stint/internal/detect.Reach.
func (sp *SP) ParallelWithCurrent(stored int32) bool {
	return stored != sp.cur.id && ^sp.uf[sp.find(stored)]&1 == 1
}

// SeqRank returns the sequential rank of the strand with the given ID, from
// 0 in the order strands become current. Creation order differs: a sync
// strand is created at its block's first spawn but runs after its join.
func (sp *SP) SeqRank(id int32) int32 { return sp.recs.Get(int(id)).seq }
