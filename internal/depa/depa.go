// Package depa implements immutable DePa-style reachability labels for
// fork-join programs.
//
// DePa (Westrick, Wang, Acar) observes that series-parallel reachability can
// be answered from per-strand labels computed once when the strand is
// created and never mutated afterwards. Each strand carries
//
//   - its fork path: one entry per spawn edge on the task-tree path from the
//     root task to the strand's task, packing the parent task's sync-block
//     index at the spawn and a per-task monotone spawn counter;
//   - its own sync-block index within its task; and
//   - its sequential rank (the order strands become current in the serial
//     execution).
//
// Precedes(a, b) — the happens-before test — then reduces to a lexicographic
// walk over the two fork paths plus a block comparison at the divergence
// point, touching only immutable words. That is what lets many detector
// workers query reachability concurrently without sharing the mutable
// union-find of stint/internal/spord: a single sequencer
// goroutine appends labels with a Builder, snapshots a read-only View, and
// hands the View to any number of workers.
//
// The Builder mirrors spord's strand numbering exactly (per spawn: child,
// continuation, and — first spawn of a block — the reserved sync strand), so
// strand IDs from the serial execution address the same strands here. The
// package tests differentially verify Precedes/Parallel/LeftOf/SeqRank on
// randomized fork-join DAGs against the DAG's ancestor closure, with spord's
// numbering and ranks.
package depa

// A path entry packs the spawning task's sync-block index (high 32 bits)
// and the parent task's spawn ordinal (low 32 bits) for one spawn edge.
func pathEntry(block, spawnIdx uint32) uint64 {
	return uint64(block)<<32 | uint64(spawnIdx)
}

func entryBlock(e uint64) uint32 { return uint32(e >> 32) }

// rec is one strand's immutable label. Records are written exactly once by
// the Builder before the strand's ID is ever published to a reader, except
// seq, which is written when the strand becomes current — still strictly
// before any event referencing the strand is published.
type rec struct {
	path  []uint64 // spawn-edge entries, root task → strand's task
	block uint32   // sync-block index of the strand within its task
	seq   int32    // sequential (execution-order) rank; -1 until current
}

// recChunk is the slab granularity for labels. Chunks are append-only:
// published chunk pointers are never written again at indices a reader can
// see, so a snapshot of the chunk table is safe to read concurrently.
const recChunk = 1024

type recSlab [recChunk]rec

// frame is the Builder's per-function-instance state, mirroring
// spord.Frame plus the label bookkeeping.
type frame struct {
	path    []uint64 // fork path shared by every strand of this task
	block   uint32   // current sync-block index
	spawns  uint32   // spawn ordinal counter (monotone across blocks)
	pending int32    // reserved sync strand of the current block, or -1
	cont    int32    // continuation strand to restore when this task returns
}

// Builder constructs labels for one serial execution. It is single-owner:
// only the sequencer goroutine may call its methods. Snapshots taken with
// View are safe for concurrent readers.
type Builder struct {
	chunks []*recSlab
	n      int32 // strands created
	seq    int32 // next sequential rank
	cur    int32 // current strand
	stack  []frame
	// Fork paths are bump-allocated out of a retained list of arenas;
	// arenas[arenaCur] is the one being filled. Reset rewinds every arena to
	// length zero instead of dropping it, so reused Builders stop allocating
	// once they have seen their peak run.
	arenas   [][]uint64
	arenaCur int
}

// NewBuilder returns a Builder with a single root strand, which is current.
func NewBuilder() *Builder {
	b := &Builder{stack: make([]frame, 1, 16)}
	b.stack[0] = frame{pending: -1, cont: -1}
	root := b.newRec(nil, 0)
	b.makeCurrent(root)
	return b
}

// Reset rewinds the Builder to the state NewBuilder returns, retaining
// every label chunk and path arena. Views snapshotted before the Reset
// must no longer be read: their records are recycled wholesale. newRec
// fully overwrites each record it hands out, so the chunks need no
// clearing — stale records past n are unreachable through any View.
func (b *Builder) Reset() {
	b.n, b.seq = 0, 0
	b.stack = b.stack[:1]
	b.stack[0] = frame{pending: -1, cont: -1}
	for i := range b.arenas {
		b.arenas[i] = b.arenas[i][:0]
	}
	b.arenaCur = 0
	root := b.newRec(nil, 0)
	b.makeCurrent(root)
}

func (b *Builder) newRec(path []uint64, block uint32) int32 {
	id := b.n
	if int(id)%recChunk == 0 && int(id)/recChunk == len(b.chunks) {
		b.chunks = append(b.chunks, new(recSlab))
	}
	r := &b.chunks[id/recChunk][id%recChunk]
	r.path, r.block, r.seq = path, block, -1
	b.n++
	return id
}

func (b *Builder) rec(id int32) *rec {
	return &b.chunks[id/recChunk][id%recChunk]
}

func (b *Builder) makeCurrent(id int32) {
	b.rec(id).seq = b.seq
	b.seq++
	b.cur = id
}

// appendPath returns parent+[entry] in freshly bump-allocated storage. The
// result is immutable until Reset: the active arena only ever grows past
// it. An arena too full for the next path is left behind (its tail stays
// unused until Reset rewinds it) and the cursor moves to the next retained
// arena, allocating a new one only when none remain.
func (b *Builder) appendPath(parent []uint64, entry uint64) []uint64 {
	n := len(parent) + 1
	for {
		if b.arenaCur == len(b.arenas) {
			size := 4096
			if n > size {
				size = n
			}
			b.arenas = append(b.arenas, make([]uint64, 0, size))
		}
		a := b.arenas[b.arenaCur]
		if cap(a)-len(a) >= n {
			off := len(a)
			a = append(a, parent...)
			a = append(a, entry)
			b.arenas[b.arenaCur] = a
			return a[off : off+n : off+n]
		}
		b.arenaCur++
	}
}

// Current returns the ID of the current strand.
func (b *Builder) Current() int32 { return b.cur }

// StrandCount returns the number of strands created so far.
func (b *Builder) StrandCount() int { return int(b.n) }

// Spawn records a spawn from the current strand: it creates the child and
// continuation strands (and, on the first spawn of a sync block, reserves
// the sync strand) in the same ID order as spord.SP.Spawn, makes the child
// current, and returns its ID.
func (b *Builder) Spawn() int32 {
	f := &b.stack[len(b.stack)-1]
	childPath := b.appendPath(f.path, pathEntry(f.block, f.spawns))
	f.spawns++
	child := b.newRec(childPath, 0)
	cont := b.newRec(f.path, f.block)
	if f.pending < 0 {
		f.pending = b.newRec(f.path, f.block+1)
	}
	b.makeCurrent(child)
	b.stack = append(b.stack, frame{path: childPath, pending: -1, cont: cont})
	return child
}

// Restore records the return of the most recently spawned child whose task
// is still open: the parent's continuation strand becomes current.
func (b *Builder) Restore() {
	top := b.stack[len(b.stack)-1]
	if len(b.stack) == 1 {
		panic("depa: Restore with no open spawn")
	}
	if top.pending >= 0 {
		panic("depa: Restore with pending sync")
	}
	b.stack = b.stack[:len(b.stack)-1]
	b.makeCurrent(top.cont)
}

// Sync records a strand-creating sync in the current task: the reserved
// sync strand becomes current and a new sync block begins. The caller must
// only emit syncs for blocks with outstanding spawns (as the event stream
// producer does); a sync with nothing pending panics.
func (b *Builder) Sync() {
	f := &b.stack[len(b.stack)-1]
	if f.pending < 0 {
		panic("depa: Sync with no pending spawns")
	}
	id := f.pending
	f.pending = -1
	f.block++
	b.makeCurrent(id)
}

// View returns a read-only snapshot covering every strand created so far.
// The snapshot is safe to use from other goroutines provided the
// publication itself is ordered (e.g. via a channel or ring handoff), and
// remains valid while the Builder continues to grow.
func (b *Builder) View() View {
	return View{chunks: b.chunks, n: b.n}
}

// View is an immutable snapshot of the labels of the first n strands.
// All methods are pure reads; a View may be shared by any number of
// goroutines.
type View struct {
	chunks []*recSlab
	n      int32
}

// StrandCount returns the number of strands covered by the snapshot.
func (v View) StrandCount() int { return int(v.n) }

func (v View) rec(id int32) *rec {
	return &v.chunks[id/recChunk][id%recChunk]
}

// SeqRank returns the sequential rank of strand id. The strand must have
// become current before the snapshot's publication (true for any strand
// whose events a worker has received).
func (v View) SeqRank(id int32) int32 { return v.rec(id).seq }

// Precedes reports whether strand a happens strictly before strand b in the
// series (happens-before) order.
//
// Let the fork paths diverge at index i. If both paths have the entry, a
// precedes b iff a's side of the fork was already synced when b's side was
// spawned, i.e. b's spawn-edge block is strictly greater than a's. If a's
// path is a proper prefix of b's, a's task is an ancestor of b's task: a
// precedes b iff a became current first (sequential rank), because within
// the ancestor task everything up to the spawn of b's subtree precedes it
// and everything after the join follows it. Symmetrically for b's path a
// prefix of a's, a precedes b iff a's subtree was spawned in a block
// strictly smaller than b's own sync-block index. Equal paths mean the same
// task, where strands are totally ordered by rank.
func (v View) Precedes(a, b int32) bool {
	if a == b {
		return false
	}
	ra, rb := v.rec(a), v.rec(b)
	if ra.seq > rb.seq {
		return false // a runs after b in the serial order ⇒ not before it
	}
	pa, pb := ra.path, rb.path
	n := len(pa)
	if len(pb) < n {
		n = len(pb)
	}
	for i := 0; i < n; i++ {
		if pa[i] != pb[i] {
			// Sibling subtrees of one task: a's side precedes b's side
			// iff b was spawned in a strictly later sync block.
			return entryBlock(pb[i]) > entryBlock(pa[i])
		}
	}
	switch {
	case len(pa) == len(pb):
		return true // same task: serial, and ra.seq < rb.seq already held
	case len(pa) < len(pb):
		return true // a in an ancestor task and earlier in serial order
	default:
		// b in an ancestor task: a's subtree hangs off b's task at entry
		// pa[len(pb)]; it precedes b iff that block was synced before b's
		// block started.
		return rb.block > entryBlock(pa[len(pb)])
	}
}

// Parallel reports whether strands a and b are logically parallel.
func (v View) Parallel(a, b int32) bool {
	if a == b {
		return false
	}
	if v.rec(a).seq > v.rec(b).seq {
		a, b = b, a
	}
	return !v.Precedes(a, b)
}

// LeftOf reports whether a is to the left of b: a is parallel with b and
// precedes it in sequential order, or a is in series with b and follows it.
func (v View) LeftOf(a, b int32) bool {
	if v.rec(a).seq < v.rec(b).seq {
		return !v.Precedes(a, b)
	}
	return v.Precedes(b, a)
}
