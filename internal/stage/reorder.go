package stage

import (
	"fmt"

	"stint/internal/evstream"
)

// Reorder turns the arrival-ordered chunk stream of the parallel-detect
// executor back into the serial projection. Executor tasks publish chunks
// in whatever order the scheduler runs them; serial order is a depth-first
// walk of the spawn tree (child subtree first, then the parent's
// continuation — exactly the order the serial executor visits strands).
// Reorder performs that walk incrementally: Add holds arrived chunks in a
// pending set keyed by (task, index), and Next hands out the single chunk
// that comes next in serial order, advancing the cursor by that chunk's
// End:
//
//	0, OpSync   →  same task, next index
//	OpSpawn     →  descend to (Child, 0); resume point pushed
//	OpRestore   →  pop the suspended parent continuation; with none
//	               suspended the walk is in task 0, whose end completes
//	               the stream
//
// Because the cursor depends only on the chunks' own linkage, the emission
// order — and therefore everything downstream: batch composition, labels,
// reports — is independent of scheduling. Determinism is structural, not
// negotiated.
//
// Reorder is not safe for concurrent use; the merge stage owns it.
type Reorder struct {
	pending map[chunkKey]evstream.Chunk
	stack   []chunkKey // suspended parent continuations, innermost last
	need    chunkKey   // the next chunk in serial order
	done    bool
	peak    int
}

type chunkKey struct {
	task uint64
	idx  uint32
}

// NewReorder returns a walk positioned at the root task's first chunk.
// The root task's identity is 0 by convention (the executor's task counter
// hands out 1, 2, ... to spawned children).
func NewReorder() *Reorder {
	return &Reorder{pending: make(map[chunkKey]evstream.Chunk)}
}

// Add inserts one arrived chunk. Protocol violations (a duplicate (task,
// index), a chunk after the root's end) panic: they mean the executor or
// its channel corrupted the stream, and the stage graph converts the panic
// into an abort.
func (r *Reorder) Add(c evstream.Chunk) {
	if r.done {
		panic("stage: chunk added after the root chunk completed the stream")
	}
	k := chunkKey{c.Task, c.Idx}
	if _, dup := r.pending[k]; dup {
		panic(fmt.Sprintf("stage: duplicate chunk (task %d, idx %d)", c.Task, c.Idx))
	}
	r.pending[k] = c
	r.peak = max(r.peak, len(r.pending))
}

// Next returns the next chunk in serial order, reporting false while it has
// not arrived. A root end with chunks still pending, or an End outside the
// four values, panics.
func (r *Reorder) Next() (evstream.Chunk, bool) {
	c, ok := r.pending[r.need]
	if !ok {
		return c, false
	}
	delete(r.pending, r.need)
	switch c.End {
	case 0, evstream.OpSync:
		r.need.idx++
	case evstream.OpSpawn:
		r.stack = append(r.stack, chunkKey{r.need.task, r.need.idx + 1})
		r.need = chunkKey{c.Child, 0}
	case evstream.OpRestore:
		if n := len(r.stack); n > 0 {
			r.need, r.stack = r.stack[n-1], r.stack[:n-1]
			break
		}
		if len(r.pending) != 0 {
			// Every chunk is published before its task joins and the root
			// joins everything before ending, so leftovers mean a linkage
			// bug, not an early root.
			panic("stage: root-end chunk with chunks still pending")
		}
		r.done = true
	default:
		panic(fmt.Sprintf("stage: unknown chunk end %d", c.End))
	}
	return c, true
}

// Done reports whether the root's final chunk has been returned — the
// serial projection is complete and no further Add is legal.
func (r *Reorder) Done() bool { return r.done }

// Pending returns the number of chunks currently held out of order.
func (r *Reorder) Pending() int { return len(r.pending) }

// Peak returns the high-water mark of the pending set after each Add — the
// memory the merge actually paid for scheduling skew, surfaced as
// Report.ReorderPeak.
func (r *Reorder) Peak() int { return r.peak }
