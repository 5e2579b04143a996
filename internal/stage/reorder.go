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
// Reorder performs that walk incrementally: it holds out-of-order chunks
// in a pending set keyed by (task, index) and maintains a cursor for the
// single chunk that comes next in serial order, advancing the cursor by
// the emitted chunk's terminator:
//
//	ChunkCut, ChunkSync  →  same task, next index
//	ChunkSpawn           →  descend to (Child, 0); resume point pushed
//	ChunkTask            →  pop the suspended parent continuation
//	ChunkRoot            →  the stream is complete
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

// Offer inserts one arrived chunk and emits every chunk that is now
// reachable in serial order — possibly none (the chunk arrived early),
// possibly a long cascade (it was the missing link). Protocol violations
// (duplicate (task, index), chunks after the root ended, a task end with
// no suspended parent) panic: they mean the executor or its channel corrupted
// the stream, and the stage graph converts the panic into an abort.
func (r *Reorder) Offer(c evstream.Chunk, emit func(evstream.Chunk)) {
	if r.done {
		panic("stage: chunk offered after the root chunk completed the stream")
	}
	k := chunkKey{c.Task, c.Idx}
	if _, dup := r.pending[k]; dup {
		panic(fmt.Sprintf("stage: duplicate chunk (task %d, idx %d)", c.Task, c.Idx))
	}
	r.pending[k] = c
	if len(r.pending) > r.peak {
		r.peak = len(r.pending)
	}
	for {
		c, ok := r.pending[r.need]
		if !ok {
			return
		}
		delete(r.pending, r.need)
		emit(c)
		switch c.End {
		case evstream.ChunkCut, evstream.ChunkSync:
			r.need.idx++
		case evstream.ChunkSpawn:
			r.stack = append(r.stack, chunkKey{r.need.task, r.need.idx + 1})
			r.need = chunkKey{c.Child, 0}
		case evstream.ChunkTask:
			if len(r.stack) == 0 {
				panic("stage: task-end chunk with no suspended parent")
			}
			r.need = r.stack[len(r.stack)-1]
			r.stack = r.stack[:len(r.stack)-1]
		case evstream.ChunkRoot:
			if len(r.stack) != 0 {
				panic("stage: root-end chunk with suspended tasks outstanding")
			}
			if len(r.pending) != 0 {
				// Every chunk is published before its task joins and the
				// root joins everything before ending, so leftovers mean a
				// linkage bug, not an early root.
				panic("stage: root-end chunk with chunks still pending")
			}
			r.done = true
			return
		default:
			panic(fmt.Sprintf("stage: unknown chunk terminator %d", c.End))
		}
	}
}

// Done reports whether the root chunk has been emitted — the serial
// projection is complete and no further Offer is legal.
func (r *Reorder) Done() bool { return r.done }

// Pending returns the number of chunks currently held out of order.
func (r *Reorder) Pending() int { return len(r.pending) }

// Peak returns the high-water mark of the pending set — the memory the
// merge actually paid for scheduling skew, surfaced as Report.ReorderPeak.
func (r *Reorder) Peak() int { return r.peak }
