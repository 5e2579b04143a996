package stage

import (
	"fmt"

	"stint/internal/evstream"
	"stint/internal/slab"
)

// Reorder turns the arrival-ordered chunk stream of the parallel-detect
// executor back into the serial projection. Executor tasks publish chunks
// in whatever order the scheduler runs them; serial order is a depth-first
// walk of the spawn tree (child subtree first, then the parent's
// continuation — exactly the order the serial executor visits strands).
// Reorder performs that walk incrementally: Add holds arrived chunks,
// parked per task in index order, and Next hands out the single chunk that
// comes next in serial order, advancing the cursor by that chunk's End:
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
// What the buffer costs is the bytes it holds. A chunk that arrives when it
// is next passes through as it is. Any other chunk is parked: its frames
// are copied into a byte store of fixed blocks (evstream.Batch.Park) and
// Add hands its batch back to the caller, so scheduling skew pins no pooled
// batch. A full batch, a mid-strand cut, is parked whole instead: copying
// it would hold its bytes twice until the caller recycled it.
//
// The stores are kept across runs (Reset). Reorder is not safe for
// concurrent use; the merge stage owns it.
type Reorder struct {
	next   evstream.Chunk // the chunk Add held because it was next
	held   bool
	queues slab.Slab[queue]       // per task identity: its parked chunks
	chunks slab.Slab[parkedChunk] // the chunks parked since none was
	live   int                    // parked chunks not yet returned
	store  [][]byte               // the byte store: blocks, never reallocated
	block  int                    // the block being filled
	used   int                    // blocks the run has filled, at most
	stack  []chunkKey             // suspended parent continuations, innermost last
	need   chunkKey               // the next chunk in serial order
	done   bool
	peak   int
}

type chunkKey struct {
	task uint64
	idx  uint32
}

// queue is one task's parked chunks, a list in index order.
type queue struct{ head, tail *parkedChunk }

// parkedChunk is a parked chunk: Batch is a view of its frames in the
// store (view holds it), or the full batch parked whole, or nil for a
// chunk with no events.
type parkedChunk struct {
	c    evstream.Chunk
	view evstream.Batch
	next *parkedChunk
}

// storeBlock is the byte store's block size: sixteen default-geometry
// batches' worth of wire.
const storeBlock = 16 << 10

// NewReorder returns a walk positioned at the root task's first chunk.
// The root task's identity is 0 by convention (the executor's task counter
// hands out 1, 2, ... to spawned children).
func NewReorder() *Reorder { return &Reorder{} }

// Add inserts one arrived chunk and returns the batch whose frames it
// copied — the caller's to recycle — or nil. Protocol violations (a
// duplicate (task, index), a chunk after the root's end) panic: they mean
// the executor or its channel corrupted the stream, and the stage graph
// converts the panic into an abort.
func (r *Reorder) Add(c evstream.Chunk) (spent *evstream.Batch) {
	if r.done {
		panic("stage: chunk added after the root chunk completed the stream")
	}
	if (chunkKey{c.Task, c.Idx}) == r.need && !r.held {
		r.next, r.held = c, true
	} else {
		spent = r.park(c)
	}
	r.peak = max(r.peak, r.Pending())
	return spent
}

// park appends c to its task's queue, copying its frames into the store
// unless its batch is full. The executor sends each task's chunks in
// index order, so a parked chunk follows its queue's tail or starts an
// empty queue; any other chunk is a duplicate or out of order, and
// panics. With nothing parked the chunk records and the store start over
// from their first block.
func (r *Reorder) park(c evstream.Chunk) (spent *evstream.Batch) {
	q := r.queues.At(int(c.Task))
	if q.head != nil && q.tail.c.Idx+1 != c.Idx {
		panic(fmt.Sprintf("stage: chunk (task %d, idx %d) out of its task's order", c.Task, c.Idx))
	}
	if r.live == 0 {
		r.chunks.Reset()
		r.block = 0
		if len(r.store) > 0 {
			r.store[0] = r.store[0][:0]
		}
	}
	p := r.chunks.New()
	p.c = c
	if b := c.Batch; b != nil && !b.Full() {
		s := r.room(len(b.Buf))
		*s = p.view.Park(b, *s)
		p.c.Batch, spent = nil, b
	}
	if q.head == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
	r.live++
	return spent
}

// room returns the store block to copy n bytes into, moving on to the next
// block — made on first use — when the current one is short of them.
func (r *Reorder) room(n int) *[]byte {
	for {
		if r.block == len(r.store) {
			r.store = append(r.store, make([]byte, 0, max(storeBlock, n)))
		}
		if b := r.store[r.block]; cap(b)-len(b) >= n {
			r.used = max(r.used, r.block+1)
			return &r.store[r.block]
		}
		r.block++
		if r.block < len(r.store) {
			r.store[r.block] = r.store[r.block][:0]
		}
	}
}

// Next returns the next chunk in serial order, reporting false while it has
// not arrived. A parked chunk's batch is a view of the store, valid until
// the next Add. A root end with chunks still pending, or an End outside the
// four values, panics.
func (r *Reorder) Next() (evstream.Chunk, bool) {
	var c evstream.Chunk
	if r.held {
		c, r.held = r.next, false
	} else {
		q := r.queues.Get(int(r.need.task))
		if q == nil || q.head == nil || q.head.c.Idx != r.need.idx {
			return c, false
		}
		p := q.head
		q.head = p.next // an emptied queue's tail is dead: park tests head
		c = p.c
		if p.view.Parked() {
			c.Batch = &p.view
		}
		r.live--
	}
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
		if r.Pending() != 0 {
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
func (r *Reorder) Pending() int {
	if r.held {
		return r.live + 1
	}
	return r.live
}

// Peak returns the high-water mark of Pending after each Add. Its unit is
// chunks; what they cost is their bytes in the store (Retained).
func (r *Reorder) Peak() int { return r.peak }

// Reset re-arms the walk for another run. Each store keeps what the run
// just finished used — the blocks its parked bytes and chunks reached, the
// queues of the tasks that parked — and once it holds more than twice that,
// gives the rest to the garbage collector. So a one-off large run is not
// held past the next Reset, and similar runs, whose parking varies with
// the schedule, park without allocating. What a failed run left parked is
// dropped, its whole batches included.
func (r *Reorder) Reset() {
	if len(r.store) > 2*r.used {
		clear(r.store[r.used:])
		r.store = r.store[:r.used]
	}
	r.queues.Trim()
	r.chunks.Trim()
	r.next, r.held = evstream.Chunk{}, false
	r.live, r.block, r.used = 0, 0, 0
	r.stack = r.stack[:0]
	r.need, r.done, r.peak = chunkKey{}, false, 0
}

// Retained returns what the stores hold: the byte store's bytes, and the
// parked-chunk records and task queues their slabs keep.
func (r *Reorder) Retained() (bytes, chunks, queues int) {
	for _, b := range r.store {
		bytes += cap(b)
	}
	return bytes, r.chunks.Cap(), r.queues.Cap()
}
