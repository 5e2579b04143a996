package evstream

import "sync"

// Multi-producer chunk ingest for the parallel-detect executor. Where the
// serial Async pipeline has one mutator goroutine feeding the ring,
// the parallel executor runs one goroutine per spawned task, and the set
// of live producers changes as the program forks and joins — a fixed
// per-producer ring cannot hold them. Instead every task goroutine fills
// Batches from a shared BatchPool and hands completed Chunks to one
// bounded TaskQueue; the merge stage drains the queue and reorders the
// chunks into the serial projection (internal/stage.Reorder).
//
// A Chunk is a contiguous run of ONE strand's access events: structure
// transitions are never in-band — they are the chunk terminator (End),
// so the merge can both reorder by task linkage and synthesize the
// serial spawn/restore/sync stream without decoding a single event.

// ChunkEnd says why a chunk was cut, which doubles as the merge stage's
// traversal instruction (see stage.Reorder).
type ChunkEnd uint8

const (
	// ChunkCut means the batch filled mid-strand; the same strand
	// continues in the task's next chunk. No structure event.
	ChunkCut ChunkEnd = iota
	// ChunkSpawn means the strand ended at a Spawn: Child names the new
	// task, whose chunk 0 is next in serial order; the task resumes at
	// its next chunk index after the child's subtree completes.
	ChunkSpawn
	// ChunkSync means the strand ended at a strand-creating Sync; the
	// task's next chunk continues after the join (no-op syncs are elided
	// by the executor, exactly as on the serial paths).
	ChunkSync
	// ChunkTask means the task's final strand ended (the implicit final
	// sync already ran): serial order restores the parent's continuation.
	ChunkTask
	// ChunkRoot means the root task's final strand ended: the stream is
	// complete. Like ChunkTask but with no parent to restore.
	ChunkRoot
)

// Chunk is one strand segment from one executor task: access events only,
// plus the terminator and the task linkage the merge reorders by. Task
// identities are matching keys, never an ordering — they come from a
// racing atomic counter, and determinism is owed entirely to the
// structure-driven reorder walk.
type Chunk struct {
	Batch *Batch
	Task  uint64 // identity of the emitting task
	Idx   uint32 // chunk index within the task (0, 1, ...)
	End   ChunkEnd
	Child uint64 // task identity of the spawned child (ChunkSpawn only)
}

// TaskQueue is the bounded multi-producer/single-consumer chunk queue.
// Any number of executor goroutines Publish; one merge stage Drains.
// Backpressure mirrors Ring: a full queue blocks producers until the
// merge catches up, and Close unblocks everyone for teardown.
type TaskQueue struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	buf      []Chunk
	head     int
	count    int
	closed   bool
	stats    Stats
}

// NewTaskQueue returns a queue holding at most depth in-flight chunks
// (clamped to at least 1).
func NewTaskQueue(depth int) *TaskQueue {
	if depth < 1 {
		depth = 1
	}
	q := &TaskQueue{buf: make([]Chunk, depth)}
	q.notEmpty.L = &q.mu
	q.notFull.L = &q.mu
	return q
}

// Publish enqueues one chunk, blocking while the queue is full. It reports
// false — and leaves the chunk with the caller — when the queue was closed
// (teardown): the caller recycles the batch and keeps unwinding.
func (q *TaskQueue) Publish(c Chunk) bool {
	q.mu.Lock()
	for q.count == len(q.buf) && !q.closed {
		q.stats.ProducerWaits++
		q.notFull.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.buf[(q.head+q.count)%len(q.buf)] = c
	q.count++
	q.stats.BatchesPublished++
	if c.Batch != nil {
		q.stats.EventsPublished += uint64(c.Batch.Len())
		q.stats.StreamBytes += uint64(c.Batch.WireBytes())
	}
	q.notEmpty.Signal()
	q.mu.Unlock()
	return true
}

// Drain appends every queued chunk to dst and returns it, blocking until
// at least one chunk is available. Chunks already queued at Close are
// still delivered; Drain reports ok=false only once the queue is closed
// and empty.
func (q *TaskQueue) Drain(dst []Chunk) ([]Chunk, bool) {
	q.mu.Lock()
	for q.count == 0 && !q.closed {
		q.stats.ConsumerWaits++
		q.notEmpty.Wait()
	}
	if q.count == 0 { // closed and drained
		q.mu.Unlock()
		return dst, false
	}
	for q.count > 0 {
		dst = append(dst, q.buf[q.head])
		q.buf[q.head] = Chunk{}
		q.head = (q.head + 1) % len(q.buf)
		q.count--
	}
	q.notFull.Broadcast()
	q.mu.Unlock()
	return dst, true
}

// Close signals end-of-stream (or teardown). Safe to call more than once
// and from any goroutine; blocked producers and the consumer unblock.
func (q *TaskQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
	q.mu.Unlock()
}

// Reset re-arms a closed (or idle) queue for another run: pending chunks
// are dropped (an aborted run's leftovers — their batches belong to the
// BatchPool, which survives independently), counters zero, and the closed
// flag clears. Must not race with active producers or the consumer.
func (q *TaskQueue) Reset() {
	q.mu.Lock()
	for q.count > 0 {
		q.buf[q.head] = Chunk{}
		q.head = (q.head + 1) % len(q.buf)
		q.count--
	}
	q.head = 0
	q.closed = false
	q.stats = Stats{}
	q.mu.Unlock()
}

// Stats returns a snapshot of the queue counters. EventsPublished and
// StreamBytes cover the chunks' access events; the merge stage accounts
// separately for the structure events it synthesizes from terminators.
func (q *TaskQueue) Stats() Stats {
	q.mu.Lock()
	s := q.stats
	q.mu.Unlock()
	return s
}

// BatchPool is the pipelines' concurrency-safe batch allocator: the serial
// producer's, or the one all executor goroutines and the merge stage share. Get never blocks (it allocates on a dry pool);
// Put bounds the free list so teardown bursts cannot pin memory.
type BatchPool struct {
	mu       sync.Mutex
	free     []*Batch
	batchCap int
	limit    int
	reused   uint64
}

// NewBatchPool returns a pool of compact batches with the given event
// capacity, keeping at most limit free batches (clamped to at least 1;
// batchCap likewise).
func NewBatchPool(limit, batchCap int) *BatchPool {
	if limit < 1 {
		limit = 1
	}
	if batchCap < 1 {
		batchCap = 1
	}
	return &BatchPool{batchCap: batchCap, limit: limit}
}

// Get returns an empty batch — recycled when possible — with the same
// geometry a compact Ring.Get hands out (4*batchCap bytes, at least one
// worst-case frame).
func (p *BatchPool) Get() *Batch {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.reused++
		p.mu.Unlock()
		b.Reset()
		return b
	}
	p.mu.Unlock()
	return &Batch{Buf: make([]byte, 0, compactBufCap(p.batchCap)), compact: true}
}

// Put returns a batch to the pool; beyond the limit it is dropped for the
// garbage collector. Safe from any goroutine (the broadcast ring's last
// Release recycles from whichever worker finishes last).
func (p *BatchPool) Put(b *Batch) {
	if b == nil || cap(b.Buf) == 0 {
		return
	}
	p.mu.Lock()
	if len(p.free) < p.limit {
		p.free = append(p.free, b)
	}
	p.mu.Unlock()
}

// Reset re-arms the pool for another run: the free list — the pool's warm
// capacity — is retained untouched, only the reuse counter rewinds so each
// run's Reused figure stands alone.
func (p *BatchPool) Reset() {
	p.mu.Lock()
	p.reused = 0
	p.mu.Unlock()
}

// Reused returns how many Gets were served from the free list.
func (p *BatchPool) Reused() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reused
}
