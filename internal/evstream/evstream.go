// Package evstream carries instrumentation events from an executing
// fork-join program (the producer) to the detector workers (the consumers)
// in batches. Batches store events in the compact wire format of compact.go
// — one frame per event, a tag byte plus varint operands, about 3 bytes for
// the common interval; the fixed form (16-byte structs, NewRing) is kept as
// the reference the codec's tests and benchmarks compare against, and no
// pipeline builds it.
//
// The design goals mirror the runner's hot-path discipline:
//
//   - Events are appended to a batch with a plain slice append — no lock,
//     no channel, no allocation on the access hook path.
//   - Synchronization happens once per batch, not once per event: one
//     handoff per batch, amortized over the batch size (a few hundred
//     interval events by default at the stint layer).
//   - Consumed batches return to a free list and are reused, so a
//     steady-state pipeline allocates a fixed set of batches regardless of
//     how many events flow through it.
//   - The handoffs are bounded: when the consumers fall behind, the
//     producer blocks (backpressure) instead of queueing unbounded memory.
//
// The pipelines hand batches over buffered Go channels (the root package's
// shards.go): a batch from a BatchPool is sent to every shard worker,
// scanned by each, and returned to the pool by its last Release; under
// ParallelDetect the executor tasks send Chunks to the merge the same way.
// Ring, the single-consumer ring with an integrated free list, is the
// transport's reference form: no pipeline builds one any more, the
// benchmark's codec isolation still does.
package evstream

import (
	"sync"
	"sync/atomic"
)

// Op identifies an event kind. The vocabulary is the runner's Tracer
// interface: the spawn/restore/sync structure plus the four access hooks.
// Strand boundaries are not represented explicitly — the consumer derives
// them from the structure events exactly as the inline detector derives
// them from the runner's call sites.
type Op uint8

const (
	// OpSpawn marks the start of a spawned child task.
	OpSpawn Op = 1 + iota
	// OpRestore marks a child's return to its parent's continuation.
	OpRestore
	// OpSync marks a strand-creating sync (no-op syncs are elided by the
	// producer, matching the Tracer contract).
	OpSync
	// OpRead and OpWrite are per-access hooks: Addr is the address, A the
	// access size in bytes.
	OpRead
	OpWrite
	// OpReadRange and OpWriteRange are compiler-coalesced hooks: Addr is
	// the base address, A the element count, B the element size in bytes.
	OpReadRange
	OpWriteRange
)

// Event is one instrumentation event, packed into 16 bytes so the stream
// moves half the memory a naive struct would: word holds the op in its low
// byte and the op-specific operands above it, addr the address (unused by
// structure events). Producers build Events with Access, Range, and Ctl;
// consumers read them back through the typed accessors.
type Event struct {
	word uint64
	addr uint64
}

// Access builds a per-access event (OpRead/OpWrite): size is the access
// size in bytes, carried in the 56 bits above the op byte. Sizes beyond
// MaxAccessSize panic rather than truncate into the op; the stint hook
// layer validates raw-address accesses before encoding.
func Access(op Op, addr, size uint64) Event {
	if size > MaxAccessSize {
		panic("evstream: access size does not fit the 56-bit size field")
	}
	return Event{word: uint64(op) | size<<8, addr: addr}
}

// MaxRangeCount and MaxRangeElem bound what a range event can encode: the
// count rides in the word's high 32 bits and the element size in the 24
// bits above the op byte. Values beyond them would silently truncate into
// the neighboring field, so Range rejects them; callers (the stint hook
// layer, the trace decoder) validate before encoding.
const (
	MaxRangeCount = 1<<32 - 1
	MaxRangeElem  = 1<<24 - 1
)

// Range builds a compiler-coalesced range event (OpReadRange/OpWriteRange):
// elem is the element size in bytes (low 24 bits above the op byte), count
// the element count (high 32 bits). Operands outside those fields panic
// rather than truncate — a truncated range would mis-split silently.
func Range(op Op, addr uint64, count int, elem uint64) Event {
	checkRangeFields(count, elem)
	return Event{word: uint64(op) | elem<<8 | uint64(count)<<32, addr: addr}
}

// Ctl builds a structure event (OpSpawn/OpRestore/OpSync).
func Ctl(op Op) Event { return Event{word: uint64(op)} }

// EvOp returns the event's op.
func (e Event) EvOp() Op { return Op(e.word) }

// Addr returns the address of an access or range event.
func (e Event) Addr() uint64 { return e.addr }

// Size returns the access size of an OpRead/OpWrite event.
func (e Event) Size() uint64 { return e.word >> 8 }

// Count returns the element count of a range event.
func (e Event) Count() int { return int(e.word >> 32) }

// Elem returns the element size of a range event.
func (e Event) Elem() uint64 { return (e.word >> 8) & 0xffffff }

// Stats counts ring activity, for observability and backpressure tuning.
// Read it only after the pipeline has drained (Close + final Next).
type Stats struct {
	// EventsPublished counts logical events (structure and access events
	// alike) across all published batches, independent of how the batches
	// encode them; BatchesPublished counts the batches. Their meanings are
	// pinned by tests so the two cannot drift apart again when an encoding
	// changes what a "slot" in a batch is.
	EventsPublished  uint64
	BatchesPublished uint64
	// StreamBytes counts wire bytes: what the published batches actually
	// occupy (len(Buf) for compact batches, 16 bytes per event otherwise).
	// StreamBytes/EventsPublished is the stream's bytes-per-event figure.
	StreamBytes uint64
	// BatchesReused counts Get calls served from the free list rather than
	// a fresh allocation; at steady state it tracks BatchesPublished.
	BatchesReused uint64
	// ProducerWaits and ConsumerWaits count blocking episodes: the
	// producer waiting on a full ring (detection is the bottleneck) and
	// the consumer waiting on an empty ring (execution is the bottleneck).
	ProducerWaits uint64
	ConsumerWaits uint64
}

// Batch is the unit a pipeline moves: the events in one of two storage
// forms, and nothing beside them. The producer owns a batch from Get until
// it hands the batch on; a broadcast batch is shared by its consumers until
// the last Release.
//
// Exactly one storage form is active per batch: fixed batches (from
// NewRing, and zero-value Batch literals) hold 16-byte Events in Ev;
// compact batches (from NewCompactRing and BatchPool) hold one frame per
// event in Buf — see compact.go for the wire format. The Append methods fill
// whichever form is active, and Iter scans either; consumers written
// against Iter and Len never care which form they got. Beyond the storage a
// compact batch is a count, a delta base and its holders' reference count —
// no staging state, so a Batch is 72 bytes (a test pins it under 80).
//
// A parked batch (Park) is a third kind: a read-only compact view of frames
// copied into someone else's store. It belongs to that store, not to a pool.
type Batch struct {
	Ev  []Event
	Buf []byte

	n       int    // compact form: event count
	prev    uint64 // compact form: delta base (last interval address)
	compact bool
	parked  bool
	refs    atomic.Int32 // holders left to Release (Share)
}

// Share arms the batch for n holders, before it is handed to any of them.
func (b *Batch) Share(n int) { b.refs.Store(int32(n)) }

// Release drops one holder's reference; the last one returns the batch to
// p. Safe from any goroutine.
func (b *Batch) Release(p *BatchPool) {
	if b.refs.Add(-1) == 0 {
		p.Put(b)
	}
}

// Park copies src's frames to the end of store and makes b a view of the
// copy, which AppendFrom and Iter read as they would src; it returns the
// grown store. The caller keeps room for the frames (len(src.Buf) bytes of
// spare capacity) so the copy never moves store, and with it no earlier
// view. A view holds no pooled memory: it must never reach BatchPool.Put or
// Release, and Put panics on one.
func (b *Batch) Park(src *Batch, store []byte) []byte {
	k := len(store)
	if !src.compact || cap(store)-k < len(src.Buf) {
		panic("evstream: Park needs a compact source and room in the store")
	}
	store = append(store, src.Buf...)
	*b = Batch{Buf: store[k:len(store):len(store)], n: src.n, prev: src.prev, compact: true, parked: true}
	return store
}

// Parked reports whether b is a view made by Park.
func (b *Batch) Parked() bool { return b.parked }

// Chunk is one strand segment from one parallel-detect executor task:
// access events only (Batch is nil when the segment has none), plus the task linkage the merge reorders by
// (internal/stage.Reorder) and the structure event that ended it. End is 0
// for a mid-strand cut (the batch filled; the strand continues in the
// task's next chunk), OpSpawn with Child naming the spawned task, OpSync for
// a strand-creating sync, or OpRestore for the task's end — the root's ends
// the stream. Structure events never ride in-band, so the merge both
// reorders by them and writes them into the serial stream without decoding
// a single event. Task identities are matching keys, never an ordering —
// they come from a racing atomic counter, and determinism is owed entirely
// to the structure-driven reorder walk.
type Chunk struct {
	Batch *Batch
	Task  uint64 // identity of the emitting task
	Idx   uint32 // chunk index within the task (0, 1, ...)
	End   Op
	Child uint64 // task identity of the spawned child (OpSpawn only)
}

// BatchPool is the pipelines' concurrency-safe batch allocator: the serial
// producer's, or the one all executor goroutines and the merge stage share.
// Get never blocks (it allocates on a dry pool); Put bounds the free list so
// teardown bursts cannot pin memory.
type BatchPool struct {
	mu       sync.Mutex
	free     []*Batch
	batchCap int
	limit    int
	allocs   uint64
}

// NewBatchPool returns a pool of compact batches with the given event
// capacity, keeping at most limit free batches (clamped to at least 1;
// batchCap likewise).
func NewBatchPool(limit, batchCap int) *BatchPool {
	return &BatchPool{batchCap: max(batchCap, 1), limit: max(limit, 1)}
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
		p.mu.Unlock()
		b.Reset()
		return b
	}
	p.allocs++
	p.mu.Unlock()
	return &Batch{Buf: make([]byte, 0, compactBufCap(p.batchCap)), compact: true}
}

// Put returns a batch to the pool; beyond the limit it is dropped for the
// garbage collector. Safe from any goroutine (a broadcast batch's last
// Release recycles from whichever worker finishes last). A parked view
// panics: its bytes are a store's, and a pool that lent them out again
// would corrupt the view's owner.
func (p *BatchPool) Put(b *Batch) {
	if b == nil || cap(b.Buf) == 0 {
		return
	}
	if b.parked {
		panic("evstream: a parked view reached BatchPool.Put")
	}
	p.mu.Lock()
	if len(p.free) < p.limit {
		p.free = append(p.free, b)
	}
	p.mu.Unlock()
}

// Allocs returns how many Gets found the pool dry and allocated, over the
// pool's life.
func (p *BatchPool) Allocs() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.allocs
}

// Ring is a bounded SPSC queue of event batches with an integrated batch
// free list. All methods are safe for the one-producer/one-consumer
// pattern; none may be called concurrently from two producers or two
// consumers.
type Ring struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	buf      []*Batch // circular queue of published batches
	head     int      // index of the oldest published batch
	count    int      // published batches currently in the ring
	closed   bool
	free     []*Batch // recycled batches awaiting reuse
	batchCap int
	compact  bool
	stats    Stats
}

// NewRing returns a ring holding at most depth in-flight batches of
// batchCap fixed-size events each — the reference form; pipelines use
// NewCompactRing. Both are clamped to at least 1.
func NewRing(depth, batchCap int) *Ring {
	return newRing(depth, batchCap, false)
}

// NewCompactRing returns a ring whose batches carry the compact encoding
// (see compact.go) in a buffer of 4*batchCap bytes (at least MaxEventBytes)
// — a quarter of the fixed ring's per-batch footprint, yet at the ~3-byte
// common frame still a third more events per ring synchronization.
func NewCompactRing(depth, batchCap int) *Ring {
	return newRing(depth, batchCap, true)
}

func newRing(depth, batchCap int, compact bool) *Ring {
	if depth < 1 {
		depth = 1
	}
	if batchCap < 1 {
		batchCap = 1
	}
	r := &Ring{buf: make([]*Batch, depth), batchCap: batchCap, compact: compact}
	r.notEmpty.L = &r.mu
	r.notFull.L = &r.mu
	return r
}

// BatchCap returns the per-batch event capacity.
func (r *Ring) BatchCap() int { return r.batchCap }

// Get returns an empty batch for the producer to fill — BatchCap event
// capacity on a fixed ring, 4*BatchCap bytes (at least one worst-case
// frame, so an append never grows the buffer) on a compact ring — reusing
// a recycled batch when one is available.
func (r *Ring) Get() *Batch {
	r.mu.Lock()
	if n := len(r.free); n > 0 {
		b := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		r.stats.BatchesReused++
		r.mu.Unlock()
		b.Reset()
		return b
	}
	r.mu.Unlock()
	if r.compact {
		return &Batch{Buf: make([]byte, 0, compactBufCap(r.batchCap)), compact: true}
	}
	return &Batch{Ev: make([]Event, 0, r.batchCap)}
}

// Publish hands a filled batch to the consumer, blocking while the ring is
// full (backpressure). Empty and nil batches are legal and flow through
// like any other. Publish reports false — and drops the batch — when the
// ring was closed underneath a blocked or late producer, so teardown paths
// (an abort closing the ring while the producer is mid-flush) unwind
// cleanly instead of panicking.
func (r *Ring) Publish(b *Batch) (ok bool) {
	r.mu.Lock()
	for r.count == len(r.buf) && !r.closed {
		r.stats.ProducerWaits++
		r.notFull.Wait()
	}
	if r.closed {
		r.mu.Unlock()
		return false
	}
	r.buf[(r.head+r.count)%len(r.buf)] = b
	r.count++
	r.stats.BatchesPublished++
	if b != nil {
		r.stats.EventsPublished += uint64(b.Len())
		r.stats.StreamBytes += uint64(b.WireBytes())
	}
	r.notEmpty.Signal()
	r.mu.Unlock()
	return true
}

// Close signals end-of-stream. The consumer drains the batches already
// published, then Next reports done.
func (r *Ring) Close() {
	r.mu.Lock()
	r.closed = true
	r.notEmpty.Broadcast()
	r.notFull.Broadcast()
	r.mu.Unlock()
}

// Next returns the oldest published batch, blocking while the ring is
// empty. It returns ok=false once the ring is closed and fully drained.
func (r *Ring) Next() (b *Batch, ok bool) {
	r.mu.Lock()
	for r.count == 0 && !r.closed {
		r.stats.ConsumerWaits++
		r.notEmpty.Wait()
	}
	if r.count == 0 { // closed and drained
		r.mu.Unlock()
		return nil, false
	}
	b = r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.count--
	r.notFull.Signal()
	r.mu.Unlock()
	return b, true
}

// Recycle returns a consumed batch to the free list. The free list is
// bounded by the ring depth plus the producer's working batch, so a
// misbehaving caller cannot grow it without bound. Unlike the other
// methods, Recycle is safe to call from any goroutine.
func (r *Ring) Recycle(b *Batch) {
	if b == nil || (cap(b.Ev) == 0 && cap(b.Buf) == 0) {
		return
	}
	r.mu.Lock()
	if len(r.free) < len(r.buf)+1 {
		r.free = append(r.free, b)
	}
	r.mu.Unlock()
}

// Stats returns a snapshot of the ring counters. Call it after the
// pipeline has drained for exact values.
func (r *Ring) Stats() Stats {
	r.mu.Lock()
	s := r.stats
	r.mu.Unlock()
	return s
}

// Reset re-arms a closed (or idle) ring for another run: the closed flag
// and counters clear, any batches still parked in the queue — an aborted
// run may leave some undelivered — retire to the free list, and the free
// list itself is retained, so the next run's Gets reuse the same warm
// batches. Reset must not race with an active producer or consumer; call
// it only after the previous run has fully wound down.
func (r *Ring) Reset() {
	r.mu.Lock()
	for r.count > 0 {
		b := r.buf[r.head]
		r.buf[r.head] = nil
		r.head = (r.head + 1) % len(r.buf)
		r.count--
		if b != nil && len(r.free) < len(r.buf)+1 {
			r.free = append(r.free, b)
		}
	}
	r.head = 0
	r.closed = false
	r.stats = Stats{}
	r.mu.Unlock()
}
