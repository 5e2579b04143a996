package evstream

import "sync"

// BcastRing is a bounded single-producer/multi-consumer broadcast ring:
// every published message is delivered to every consumer, in publish order.
// It is the pipelines' one transport — the serial producer (or
// ParallelDetect's merge stage) publishes each batch once, and all shard
// workers scan the same batch concurrently.
//
// Delivery is cursor-based: consumer i advances its own cursor with
// Next(i), so a slot is logically consumed only once the slowest consumer
// has passed it. Reclamation is refcount-based: each slot starts with one
// reference per consumer, Release(i) drops consumer i's reference to the
// slot it most recently took, and the last release recycles the message
// through the onFree callback. Publish blocks while its target slot still
// holds references (backpressure on the slowest consumer), bounding the
// pipeline at depth in-flight messages.
//
// Exactly one goroutine may call Publish/Close; consumer index i must be
// used by exactly one goroutine at a time, alternating Next(i)/Release(i).
// onFree runs outside the ring lock, on whichever consumer goroutine
// dropped the last reference — possibly concurrently for different slots.
type BcastRing[M any] struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	slots    []bcastSlot[M]
	tail     uint64   // absolute sequence of the next publish
	cursors  []uint64 // per-consumer absolute sequence of the next read
	released []uint64 // per-consumer absolute sequence of the next release
	waits    []uint64 // per-consumer blocking episodes in Next
	closed   bool
	onFree   func(M)
	stats    Stats
}

type bcastSlot[M any] struct {
	m    M
	refs int // consumers that have not yet released this slot
}

// NewBcastRing returns a broadcast ring of depth slots feeding consumers
// readers. onFree, if non-nil, receives each message once after the last
// consumer releases it; it must be safe to call from any consumer
// goroutine. depth and consumers are clamped to at least 1.
func NewBcastRing[M any](depth, consumers int, onFree func(M)) *BcastRing[M] {
	if depth < 1 {
		depth = 1
	}
	if consumers < 1 {
		consumers = 1
	}
	r := &BcastRing[M]{
		slots:    make([]bcastSlot[M], depth),
		cursors:  make([]uint64, consumers),
		released: make([]uint64, consumers),
		waits:    make([]uint64, consumers),
		onFree:   onFree,
	}
	r.notEmpty.L = &r.mu
	r.notFull.L = &r.mu
	return r
}

// Consumers returns the number of consumer cursors.
func (r *BcastRing[M]) Consumers() int { return len(r.cursors) }

// Publish broadcasts m to every consumer, blocking while the target slot is
// still referenced — i.e. until the slowest consumer is fewer than depth
// messages behind and has released the slot's previous occupant. It reports
// false — and drops m without delivering it — when the ring was closed,
// including while Publish was blocked waiting for the slot: during an early
// teardown (a consumer aborting mid-stream) Close must unblock a stuck
// producer rather than strand it, and the producer uses the false return to
// unwind and recycle what it still holds.
func (r *BcastRing[M]) Publish(m M) (ok bool) {
	r.mu.Lock()
	slot := &r.slots[r.tail%uint64(len(r.slots))]
	for slot.refs > 0 && !r.closed {
		r.stats.ProducerWaits++
		r.notFull.Wait()
	}
	if r.closed {
		r.mu.Unlock()
		return false
	}
	slot.m = m
	slot.refs = len(r.cursors)
	r.tail++
	r.stats.BatchesPublished++
	r.notEmpty.Broadcast()
	r.mu.Unlock()
	return true
}

// Close signals end-of-stream. Consumers drain the messages already
// published, then Next reports ok=false.
func (r *BcastRing[M]) Close() {
	r.mu.Lock()
	r.closed = true
	r.notEmpty.Broadcast()
	r.notFull.Broadcast()
	r.mu.Unlock()
}

// Next returns the oldest message consumer i has not yet taken, blocking
// while none is available. ok is false once the ring is closed and consumer
// i has taken everything published before Close.
func (r *BcastRing[M]) Next(i int) (m M, ok bool) {
	r.mu.Lock()
	for r.cursors[i] == r.tail && !r.closed {
		r.stats.ConsumerWaits++
		r.waits[i]++
		r.notEmpty.Wait()
	}
	if r.cursors[i] == r.tail { // closed and drained for this consumer
		r.mu.Unlock()
		return m, false
	}
	m = r.slots[r.cursors[i]%uint64(len(r.slots))].m
	r.cursors[i]++
	r.mu.Unlock()
	return m, true
}

// Release drops consumer i's reference to the message it most recently took
// with Next. The last consumer to release a slot recycles its message
// through onFree and unblocks a waiting Publish. Releasing more slots than
// taken panics.
func (r *BcastRing[M]) Release(i int) {
	r.mu.Lock()
	if r.released[i] >= r.cursors[i] {
		r.mu.Unlock()
		panic("evstream: Release without a matching Next on BcastRing")
	}
	slot := &r.slots[r.released[i]%uint64(len(r.slots))]
	r.released[i]++
	slot.refs--
	last := slot.refs == 0
	var m M
	if last {
		m = slot.m
		var zero M
		slot.m = zero
		r.notFull.Signal()
	}
	r.mu.Unlock()
	if last && r.onFree != nil {
		r.onFree(m)
	}
}

// Stats returns a snapshot of the ring counters. Call it after the pipeline
// has drained for exact values. Stats.ConsumerWaits aggregates every
// consumer; use ConsumerWaits(i) to attribute waits to one consumer (a
// uniformly waiting fleet means the producer is the bottleneck, a single
// low-wait outlier is the straggler the rest are pacing behind).
func (r *BcastRing[M]) Stats() Stats {
	r.mu.Lock()
	s := r.stats
	r.mu.Unlock()
	return s
}

// Reset re-arms a closed (or idle) broadcast ring for another run: slots,
// cursors, release marks, and counters all clear and the closed flag drops.
// Messages still referenced in slots — possible only after an aborted run —
// are recycled through onFree before being dropped. Reset must not race
// with an active producer or any consumer.
func (r *BcastRing[M]) Reset() {
	r.mu.Lock()
	var orphans []M
	for i := range r.slots {
		if r.slots[i].refs > 0 {
			orphans = append(orphans, r.slots[i].m)
		}
		r.slots[i] = bcastSlot[M]{}
	}
	r.tail = 0
	clear(r.cursors)
	clear(r.released)
	clear(r.waits)
	r.closed = false
	r.stats = Stats{}
	r.mu.Unlock()
	if r.onFree != nil {
		for _, m := range orphans {
			r.onFree(m)
		}
	}
}

// ConsumerWaits returns the number of blocking episodes consumer i spent in
// Next waiting for a publish.
func (r *BcastRing[M]) ConsumerWaits(i int) uint64 {
	r.mu.Lock()
	w := r.waits[i]
	r.mu.Unlock()
	return w
}
