package evstream

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// appendFromBatch builds a compact batch of n pseudo-random access/range
// events, with occasional wild address jumps and escaped operand sizes so
// AppendFrom's rebase path sees multi-byte deltas.
func appendFromBatch(rng *rand.Rand, n int, base uint64) (*Batch, []Event) {
	b := newCompactBatch(127)
	var want []Event
	addr := base
	for i := 0; i < n; i++ {
		switch rng.Intn(8) {
		case 0:
			addr = rng.Uint64() // wild jump
		default:
			addr += uint64(rng.Intn(128)) * 8
		}
		switch rng.Intn(4) {
		case 0:
			ev := Range(OpWriteRange, addr, 1+rng.Intn(1000), uint64(1+rng.Intn(64)))
			b.AppendRange(ev.EvOp(), ev.Addr(), ev.Count(), ev.Elem())
			want = append(want, ev)
		default:
			size := uint64(1 + rng.Intn(8))
			if rng.Intn(8) == 0 {
				size = uint64(31 + rng.Intn(1000)) // escaped operand
			}
			op := OpRead
			if rng.Intn(2) == 0 {
				op = OpWrite
			}
			b.AppendAccess(op, addr, size)
			want = append(want, Access(op, addr, size))
		}
	}
	return b, want
}

func drainBatch(t *testing.T, b *Batch) []Event {
	t.Helper()
	return decodeBlocks(b)
}

// TestAppendFromRoundTrip concatenates many source batches into one
// accumulator and checks the accumulator decodes to exactly the sources'
// events in order — including across the delta-rebased boundary — and
// that direct appends after an AppendFrom continue from the inherited
// delta base.
func TestAppendFromRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	out := newCompactBatch(2047)
	var want []Event
	for i := 0; i < 40; i++ {
		src, evs := appendFromBatch(rng, 1+rng.Intn(50), rng.Uint64())
		if !out.AppendFrom(src) {
			t.Fatal("AppendFrom reported no room in a large accumulator")
		}
		want = append(want, evs...)
		// Interleave direct appends: they must delta from the source's
		// final base, not a stale one.
		b := uint64(0xdead0000 + i)
		out.AppendAccess(OpWrite, b, 8)
		want = append(want, Access(OpWrite, b, 8))
	}
	got := drainBatch(t, out)
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if out.Len() != len(want) {
		t.Fatalf("Len=%d, want %d", out.Len(), len(want))
	}
}

// TestAppendFromSeam checks the one frame AppendFrom re-encodes: whatever
// the widths of the source's own first delta and of the seam's — one byte or
// ten, forward or backward — the accumulator ends up byte for byte what
// appending the events directly would have produced.
func TestAppendFromSeam(t *testing.T) {
	for _, tc := range []struct{ dstAddr, srcAddr uint64 }{
		{0x1000, 0x1008},    // multi-byte in src, one byte across the seam
		{1 << 40, 0x10},     // one byte in src, six bytes backward across the seam
		{0x10, 1 << 40},     // six bytes in src, six forward across the seam
		{1 << 63, 1},        // ten bytes backward
		{1, 1 << 63},        // ten bytes in src, ten forward
		{1<<64 - 1, 0},      // the address-space wrap: +1
		{0x2000, 0x2000},    // zero delta
		{0, 1<<64 - 0x1000}, // backward through zero
	} {
		src, direct, out := newCompactBatch(4), newCompactBatch(4), newCompactBatch(4)
		for _, b := range []*Batch{direct, out} {
			b.AppendAccess(OpWrite, tc.dstAddr, 8)
		}
		for _, b := range []*Batch{direct, src} {
			b.AppendAccess(OpRead, tc.srcAddr, 300)
			b.AppendRange(OpWriteRange, tc.srcAddr+64, 1000, 8)
		}
		if !out.AppendFrom(src) {
			t.Fatalf("%#x -> %#x: AppendFrom reported no room", tc.dstAddr, tc.srcAddr)
		}
		for _, b := range []*Batch{direct, out} {
			b.AppendAccess(OpRead, tc.srcAddr+72, 8) // continues from the inherited base
		}
		if !bytes.Equal(out.Buf, direct.Buf) || out.Len() != direct.Len() {
			t.Errorf("%#x -> %#x: merged %d events as % x, direct appends give %d as % x",
				tc.dstAddr, tc.srcAddr, out.Len(), out.Buf, direct.Len(), direct.Buf)
		}
	}
}

// TestAppendFromNoRoom checks the no-room path leaves the destination
// bit-for-bit untouched, and that an empty source always fits.
func TestAppendFromNoRoom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dst := newCompactBatch(1)
	dst.AppendAccess(OpRead, 0x1000, 8)
	wantLen, wantWire := dst.Len(), dst.WireBytes()
	src, _ := appendFromBatch(rng, 200, 0x2000)
	if dst.AppendFrom(src) {
		t.Fatal("200 events reported as fitting a tiny batch")
	}
	if dst.Len() != wantLen || dst.WireBytes() != wantWire {
		t.Fatal("failed AppendFrom mutated the destination")
	}
	if !dst.AppendFrom(newCompactBatch(1)) {
		t.Fatal("empty source must always fit")
	}
	if dst.Len() != wantLen {
		t.Fatal("empty AppendFrom changed Len")
	}
}

// TestTaskQueuePublishDrain pushes chunks from several producer goroutines
// through a shallow queue and checks nothing is lost or duplicated, the
// stats add up, and Close delivers already-queued chunks before reporting
// end-of-stream.
func TestTaskQueuePublishDrain(t *testing.T) {
	const producers, perProducer = 4, 200
	q := NewTaskQueue(2) // shallow: forces producer waits
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				b := &Batch{Ev: make([]Event, 0, 4)}
				b.AppendAccess(OpRead, uint64(i), 8)
				if !q.Publish(Chunk{Batch: b, Task: uint64(p), Idx: uint32(i), End: ChunkCut}) {
					t.Error("Publish reported closed on an open queue")
					return
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); q.Close(); close(done) }()

	seen := make(map[[2]uint64]bool)
	var buf []Chunk
	for {
		var ok bool
		buf, ok = q.Drain(buf[:0])
		for _, c := range buf {
			k := [2]uint64{c.Task, uint64(c.Idx)}
			if seen[k] {
				t.Fatalf("duplicate chunk %v", k)
			}
			seen[k] = true
		}
		if !ok {
			break
		}
	}
	<-done
	if len(seen) != producers*perProducer {
		t.Fatalf("drained %d chunks, want %d", len(seen), producers*perProducer)
	}
	s := q.Stats()
	if s.BatchesPublished != producers*perProducer {
		t.Fatalf("BatchesPublished=%d, want %d", s.BatchesPublished, producers*perProducer)
	}
	if s.EventsPublished != producers*perProducer {
		t.Fatalf("EventsPublished=%d, want %d (one event per chunk)", s.EventsPublished, producers*perProducer)
	}
	if s.StreamBytes == 0 {
		t.Fatal("StreamBytes = 0 after publishing non-empty batches")
	}
}

// TestTaskQueueCloseUnblocks checks that Close releases a producer blocked
// on a full queue (reporting false) and a consumer blocked on an empty one.
func TestTaskQueueCloseUnblocks(t *testing.T) {
	q := NewTaskQueue(1)
	if !q.Publish(Chunk{Task: 1}) {
		t.Fatal("first Publish failed")
	}
	blocked := make(chan bool)
	go func() {
		blocked <- q.Publish(Chunk{Task: 2}) // queue full: blocks until Close
	}()
	select {
	case <-blocked:
		t.Fatal("Publish did not block on a full queue")
	case <-time.After(10 * time.Millisecond):
	}
	q.Close()
	if ok := <-blocked; ok {
		t.Fatal("Publish on a closed queue reported ok")
	}
	// The pre-close chunk is still delivered; then end-of-stream.
	buf, ok := q.Drain(nil)
	if !ok || len(buf) != 1 || buf[0].Task != 1 {
		t.Fatalf("Drain after close = (%v, %v), want the one queued chunk", buf, ok)
	}
	if _, ok := q.Drain(nil); ok {
		t.Fatal("Drain on a closed empty queue reported ok")
	}
	if q.Publish(Chunk{}) {
		t.Fatal("Publish after Close reported ok")
	}
	q.Close() // idempotent
}

// TestBatchPoolReuse checks Get/Put recycling, the free-list bound, and
// that recycled batches come back empty with their geometry intact.
func TestBatchPoolReuse(t *testing.T) {
	p := NewBatchPool(2, 16)
	b := p.Get()
	if !b.Compact() || cap(b.Buf) != 4*16 {
		t.Fatalf("pool batch: compact=%v cap=%d", b.Compact(), cap(b.Buf))
	}
	b.AppendAccess(OpWrite, 42, 8)
	p.Put(b)
	b2 := p.Get()
	if b2 != b {
		t.Fatal("pool did not recycle the freed batch")
	}
	if b2.Len() != 0 || len(b2.Buf) != 0 {
		t.Fatal("recycled batch not reset")
	}
	if p.Reused() != 1 {
		t.Fatalf("Reused=%d, want 1", p.Reused())
	}
	// The free list is bounded at the limit; extra Puts drop.
	a, c, d := p.Get(), p.Get(), p.Get()
	p.Put(a)
	p.Put(c)
	p.Put(d)
	if got := len(p.free); got != 2 {
		t.Fatalf("free list holds %d batches, want limit 2", got)
	}
}
