package evstream

import (
	"testing"
	"time"
)

func TestRingDeliversInOrder(t *testing.T) {
	r := NewRing(4, 8)
	const n = 1000
	done := make(chan []uint64)
	go func() {
		var got []uint64
		for {
			b, ok := r.Next()
			if !ok {
				break
			}
			for _, ev := range b.Ev {
				got = append(got, ev.Addr())
			}
			r.Recycle(b)
		}
		done <- got
	}()
	b := r.Get()
	for i := uint64(0); i < n; i++ {
		if len(b.Ev) == cap(b.Ev) {
			r.Publish(b)
			b = r.Get()
		}
		b.Ev = append(b.Ev, Access(OpRead, i, 4))
	}
	r.Publish(b)
	r.Close()
	got := <-done
	if len(got) != n {
		t.Fatalf("received %d events, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("event %d has addr %d: order not preserved", i, v)
		}
	}
}

func TestRingBackpressureBlocksProducer(t *testing.T) {
	r := NewRing(1, 1)
	r.Publish(&Batch{Ev: []Event{Ctl(OpRead)}}) // fills the ring
	published := make(chan struct{})
	go func() {
		r.Publish(&Batch{Ev: []Event{Ctl(OpWrite)}}) // must block until Next drains a slot
		close(published)
	}()
	select {
	case <-published:
		t.Fatal("second Publish did not block on a full ring")
	case <-time.After(20 * time.Millisecond):
	}
	if _, ok := r.Next(); !ok {
		t.Fatal("Next on a full ring reported done")
	}
	select {
	case <-published:
	case <-time.After(2 * time.Second):
		t.Fatal("Publish still blocked after Next freed a slot")
	}
	if s := r.Stats(); s.ProducerWaits == 0 {
		t.Error("ProducerWaits not counted")
	}
	r.Close()
}

func TestRingEmptyBatchesFlow(t *testing.T) {
	r := NewRing(2, 4)
	r.Publish(r.Get()) // empty batch
	r.Publish(nil)     // nil batch is also legal
	r.Close()
	for i := 0; i < 2; i++ {
		b, ok := r.Next()
		if !ok {
			t.Fatalf("batch %d: premature done", i)
		}
		if b != nil && len(b.Ev) != 0 {
			t.Fatalf("batch %d has %d events, want 0", i, len(b.Ev))
		}
		r.Recycle(b)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("Next after close+drain reported a batch")
	}
}

func TestRingCloseUnblocksConsumer(t *testing.T) {
	r := NewRing(2, 4)
	done := make(chan bool)
	go func() {
		_, ok := r.Next()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	r.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Next returned a batch from an empty closed ring")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock the consumer")
	}
}

func TestRingReusesBatches(t *testing.T) {
	r := NewRing(2, 16)
	for i := 0; i < 50; i++ {
		b := r.Get()
		b.Ev = append(b.Ev, Access(OpRead, uint64(i), 4))
		r.Publish(b)
		got, ok := r.Next()
		if !ok || len(got.Ev) != 1 {
			t.Fatalf("round %d: bad batch", i)
		}
		r.Recycle(got)
	}
	s := r.Stats()
	if s.BatchesReused < 45 {
		t.Errorf("BatchesReused = %d over 50 rounds: free list not working", s.BatchesReused)
	}
	if s.EventsPublished != 50 || s.BatchesPublished != 50 {
		t.Errorf("stats = %+v, want 50 events in 50 batches", s)
	}
	// Get must hand back reused batches empty.
	if b := r.Get(); b.Len() != 0 {
		t.Errorf("reused batch holds %d events", b.Len())
	}
	r.Close()
}

// TestBatchPoolReuse checks Get/Put recycling, the allocation count, the
// free-list bound, that recycled batches come back empty with their
// geometry intact, and that a shared batch returns to the pool on its last
// Release only.
func TestBatchPoolReuse(t *testing.T) {
	p := NewBatchPool(2, 16)
	b := p.Get()
	if !b.Compact() || cap(b.Buf) != 4*16 {
		t.Fatalf("pool batch: compact=%v cap=%d", b.Compact(), cap(b.Buf))
	}
	b.AppendAccess(OpWrite, 42, 8)
	b.Share(3)
	b.Release(p)
	b.Release(p)
	if len(p.free) != 0 {
		t.Fatal("a batch with a holder left went back to the pool")
	}
	b.Release(p)
	b2 := p.Get()
	if b2 != b {
		t.Fatal("pool did not recycle the released batch")
	}
	if b2.Len() != 0 || len(b2.Buf) != 0 {
		t.Fatal("recycled batch not reset")
	}
	if p.Allocs() != 1 {
		t.Fatalf("Allocs=%d, want 1", p.Allocs())
	}
	// The free list is bounded at the limit; extra Puts drop.
	a, c, d := p.Get(), p.Get(), p.Get()
	p.Put(a)
	p.Put(c)
	p.Put(d)
	if got := len(p.free); got != 2 || p.Allocs() != 4 {
		t.Fatalf("free list holds %d batches after %d allocations, want limit 2 after 4", got, p.Allocs())
	}
}

// TestStatsCountLogicalEventsAndWireBytes pins the meaning of the stream
// counters across encodings: EventsPublished counts logical events no matter
// how a batch stores them, and StreamBytes counts what the batches occupy on
// the wire — 16 bytes per event fixed, len(Buf) compact. The two must never
// drift toward "slots in a batch" again when an encoding changes.
func TestStatsCountLogicalEventsAndWireBytes(t *testing.T) {
	fixed := NewRing(2, 8)
	fb := fixed.Get()
	fb.AppendCtl(OpSpawn)
	fb.AppendAccess(OpRead, 0x1000, 4)
	fb.AppendRange(OpWriteRange, 0x2000, 16, 8)
	fixed.Publish(fb)
	if s := fixed.Stats(); s.EventsPublished != 3 || s.StreamBytes != 48 {
		t.Errorf("fixed ring stats = %d events, %d bytes; want 3 events, 48 bytes", s.EventsPublished, s.StreamBytes)
	}
	fixed.Close()

	compact := NewCompactRing(2, 32) // room for all three frames
	cb := compact.Get()
	cb.AppendCtl(OpSpawn)
	cb.AppendAccess(OpRead, 0x1000, 4)
	cb.AppendRange(OpWriteRange, 0x2000, 16, 8)
	wire := uint64(cb.WireBytes())
	compact.Publish(cb)
	if s := compact.Stats(); s.EventsPublished != 3 || s.StreamBytes != wire {
		t.Errorf("compact ring stats = %d events, %d bytes; want 3 events, %d bytes", s.EventsPublished, s.StreamBytes, wire)
	}
	if s := compact.Stats(); s.StreamBytes >= 48 {
		t.Errorf("compact batch occupies %d wire bytes, want under the fixed 48", s.StreamBytes)
	}
	compact.Close()
}

func TestPublishAfterCloseReportsFalse(t *testing.T) {
	r := NewRing(2, 4)
	if !r.Publish(&Batch{Ev: []Event{Ctl(OpRead)}}) {
		t.Fatal("Publish on an open ring reported false")
	}
	r.Close()
	if r.Publish(&Batch{Ev: []Event{Ctl(OpRead)}}) {
		t.Fatal("Publish after Close reported ok")
	}
}

func TestCloseUnblocksBlockedPublish(t *testing.T) {
	r := NewRing(1, 1)
	r.Publish(&Batch{Ev: []Event{Ctl(OpRead)}}) // fills the ring
	result := make(chan bool)
	go func() {
		result <- r.Publish(&Batch{Ev: []Event{Ctl(OpWrite)}}) // blocks on full ring
	}()
	time.Sleep(10 * time.Millisecond)
	r.Close()
	select {
	case ok := <-result:
		if ok {
			t.Fatal("Publish unblocked by Close reported ok")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock the stuck Publish")
	}
}

func TestNewRingClampsArguments(t *testing.T) {
	r := NewRing(0, -3)
	if r.BatchCap() != 1 {
		t.Errorf("BatchCap = %d, want clamp to 1", r.BatchCap())
	}
	r.Publish(&Batch{Ev: []Event{Ctl(OpRead)}})
	if b, ok := r.Next(); !ok || len(b.Ev) != 1 {
		t.Error("clamped ring does not deliver")
	}
	r.Close()
}

func TestRangeRejectsOversizeOperands(t *testing.T) {
	// In-range operands at the field boundaries must round-trip exactly.
	ev := Range(OpReadRange, 64, MaxRangeCount, MaxRangeElem)
	if ev.Count() != MaxRangeCount || ev.Elem() != MaxRangeElem {
		t.Fatalf("boundary range decoded as count=%d elem=%d", ev.Count(), ev.Elem())
	}
	for _, tc := range []struct {
		name  string
		count int
		elem  uint64
	}{
		{"negative count", -1, 8},
		{"oversize elem", 4, MaxRangeElem + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Range did not panic", tc.name)
				}
			}()
			Range(OpReadRange, 0, tc.count, tc.elem)
		}()
	}
}
