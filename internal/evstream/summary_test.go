package evstream

import (
	"math/rand"
	"testing"
)

// eventMask stamps a decoded event the way a producer stamps its hook
// operands: SpanMask over the event's address and total byte span.
func eventMask(ev Event, pageBits uint, shards int) uint64 {
	size := ev.Size()
	if op := ev.EvOp(); op == OpReadRange || op == OpWriteRange {
		size = rangeBytes(ev)
	}
	return SpanMask(ev.Addr(), size, pageBits, shards)
}

// TestSpanMaskCoversEverySplitPiece is the exactness property the worker
// fast path rests on: for any access or range event, every page PageSplit
// emits maps to a shard whose mask bit SpanMask set. A clear bit
// therefore proves the worker owns no piece of the event.
func TestSpanMaskCoversEverySplitPiece(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(6)
		var ev Event
		switch trial % 3 {
		case 0:
			ev = Access(OpRead, rng.Uint64()%(1<<21), uint64(rng.Intn(1<<18)))
		case 1:
			ev = Access(OpWrite, rng.Uint64()%(1<<21), uint64(rng.Intn(64)))
		default:
			elem := uint64(rng.Intn(8) + 1)
			ev = Range(OpWriteRange, rng.Uint64()%(1<<21), rng.Intn(1<<15), elem)
		}
		mask := eventMask(ev, 16, n)
		PageSplit(ev, 16, func(page uint64, _ Event) {
			s := PickShard(page, n)
			if mask&(1<<(uint(s)&63)) == 0 {
				t.Fatalf("trial %d: event %+v page %d shard %d not covered by mask %#x",
					trial, ev, page, s, mask)
			}
		})
	}
}

func TestSpanMaskTwoPageSpanIsExact(t *testing.T) {
	const pageBytes = 1 << 16
	// Straddles pages 0 and 1 only: exactly their two shard bits, not all-ones.
	mask := SpanMask(pageBytes-8, 16, 16, 4)
	want := uint64(1)<<(uint(PickShard(0, 4))&63) | uint64(1)<<(uint(PickShard(1, 4))&63)
	if mask != want {
		t.Fatalf("straddle mask = %#x, want %#x", mask, want)
	}
	if mask == MaskAll {
		t.Fatal("two-page straddle must not fall back to MaskAll")
	}
}

func TestSpanMaskWideSpanFallsBackToMaskAll(t *testing.T) {
	const pageBytes = 1 << 16
	// Three pages: middle page could hash anywhere, so the mask must be
	// conservative.
	if mask := SpanMask(0, 3*pageBytes, 16, 4); mask != MaskAll {
		t.Fatalf("3-page range mask = %#x, want MaskAll", mask)
	}
	// Address-space wrap is conservative too (PageSplit panics on it; the
	// mask never under-promises).
	if mask := SpanMask(^uint64(0)-4, 16, 16, 4); mask != MaskAll {
		t.Fatalf("wrapping access mask = %#x, want MaskAll", mask)
	}
}

func TestSpanMaskZeroSize(t *testing.T) {
	// A zero-size access still emits one piece on its base page, so the
	// mask must cover that page's shard.
	mask := SpanMask(3<<16|0x40, 0, 16, 4)
	if want := uint64(1) << (uint(PickShard(3, 4)) & 63); mask != want {
		t.Fatalf("zero-size mask = %#x, want %#x", mask, want)
	}
}

func TestSummarySkippableBy(t *testing.T) {
	var s Summary
	if !s.SkippableBy(0) || !s.SkippableBy(3) {
		t.Fatal("zero mask (no access events) must be skippable by everyone")
	}
	s.Mask = 1 << 2
	if s.SkippableBy(2) {
		t.Fatal("shard 2's bit is set but SkippableBy(2) = true")
	}
	if !s.SkippableBy(1) {
		t.Fatal("shard 1's bit is clear but SkippableBy(1) = false")
	}
	// Shard indices fold mod 64: shard 66 shares bit 2.
	if s.SkippableBy(66) {
		t.Fatal("shard 66 folds onto set bit 2 but SkippableBy = true")
	}
	s.Mask = MaskAll
	for _, w := range []int{0, 1, 63, 64, 1000} {
		if s.SkippableBy(w) {
			t.Fatalf("MaskAll must not be skippable by shard %d", w)
		}
	}
}

func TestSummaryResetKeepsCtlCapacity(t *testing.T) {
	var s Summary
	s.Mask = MaskAll
	for i := 0; i < 10; i++ {
		s.AddCtl(i)
	}
	c := cap(s.Ctl)
	s.Reset()
	if s.Mask != 0 || len(s.Ctl) != 0 {
		t.Fatalf("Reset left %+v", s)
	}
	if cap(s.Ctl) != c {
		t.Fatalf("Reset dropped Ctl capacity: %d -> %d", c, cap(s.Ctl))
	}
}

// BenchmarkWorkerSkipScan is the fast-path counterpart of
// BenchmarkWorkerScan: the same 4096-event batch, but skipped via its
// summary — the worker touches only the structure-event offsets.
func BenchmarkWorkerSkipScan(b *testing.B) {
	batch := &Batch{Ev: make([]Event, 0, 4096)}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4096; i++ {
		if i%128 == 0 {
			batch.Sum.AddCtl(len(batch.Ev))
			batch.Ev = append(batch.Ev, Ctl(OpSync))
			continue
		}
		ev := Access(OpWrite, rng.Uint64()%(1<<24), 8)
		batch.Sum.Mask |= eventMask(ev, 16, 4)
		batch.Ev = append(batch.Ev, ev)
	}
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, off := range batch.Sum.Ctl {
			sink += uint64(batch.Ev[off].EvOp())
		}
	}
	_ = sink
}
