package evstream

import (
	"math/rand"
	"testing"
)

// TestSpanMaskIsThePageShardBit pins the exactness property the worker fast
// path rests on: an interval's mask is exactly the bit of the shard the
// worker-side filter (PickShard of the interval's page) keeps it on.
func TestSpanMaskIsThePageShardBit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(6)
		addr := rng.Uint64() % (1 << 21)
		want := uint64(1) << (uint(PickShard(addr>>16, n)) & 63)
		if mask := SpanMask(addr, 16, n); mask != want {
			t.Fatalf("trial %d: SpanMask(%#x, 16, %d) = %#x, want %#x", trial, addr, n, mask, want)
		}
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
	s.Mask = ^uint64(0)
	for _, w := range []int{0, 1, 63, 64, 1000} {
		if s.SkippableBy(w) {
			t.Fatalf("the all-ones mask must not be skippable by shard %d", w)
		}
	}
}

func TestSummaryResetKeepsCtlCapacity(t *testing.T) {
	var s Summary
	s.Mask = ^uint64(0)
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
		batch.Sum.Mask |= SpanMask(ev.Addr(), 16, 4)
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
