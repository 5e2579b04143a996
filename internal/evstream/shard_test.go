package evstream

import (
	"math/rand"
	"testing"
)

func TestPickShardBoundsAndSpread(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		counts := make([]int, n)
		for page := uint64(0); page < 4096; page++ {
			s := PickShard(page, n)
			if s < 0 || s >= n {
				t.Fatalf("PickShard(%d, %d) = %d out of range", page, n, s)
			}
			counts[s]++
		}
		for s, c := range counts {
			if n > 1 && (c < 4096/n/2 || c > 4096/n*2) {
				t.Fatalf("n=%d: shard %d got %d of 4096 pages (badly skewed): %v", n, s, c, counts)
			}
		}
	}
}

// BenchmarkWorkerScan measures a worker's filter over a decoded 4096-event
// batch of page-contained intervals: keep an event iff its page hashes to
// this shard. Every worker does this scan, in parallel, and nothing is
// copied.
func BenchmarkWorkerScan(b *testing.B) {
	evs := make([]Event, 4096)
	rng := rand.New(rand.NewSource(2))
	for i := range evs {
		evs[i] = Access(OpWrite, rng.Uint64()%(1<<24), 8)
	}
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ev := range evs {
			if PickShard(ev.Addr()>>16, 4) == 1 {
				sink += ev.Size()
			}
		}
	}
	_ = sink
}
