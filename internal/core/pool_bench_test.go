package core

import (
	"math/rand"
	"testing"
)

// benchIntervals builds a deterministic churn-heavy workload: overlapping
// writes over a bounded space so RemoveOverlap constantly retires nodes.
func benchIntervals(n int) []Interval {
	rng := rand.New(rand.NewSource(42))
	ivs := make([]Interval, n)
	for i := range ivs {
		start := rng.Uint64() % (1 << 14)
		length := uint64(rng.Intn(64)) + 1
		ivs[i] = Interval{Start: start, End: start + length, Acc: int32(i)}
	}
	return ivs
}

// BenchmarkTreapInsert is treap insertion from a cold pool: first slab,
// doublings and all, on a fixed interval stream.
func BenchmarkTreapInsert(b *testing.B) {
	ivs := benchIntervals(4096)
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := NewTree()
			for _, iv := range ivs {
				tr.InsertWrite(iv, nil)
			}
		}
	})
}

// BenchmarkTreapSortedRun is fft's pattern on one page, as the engine
// applies a strand: every read interval queries the write tree and inserts
// into the read tree, four-word reads at an eight-word stride over a fully
// read 16 Ki-word page, then one read covering all of it, then a write
// covering it (fft's combine StoreRange), which queries the read tree. The
// covering read takes over every node it meets, so each iteration starts
// from the one node it left. One iteration is 2050 intervals; nodes/op and
// overlaps/op are per tree operation, the figures Fig 8 reports — and, being
// functions of the trees' shape alone, the canary for a change of shape.
func BenchmarkTreapSortedRun(b *testing.B) {
	const page = 16 << 10
	lo := func(a, b int32) bool { return a > b }
	wt, rt := NewTree(), NewTree()
	for s := uint64(0); s < page; s += 1024 {
		wt.InsertWrite(Interval{s, s + 1024, 0}, nil)
	}
	for s := uint64(0); s < page; s += 4 {
		rt.InsertRead(Interval{s, s + 4, 0}, lo, nil)
	}
	wt.ResetStats()
	rt.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := int32(i + 1)
		for s := uint64(0); s < page; s += 8 {
			x := Interval{s, s + 4, acc}
			wt.Query(x, nil)
			rt.InsertRead(x, lo, nil)
		}
		x := Interval{0, page, acc}
		wt.Query(x, nil)
		rt.InsertRead(x, lo, nil)
		rt.Query(x, nil)
	}
	ws, rs := wt.Stats(), rt.Stats()
	ops := float64(ws.Ops + rs.Ops)
	b.ReportMetric(float64(ws.NodesVisited+rs.NodesVisited)/ops, "nodes/op")
	b.ReportMetric(float64(ws.Overlaps+rs.Overlaps)/ops, "overlaps/op")
}
