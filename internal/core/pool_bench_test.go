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
		start := rng.Uint64() % (1 << 16)
		length := uint64(rng.Intn(256)) + 4
		ivs[i] = Interval{Start: start, End: start + length, Acc: int32(i)}
	}
	return ivs
}

// BenchmarkTreapInsert isolates the node-allocation cost of treap
// insertion: the slab pool (production path) vs one heap object per node
// (the seed's new(node) path), on an identical interval stream.
func BenchmarkTreapInsert(b *testing.B) {
	ivs := benchIntervals(4096)
	for _, mode := range []struct {
		name     string
		heapOnly bool
	}{{"pooled", false}, {"unpooled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := NewTree()
				tr.pool.heapOnly = mode.heapOnly
				for _, iv := range ivs {
					tr.InsertWrite(iv, nil)
				}
			}
		})
	}
}

// BenchmarkTreapSortedRun is fft's pattern on one page, as the engine
// applies a read strand: every interval queries the write tree and inserts
// into the read tree, sixteen-byte reads at a 32-byte stride over a fully
// populated page, then one read covering all 64 KiB. One iteration is 2049
// intervals; nodes/op is per tree operation, the figure Fig 8 reports.
func BenchmarkTreapSortedRun(b *testing.B) {
	const page = 64 << 10
	lo := func(a, b int32) bool { return a > b }
	wt, rt := NewTree(), NewTree()
	for s := uint64(0); s < page; s += 4096 {
		wt.InsertWrite(Interval{s, s + 4096, 0}, nil)
	}
	for s := uint64(0); s < page; s += 16 {
		rt.InsertRead(Interval{s, s + 16, 0}, lo, nil)
	}
	wt.ResetStats()
	rt.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := int32(i + 1)
		for s := uint64(0); s < page; s += 32 {
			x := Interval{s, s + 16, acc}
			wt.Query(x, nil)
			rt.InsertRead(x, lo, nil)
		}
		x := Interval{0, page, acc}
		wt.Query(x, nil)
		rt.InsertRead(x, lo, nil)
	}
	ws, rs := wt.Stats(), rt.Stats()
	b.ReportMetric(float64(ws.NodesVisited+rs.NodesVisited)/float64(ws.Ops+rs.Ops), "nodes/op")
}
