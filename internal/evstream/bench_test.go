package evstream

import (
	"fmt"
	"testing"
)

// BenchmarkRingThroughput streams b.N events through the ring with a
// draining consumer goroutine: the pipeline's per-event transport cost.
func BenchmarkRingThroughput(b *testing.B) {
	for _, batchCap := range []int{64, 1024, 4096} {
		b.Run(fmt.Sprintf("batch%d", batchCap), func(b *testing.B) {
			r := NewRing(8, batchCap)
			done := make(chan uint64)
			go func() {
				var n uint64
				for {
					batch, ok := r.Next()
					if !ok {
						break
					}
					n += uint64(len(batch.Ev))
					r.Recycle(batch)
				}
				done <- n
			}()
			b.ResetTimer()
			batch := r.Get()
			for i := 0; i < b.N; i++ {
				if len(batch.Ev) == cap(batch.Ev) {
					r.Publish(batch)
					batch = r.Get()
				}
				batch.Ev = append(batch.Ev, Access(OpRead, uint64(i), 4))
			}
			r.Publish(batch)
			r.Close()
			if n := <-done; n != uint64(b.N) {
				b.Fatalf("consumer saw %d events, want %d", n, b.N)
			}
		})
	}
}

// BenchmarkRingUncontended measures the producer-side cost alone: the
// consumer drains eagerly so Publish never blocks.
func BenchmarkRingUncontended(b *testing.B) {
	r := NewRing(64, 4096)
	go func() {
		for {
			batch, ok := r.Next()
			if !ok {
				return
			}
			r.Recycle(batch)
		}
	}()
	b.ResetTimer()
	batch := r.Get()
	for i := 0; i < b.N; i++ {
		if len(batch.Ev) == cap(batch.Ev) {
			r.Publish(batch)
			batch = r.Get()
		}
		batch.Ev = append(batch.Ev, Access(OpWrite, uint64(i), 4))
	}
	r.Publish(batch)
	r.Close()
}

// benchAppendEvent appends a representative event mix: mostly sequential
// word accesses (the hot path), with a range write every 16 events and a
// structure event every 64.
func benchAppendEvent(batch *Batch, j int) {
	addr := uint64(0x1000 + 8*(j%512))
	switch {
	case j%64 == 63:
		batch.AppendCtl(OpSync)
	case j%16 == 15:
		batch.AppendRange(OpWriteRange, addr, 16, 8)
	case j%2 == 0:
		batch.AppendAccess(OpRead, addr, 8)
	default:
		batch.AppendAccess(OpWrite, addr, 8)
	}
}

// benchBatch returns an empty batch in the requested encoding with room
// for n events.
func benchBatch(enc string, n int) *Batch {
	if enc == "compact" {
		return &Batch{Buf: make([]byte, 0, (n+1)*MaxEventBytes), compact: true}
	}
	return &Batch{Ev: make([]Event, 0, n)}
}

// BenchmarkEventEncode measures the producer-side append cost per event for
// both encodings, and reports the wire footprint of the representative mix
// as bytes-per-event.
func BenchmarkEventEncode(b *testing.B) {
	const n = 4096
	for _, enc := range []string{"compact", "fixed"} {
		b.Run(enc, func(b *testing.B) {
			batch := benchBatch(enc, n)
			for j := 0; j < n; j++ {
				benchAppendEvent(batch, j)
			}
			perEvent := float64(batch.WireBytes()) / float64(batch.Len())
			b.ResetTimer()
			for i := 0; i < b.N; {
				batch.Reset()
				for j := 0; j < n && i < b.N; j, i = j+1, i+1 {
					benchAppendEvent(batch, j)
				}
			}
			b.ReportMetric(perEvent, "bytes-per-event")
		})
	}
}

// benchMixes are the streams BenchmarkEventDecode sweeps: the representative
// mix BenchmarkEventEncode appends, the sequential same-size stream whose
// operands are all single bytes (the decoder's inline path), and wild jumps
// (ten-byte deltas, the uvarint path on every frame).
var benchMixes = []struct {
	name   string
	append func(batch *Batch, j int)
}{
	{"mixed", benchAppendEvent},
	{"seq", func(batch *Batch, j int) {
		batch.AppendAccess(OpRead+Op(j&1), uint64(0x1000+8*(j%512)), 8)
	}},
	{"wild", func(batch *Batch, j int) {
		batch.AppendAccess(OpWrite, uint64(j)*0x9e3779b97f4a7c15, 8)
	}},
}

// BenchmarkEventDecode measures the consumer-side iteration cost per event
// for both encodings — the price every shard worker pays per batch. Both go
// through DecodeBlock: frames decoded into a stack array for
// "compact", a zero-copy window of the slice for "fixed".
func BenchmarkEventDecode(b *testing.B) {
	const n = 4096
	for _, mix := range benchMixes {
		for _, enc := range []string{"compact", "fixed"} {
			b.Run(mix.name+"/"+enc, func(b *testing.B) {
				batch := benchBatch(enc, n)
				for j := 0; j < n; j++ {
					mix.append(batch, j)
				}
				b.ResetTimer()
				var sink uint64
				var blk [BlockEvents]Event
				for i := 0; i < b.N; i += n {
					it := batch.Iter()
					for {
						evs := it.DecodeBlock(&blk)
						if len(evs) == 0 {
							break
						}
						for _, ev := range evs {
							sink += ev.Addr() + uint64(ev.EvOp())
						}
					}
				}
				if sink == 0 {
					b.Fatal("decoded nothing")
				}
			})
		}
	}
}
