package coalesce

import "testing"

// FuzzSetRangeFlush decodes the input as two-byte ops — SetRange calls on
// one page and single-word Sets spread over sixteen — and checks the flushed
// intervals against the naive word-set model.
func FuzzSetRangeFlush(f *testing.F) {
	f.Add([]byte{0, 16, 1, 32, 0, 16})
	f.Add([]byte{255, 255, 0, 1, 128, 64})
	f.Add([]byte{3, 0xf2, 4, 8, 3, 0xf0, 255, 0xff, 5, 0xf2})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := New()
		n := naiveSet{}
		for i := 0; i+1 < len(data); i += 2 {
			addr := uint64(data[i]) << 3
			if op := data[i+1]; op >= 0xf0 {
				addr += uint64(op&0xf) << 16
				b.Set(addr)
				n.setRange(addr, 4)
				continue
			}
			size := uint64(data[i+1])
			b.SetRange(addr, size)
			n.setRange(addr, size)
		}
		got, words := flushAll(b)
		want := n.intervals()
		if len(got) != len(want) {
			t.Fatalf("got %d intervals %v, want %d %v", len(got), got, len(want), want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("interval %d = %v, want %v", i, got[i], want[i])
			}
		}
		if words != uint64(len(n)) {
			t.Fatalf("words = %d, want %d", words, len(n))
		}
		// The structure must be clean for reuse.
		if again, w := flushAll(b); len(again) != 0 || w != 0 {
			t.Fatal("second flush not empty")
		}
	})
}
