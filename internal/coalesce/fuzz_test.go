package coalesce

import "testing"

// FuzzSetRangeFlush decodes the input as ops — two-byte SetRange calls on
// one page and single-word Sets spread over sixteen, and three-byte slot
// spans of 1 to 256 bytes at any byte offset of the page's first sixteen
// slots, set as a hook sets them (SetOpenSlot, else SetSlot) — and checks
// the flushed intervals and the hooks SetOpenSlot, SetSlot and Set counted
// against the naive word-set model.
func FuzzSetRangeFlush(f *testing.F) {
	f.Add([]byte{0, 16, 1, 32, 0, 16})
	f.Add([]byte{255, 255, 0, 1, 128, 64})
	f.Add([]byte{3, 0xf2, 4, 8, 3, 0xf0, 255, 0xff, 5, 0xf2})
	f.Add([]byte{0, 0xe0, 255, 3, 0xe1, 7, 255, 0xef, 0, 250, 0xe0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := New()
		n := naiveSet{}
		var calls, words uint64
		for i := 0; i+1 < len(data); i += 2 {
			a, op := uint64(data[i]), data[i+1]
			switch {
			case op >= 0xf0:
				addr := a<<3 + uint64(op&0xf)<<16
				b.Set(addr)
				n.setRange(addr, 4)
				calls, words = calls+1, words+1
			case op >= 0xe0 && i+2 < len(data):
				addr, size := uint64(op&0xf)*SlotBytes+a, uint64(data[i+2])%(SlotBytes-a)+1
				i++
				if !InSlot(addr, size) {
					t.Fatalf("InSlot(%#x, %d) = false for a span inside one slot", addr, size)
				}
				if !b.SetOpenSlot(addr, size) {
					b.SetSlot(addr, size)
				}
				n.setRange(addr, size)
				calls, words = calls+1, words+Words(addr, size)
			default:
				b.SetRange(a<<3, uint64(op))
				n.setRange(a<<3, uint64(op))
			}
		}
		if gotCalls, gotWords := b.Hooks(); gotCalls != calls || gotWords != words {
			t.Fatalf("counted %d hooks of %d words, want %d of %d", gotCalls, gotWords, calls, words)
		}
		got, setWords := flushAll(b)
		want := n.intervals()
		if len(got) != len(want) {
			t.Fatalf("got %d intervals %v, want %d %v", len(got), got, len(want), want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("interval %d = %v, want %v", i, got[i], want[i])
			}
		}
		if setWords != uint64(len(n)) {
			t.Fatalf("words = %d, want %d", setWords, len(n))
		}
		// The structure must be clean for reuse.
		if again, w := flushAll(b); len(again) != 0 || w != 0 {
			t.Fatal("second flush not empty")
		}
	})
}
