package coalesce

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stint/internal/mem"
)

// flushAll collects the flushed intervals.
func flushAll(b *BitSet) (ivs [][2]uint64, words uint64) {
	words = b.Flush(func(start mem.Addr, size uint64) {
		ivs = append(ivs, [2]uint64{start, size})
	})
	return ivs, words
}

// naive tracks set words in a map for comparison.
type naiveSet map[uint64]bool

func (n naiveSet) setRange(addr, size uint64) {
	if size == 0 {
		return
	}
	w0 := addr >> 2
	w1 := (addr + size + 3) >> 2
	for w := w0; w < w1; w++ {
		n[w] = true
	}
}

// intervalsOf converts the naive set to maximal page-contained word
// intervals in order, mirroring Flush's contract: runs never cross a
// 64 KiB page boundary.
func (n naiveSet) intervals() [][2]uint64 {
	if len(n) == 0 {
		return nil
	}
	min, max := ^uint64(0), uint64(0)
	for w := range n {
		if w < min {
			min = w
		}
		if w > max {
			max = w
		}
	}
	const pageWords = 1 << (pageBytesBits - wordBits)
	var out [][2]uint64
	var start uint64
	in := false
	flush := func(end uint64) {
		out = append(out, [2]uint64{start << 2, (end - start) << 2})
		in = false
	}
	for w := min; w <= max+1; w++ {
		if in && w%pageWords == 0 {
			flush(w)
		}
		if n[w] && !in {
			start, in = w, true
		} else if !n[w] && in {
			flush(w)
		}
	}
	if in {
		flush(max + 1)
	}
	return out
}

func compare(t *testing.T, got, want [][2]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d intervals %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interval %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEmptyFlush(t *testing.T) {
	b := New()
	ivs, words := flushAll(b)
	if len(ivs) != 0 || words != 0 {
		t.Fatalf("empty flush produced %v (%d words)", ivs, words)
	}
}

func TestSingleWord(t *testing.T) {
	b := New()
	b.Set(0x1000)
	ivs, words := flushAll(b)
	compare(t, ivs, [][2]uint64{{0x1000, 4}})
	if words != 1 {
		t.Fatalf("words = %d, want 1", words)
	}
}

func TestContiguousRangeOneCall(t *testing.T) {
	b := New()
	b.SetRange(0x1000, 256)
	ivs, words := flushAll(b)
	compare(t, ivs, [][2]uint64{{0x1000, 256}})
	if words != 64 {
		t.Fatalf("words = %d, want 64", words)
	}
}

func TestAdjacentCallsMerge(t *testing.T) {
	b := New()
	b.SetRange(0x1000, 16)
	b.SetRange(0x1010, 16) // touching
	ivs, _ := flushAll(b)
	compare(t, ivs, [][2]uint64{{0x1000, 32}})
}

func TestOverlappingCallsDeduplicate(t *testing.T) {
	b := New()
	b.SetRange(0x1000, 32)
	b.SetRange(0x1008, 32) // overlapping
	b.SetRange(0x1000, 32) // duplicate
	ivs, words := flushAll(b)
	compare(t, ivs, [][2]uint64{{0x1000, 0x28}})
	if words != 10 {
		t.Fatalf("words = %d, want 10 (deduplicated)", words)
	}
}

func TestDisjointRangesStaySplit(t *testing.T) {
	b := New()
	b.SetRange(0x2000, 8)
	b.SetRange(0x1000, 8)
	b.SetRange(0x3000, 8)
	ivs, _ := flushAll(b)
	compare(t, ivs, [][2]uint64{{0x1000, 8}, {0x2000, 8}, {0x3000, 8}})
}

func TestMergeAcrossSlotBoundary(t *testing.T) {
	b := New()
	// Words 62..65 straddle the 64-word slot boundary.
	b.SetRange(62*4, 4*4)
	ivs, _ := flushAll(b)
	compare(t, ivs, [][2]uint64{{62 * 4, 16}})
}

func TestSplitAtPageBoundary(t *testing.T) {
	b := New()
	pageBytes := uint64(1) << pageBytesBits
	b.SetRange(pageBytes-8, 16) // straddles two pages
	ivs, _ := flushAll(b)
	// Flush never merges across a page boundary: one interval per page.
	compare(t, ivs, [][2]uint64{{pageBytes - 8, 8}, {pageBytes, 8}})
	if b.Pages() != 2 {
		t.Fatalf("Pages() = %d, want 2", b.Pages())
	}
}

func TestLargeRangeSpanningManyPages(t *testing.T) {
	b := New()
	pageBytes := uint64(1) << pageBytesBits
	size := 3 * pageBytes // three full pages
	b.SetRange(0x10000, size)
	ivs, words := flushAll(b)
	compare(t, ivs, [][2]uint64{
		{0x10000, pageBytes},
		{0x10000 + pageBytes, pageBytes},
		{0x10000 + 2*pageBytes, pageBytes},
	})
	if words != size/4 {
		t.Fatalf("words = %d, want %d", words, size/4)
	}
}

func TestFlushClearsState(t *testing.T) {
	b := New()
	b.SetRange(0x1000, 64)
	flushAll(b)
	ivs, words := flushAll(b)
	if len(ivs) != 0 || words != 0 {
		t.Fatalf("second flush produced %v", ivs)
	}
	// And the structure is reusable for a different pattern.
	b.SetRange(0x5000, 8)
	ivs, _ = flushAll(b)
	compare(t, ivs, [][2]uint64{{0x5000, 8}})
}

func TestUnalignedRangeCoversWholeWords(t *testing.T) {
	b := New()
	b.SetRange(0x1002, 4) // straddles words 0x1000 and 0x1004
	ivs, words := flushAll(b)
	compare(t, ivs, [][2]uint64{{0x1000, 8}})
	if words != 2 {
		t.Fatalf("words = %d, want 2", words)
	}
}

func TestZeroSizeNoOp(t *testing.T) {
	b := New()
	b.SetRange(0x1000, 0)
	ivs, _ := flushAll(b)
	if len(ivs) != 0 {
		t.Fatalf("zero-size set produced %v", ivs)
	}
}

func TestRandomAgainstNaive(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := New()
		n := naiveSet{}
		for i := 0; i < 200; i++ {
			addr := (rng.Uint64() % (1 << 18)) &^ 3
			size := uint64(rng.Intn(512)+1) &^ 3
			if size == 0 {
				size = 4
			}
			b.SetRange(addr, size)
			n.setRange(addr, size)
		}
		ivs, words := flushAll(b)
		compare(t, ivs, n.intervals())
		if words != uint64(len(n)) {
			t.Fatalf("seed %d: words = %d, want %d", seed, words, len(n))
		}
	}
}

func TestQuickRandomPatterns(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		ops := int(opsRaw%64) + 1
		rng := rand.New(rand.NewSource(seed))
		b := New()
		n := naiveSet{}
		for i := 0; i < ops; i++ {
			addr := (rng.Uint64() % (1 << 20)) &^ 3
			size := uint64(rng.Intn(2048)) &^ 3
			b.SetRange(addr, size)
			n.setRange(addr, size)
		}
		ivs, _ := flushAll(b)
		want := n.intervals()
		if len(ivs) != len(want) {
			return false
		}
		for i := range want {
			if ivs[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskRange(t *testing.T) {
	cases := []struct {
		lo, hi uint64
		want   uint64
	}{
		{0, 64, ^uint64(0)},
		{0, 1, 1},
		{63, 64, 1 << 63},
		{4, 8, 0xF0},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := maskRange(c.lo, c.hi); got != c.want {
			t.Errorf("maskRange(%d,%d) = %#x, want %#x", c.lo, c.hi, got, c.want)
		}
	}
}

func BenchmarkSetRangeLarge(b *testing.B) {
	bs := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.SetRange(uint64(i%1024)*4096, 4096)
		if i%1024 == 1023 {
			bs.Flush(func(mem.Addr, uint64) {})
		}
	}
}

func BenchmarkSetSingleWords(b *testing.B) {
	bs := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.Set(uint64(i%(1<<16)) * 4)
		if i%(1<<16) == (1<<16)-1 {
			bs.Flush(func(mem.Addr, uint64) {})
		}
	}
}

func TestWords(t *testing.T) {
	cases := []struct {
		addr, size, want uint64
	}{
		{0, 4, 1}, {0, 8, 2}, {2, 4, 2}, {0, 1, 1}, {3, 2, 2}, {4, 0, 0}, {0, 16, 4},
	}
	for _, c := range cases {
		if got := Words(c.addr, c.size); got != c.want {
			t.Errorf("Words(%d,%d) = %d, want %d", c.addr, c.size, got, c.want)
		}
	}
}

// TestInSlot pins the slot arm's predicate at its edges, SetSlot's mask at
// both ends of a slot, and SetOpenSlot, which takes exactly the InSlot spans
// whose slot is open on the cached page and leaves the rest untouched.
func TestInSlot(t *testing.T) {
	const top = ^uint64(0)
	for _, c := range []struct {
		addr, size uint64
		want       bool
	}{
		{0x1000, 1, true},
		{0x1000, SlotBytes, true},       // a whole slot
		{0x1001, SlotBytes, false},      // one byte into the next slot
		{0x10ff, 1, true},               // the slot's last byte
		{0x10fe, 4, false},              // straddles two slots
		{0x1000, 0, false},              // empty
		{0x1002, top, false},            // its end wraps back into the slot
		{top - SlotBytes, 1, true},      // the last byte before the last slot
		{top - SlotBytes + 1, 1, false}, // the last slot
		{top - 7, 8, false},             // the last slot, and wraps
	} {
		if got := InSlot(c.addr, c.size); got != c.want {
			t.Errorf("InSlot(%#x, %d) = %v, want %v", c.addr, c.size, got, c.want)
		}
	}
	b := New()
	if b.SetOpenSlot(0x1000, 4) || b.SetOpenSlot(0, 4) {
		t.Fatal("SetOpenSlot took a hook on a BitSet with no page")
	}
	b.SetSlot(0x1000, SlotBytes) // bits 0..63: 2<<63 wraps to 0
	b.SetSlot(0x11fd, 3)         // bit 63 alone
	b.SetSlot(0x1302, 1)         // bit 0 alone
	for _, c := range []struct {
		addr, size uint64
		want       bool
	}{
		{0x1000, SlotBytes, true}, // a whole open slot
		{0x11c0, 64, true},        // bits 48..63 of an open slot
		{0x11f0, 17, false},       // one byte into the next, closed slot
		{0x12fc, 8, false},        // straddles into an open slot
		{0x1300, 0, false},        // empty
		{0x1302, top, false},      // wraps back into the slot
		{0x1400, 4, false},        // a closed slot
		{0x11001000, 4, false},    // another page
	} {
		if got := b.SetOpenSlot(c.addr, c.size); got != c.want {
			t.Errorf("SetOpenSlot(%#x, %d) = %v, want %v", c.addr, c.size, got, c.want)
		}
	}
	ivs, words := flushAll(b)
	compare(t, ivs, [][2]uint64{{0x1000, SlotBytes}, {0x11c0, 64}, {0x1300, 4}})
	if calls, counted := b.Hooks(); words != 81 || calls != 5 || counted != 146 {
		t.Fatalf("set %d words; counted %d hooks of %d words; want 81, 5, 146", words, calls, counted)
	}
}

// TestLastPageIsInList pins the invariant SetSlot and SetRange's fast path
// rely on instead of testing inList: a cached page is always on the touched
// list, so its bits reach the next Flush. A seeded mix of single-word Sets,
// SetSlot spans of 1 to 256 bytes at any offset in their slot, and ranges
// over a few pages, page-straddling ones included, with a Flush now and then,
// checks it after every call and the flushed words against the naive model.
func TestLastPageIsInList(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	b, n := New(), naiveSet{}
	check := func(op string, addr, size uint64) {
		t.Helper()
		for idx := uint64(0); idx < 8; idx++ { // every page the mix reaches
			if p := b.dir.Last(idx); p != nil && !p.inList {
				t.Fatalf("after %s(%#x, %d): cached page %#x is not on the touched list", op, addr, size, idx)
			}
		}
	}
	for i := 0; i < 20000; i++ {
		addr := uint64(1+rng.Intn(4))<<16 + uint64(rng.Intn(1<<16))
		switch r := rng.Intn(100); {
		case r < 35:
			b.Set(addr)
			n.setRange(addr, 1)
			check("Set", addr, 1)
		case r < 60:
			size := 1 + uint64(rng.Intn(int(SlotBytes-addr%SlotBytes)))
			b.SetSlot(addr, size)
			n.setRange(addr, size)
			check("SetSlot", addr, size)
		case r < 95:
			size := uint64(rng.Intn(300))
			if r == 94 {
				size += 1 << 16
			}
			b.SetRange(addr, size)
			n.setRange(addr, size)
			check("SetRange", addr, size)
		default:
			got, _ := flushAll(b)
			compare(t, got, n.intervals())
			n = naiveSet{}
			check("Flush", 0, 0)
		}
	}
	got, _ := flushAll(b)
	compare(t, got, n.intervals())
}
