package shadow

import (
	"testing"

	"stint/internal/mem"
)

func TestEmptyReadsNone(t *testing.T) {
	tb := New()
	w, r := tb.Peek(0x1000)
	if w != None || r != None {
		t.Fatalf("Peek on empty table = (%d,%d), want (None,None)", w, r)
	}
	if tb.Pages() != 0 {
		t.Fatalf("Peek allocated a page")
	}
}

func TestCellRoundTrip(t *testing.T) {
	tb := New()
	w, r := tb.Cell(0x2004)
	if *w != None || *r != None {
		t.Fatalf("fresh cell = (%d,%d), want (None,None)", *w, *r)
	}
	*w, *r = 7, 9
	gw, gr := tb.Peek(0x2004)
	if gw != 7 || gr != 9 {
		t.Fatalf("Peek = (%d,%d), want (7,9)", gw, gr)
	}
}

func TestWordGranularity(t *testing.T) {
	tb := New()
	w, _ := tb.Cell(0x3000)
	*w = 5
	// All byte addresses within the same word share the cell.
	for off := mem.Addr(0); off < mem.WordSize; off++ {
		if gw, _ := tb.Peek(0x3000 + off); gw != 5 {
			t.Fatalf("byte offset %d maps to a different word", off)
		}
	}
	// The next word is distinct.
	if gw, _ := tb.Peek(0x3000 + mem.WordSize); gw != None {
		t.Fatal("adjacent word shares the cell")
	}
}

func TestDistinctPages(t *testing.T) {
	tb := New()
	w1, _ := tb.Cell(0x0)
	w2, _ := tb.Cell(1 << 20)
	*w1, *w2 = 1, 2
	if tb.Pages() != 2 {
		t.Fatalf("Pages() = %d, want 2", tb.Pages())
	}
	if gw, _ := tb.Peek(0x0); gw != 1 {
		t.Fatal("first page clobbered")
	}
	if gw, _ := tb.Peek(1 << 20); gw != 2 {
		t.Fatal("second page clobbered")
	}
}

func TestPageBoundaryCells(t *testing.T) {
	tb := New()
	// Last word of page 0 and first word of page 1.
	lastInPage := mem.Addr(1<<pageBytesBits - mem.WordSize)
	w1, _ := tb.Cell(lastInPage)
	w2, _ := tb.Cell(1 << pageBytesBits)
	*w1, *w2 = 10, 11
	if gw, _ := tb.Peek(lastInPage); gw != 10 {
		t.Fatal("boundary word wrong")
	}
	if gw, _ := tb.Peek(1 << pageBytesBits); gw != 11 {
		t.Fatal("first word of next page wrong")
	}
	if tb.Pages() != 2 {
		t.Fatalf("Pages() = %d, want 2", tb.Pages())
	}
}

func TestCacheConsistencyAcrossPages(t *testing.T) {
	tb := New()
	// Alternate between two pages to stress the one-entry cache.
	for i := 0; i < 100; i++ {
		a := mem.Addr(i) * mem.WordSize
		b := a + (1 << 20)
		wa, _ := tb.Cell(a)
		*wa = int32(i)
		wb, _ := tb.Cell(b)
		*wb = int32(i + 1000)
	}
	for i := 0; i < 100; i++ {
		a := mem.Addr(i) * mem.WordSize
		b := a + (1 << 20)
		if gw, _ := tb.Peek(a); gw != int32(i) {
			t.Fatalf("page A word %d = %d", i, gw)
		}
		if gw, _ := tb.Peek(b); gw != int32(i+1000) {
			t.Fatalf("page B word %d = %d", i, gw)
		}
	}
}

func TestBytesFootprint(t *testing.T) {
	tb := New()
	tb.Cell(0)
	if tb.Bytes() == 0 {
		t.Fatal("allocated table reports zero footprint")
	}
}

// TestRetireParksThePage: a retired page's cells go back on the freelist,
// the table hands out no cell on it and reads it as empty, a second Retire
// or one of an absent page changes nothing, and Reset brings the page back
// live without allocating.
func TestRetireParksThePage(t *testing.T) {
	tb := New()
	const idx, absent = 3, 9
	addr := mem.Addr(idx << pageBytesBits)
	w, _ := tb.Cell(addr + 8)
	*w = 7
	tb.Cell(0)
	pages, free, bytes := tb.Pages(), tb.FreePages(), tb.Bytes()
	for i := 0; i < 2; i++ {
		tb.Retire(idx)
		tb.Retire(absent)
		if tb.Pages() != pages-1 || tb.FreePages() != free+1 || tb.Bytes() != bytes-pageWords*8 {
			t.Fatalf("Retire #%d: %d pages, %d free, %d bytes; want %d, %d, %d",
				i+1, tb.Pages(), tb.FreePages(), tb.Bytes(), pages-1, free+1, bytes-pageWords*8)
		}
	}
	if w, r := tb.Cell(addr + 8); w != nil || r != nil {
		t.Fatal("Cell handed out a cell on a retired page")
	}
	if w, r := tb.Peek(addr + 8); w != None || r != None {
		t.Fatalf("Peek on a retired page = (%d,%d), want (None,None)", w, r)
	}
	if !tb.Retired(idx) || tb.Retired(0) || tb.Retired(absent) {
		t.Fatal("Retired names the wrong pages")
	}
	if n := testing.AllocsPerRun(100, func() { tb.Retired(idx); tb.Retired(absent) }); n != 0 {
		t.Fatalf("Retired cost %v allocations", n)
	}
	var cell *int32
	if n := testing.AllocsPerRun(10, func() { tb.Reset(); cell, _ = tb.Cell(addr + 8) }); n != 0 {
		t.Fatalf("Reset and a Cell on the retired page cost %v allocations", n)
	}
	if cell == nil || *cell != None || tb.Retired(idx) || tb.Pages() != 1 {
		t.Fatalf("after Reset the page is not live and empty: %d pages", tb.Pages())
	}
}

func BenchmarkCellSequential(b *testing.B) {
	tb := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _ := tb.Cell(mem.Addr(i%(1<<22)) * mem.WordSize)
		*w = int32(i)
	}
}

func BenchmarkCellSamePage(b *testing.B) {
	tb := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _ := tb.Cell(mem.Addr(i%1024) * mem.WordSize)
		*w = int32(i)
	}
}
