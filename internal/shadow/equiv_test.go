package shadow

import (
	"math/rand"
	"testing"

	"stint/internal/mem"
)

// mapTable is the seed implementation of the shadow table — a Go map as the
// first-level directory, fronted by the same one-entry cache — kept as the
// reference for equivalence testing and benchmarking of the open-addressed
// page directory.
type mapTable struct {
	pages    map[uint64]*page
	lastIdx  uint64
	lastPage *page
}

func newMapTable() *mapTable { return &mapTable{pages: make(map[uint64]*page)} }

func (t *mapTable) cell(addr mem.Addr) (writer, reader *int32) {
	word := addr >> wordBits
	idx := word >> pageWordBits
	p := t.lastPage
	if p == nil || idx != t.lastIdx {
		p = t.pages[idx]
		if p == nil {
			p = &page{}
			p.init()
			t.pages[idx] = p
		}
		t.lastIdx, t.lastPage = idx, p
	}
	off := word & pageWordMask
	return &p.writer[off], &p.reader[off]
}

func (t *mapTable) peek(addr mem.Addr) (writer, reader int32) {
	word := addr >> wordBits
	p := t.pages[word>>pageWordBits]
	if p == nil {
		return None, None
	}
	off := word & pageWordMask
	return p.writer[off], p.reader[off]
}

// TestDirectoryEquivalence drives randomized access sequences — spread wide
// enough to force several directory growth steps — through the
// open-addressed Table and the map reference, checking every Cell and Peek
// returns identical cells.
func TestDirectoryEquivalence(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := New()
		ref := newMapTable()
		// ~200 distinct pages forces the directory through multiple
		// doublings from its initial capacity.
		const span = 200 << pageBytesBits
		for op := 0; op < 20000; op++ {
			addr := mem.Addr(rng.Uint64() % span)
			if rng.Intn(4) == 0 { // peek without allocating
				gw, gr := tb.Peek(addr)
				ww, wr := ref.peek(addr)
				if gw != ww || gr != wr {
					t.Fatalf("seed %d op %d: Peek(%#x) = (%d,%d), reference (%d,%d)", seed, op, addr, gw, gr, ww, wr)
				}
				continue
			}
			w, r := tb.Cell(addr)
			ww, wr := ref.cell(addr)
			if *w != *ww || *r != *wr {
				t.Fatalf("seed %d op %d: Cell(%#x) reads (%d,%d), reference (%d,%d)", seed, op, addr, *w, *r, *ww, *wr)
			}
			id := int32(rng.Intn(1024))
			switch rng.Intn(3) {
			case 0:
				*w, *ww = id, id
			case 1:
				*r, *wr = id, id
			default:
				*w, *ww = id, id
				*r, *wr = id, id
			}
		}
		if tb.Pages() != len(ref.pages) {
			t.Fatalf("seed %d: %d pages, reference %d", seed, tb.Pages(), len(ref.pages))
		}
		// Full sweep: every cell of every touched page must match.
		for idx := range ref.pages {
			base := mem.Addr(idx << pageBytesBits)
			for off := uint64(0); off < pageWords; off += 37 {
				addr := base + mem.Addr(off<<wordBits)
				gw, gr := tb.Peek(addr)
				ww, wr := ref.peek(addr)
				if gw != ww || gr != wr {
					t.Fatalf("seed %d: sweep mismatch at %#x: (%d,%d) vs (%d,%d)", seed, addr, gw, gr, ww, wr)
				}
			}
		}
	}
}

// TestResetReusesPages checks that Reset parks every page, that a reused
// page reads as empty, and that refilling after Reset takes the parked
// pages rather than allocating.
func TestResetReusesPages(t *testing.T) {
	tb := New()
	w, r := tb.Cell(0x10000)
	*w, *r = 7, 9
	tb.Cell(0x20000)
	if tb.Pages() != 2 || tb.dir.Parked() != 0 {
		t.Fatalf("before reset: %d pages, %d free", tb.Pages(), tb.dir.Parked())
	}
	tb.Reset()
	if tb.Pages() != 0 || tb.dir.Parked() != 2 {
		t.Fatalf("after reset: %d pages, %d free", tb.Pages(), tb.dir.Parked())
	}
	if gw, gr := tb.Peek(0x10000); gw != None || gr != None {
		t.Fatalf("stale data visible after reset: (%d,%d)", gw, gr)
	}
	// Refill: both pages must come off the freelist, fully reinitialized.
	w, r = tb.Cell(0x10000)
	if *w != None || *r != None {
		t.Fatalf("reused page not reinitialized: (%d,%d)", *w, *r)
	}
	tb.Cell(0x30000)
	if tb.Pages() != 2 || tb.dir.Parked() != 0 {
		t.Fatalf("after refill: %d pages, %d free", tb.Pages(), tb.dir.Parked())
	}
}
