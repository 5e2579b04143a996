// Package shadow implements the vanilla access history: a two-level
// page-table-like structure from four-byte memory words to the strands that
// last wrote and leftmost-read them.
//
// This is the baseline the paper calls "vanilla": the address's prefix
// indexes a first-level table (an open-addressed page directory plus a
// one-entry cache, playing the role of the paper's first-level array) and
// the suffix indexes into a lazily allocated second-level page holding one
// shadow cell per word. Pages retired through Reset park on a per-Table
// freelist and are reinitialized on reuse, so repeated runs over the same
// Table allocate no new pages in steady state.
package shadow

import (
	"stint/internal/mem"
	"stint/internal/pagedir"
)

const (
	// pageBytesBits makes each second-level page cover 64 KiB of address
	// space.
	pageBytesBits = 16
	wordBits      = 2 // log2(mem.WordSize)
	pageWordBits  = pageBytesBits - wordBits
	pageWords     = 1 << pageWordBits
	pageWordMask  = pageWords - 1
)

// None marks an empty shadow slot: no strand has accessed the word.
const None int32 = -1

// page holds the last writer and leftmost reader for every word of one
// 64 KiB address range.
type page struct {
	writer [pageWords]int32
	reader [pageWords]int32
}

// dead is the directory's value for every retired page: its key stays in
// the directory, so Cell neither finds nor re-allocates a live page there.
// Nothing is ever written to it.
var dead page

func (p *page) init() {
	for i := range p.writer {
		p.writer[i] = None
		p.reader[i] = None
	}
}

// Table is a two-level word-granularity shadow memory. The zero value is
// not usable; call New.
type Table struct {
	dir      pagedir.Dir[page]
	free     []*page
	retired  int // directory entries holding &dead
	lastIdx  uint64
	lastPage *page
}

// New returns an empty shadow table.
func New() *Table {
	return &Table{}
}

// newPage returns an initialized page, reusing a retired one when possible.
func (t *Table) newPage() *page {
	var p *page
	if n := len(t.free); n > 0 {
		p = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	} else {
		p = &page{}
	}
	p.init()
	return p
}

// Cell returns pointers to the writer and reader slots for the word
// containing byte address addr, allocating the page on first touch, or two
// nils on a retired page.
func (t *Table) Cell(addr mem.Addr) (writer, reader *int32) {
	word := addr >> wordBits
	idx := word >> pageWordBits
	p := t.lastPage
	if p == nil || idx != t.lastIdx {
		p = t.dir.Get(idx)
		if p == nil {
			p = t.newPage()
			t.dir.Put(idx, p)
		}
		t.lastIdx, t.lastPage = idx, p
	}
	if p == &dead {
		return nil, nil
	}
	off := word & pageWordMask
	return &p.writer[off], &p.reader[off]
}

// Retire quiesces the page at index idx: its 128 KiB of shadow cells go
// back on the freelist and the directory maps idx to the dead page, so
// later Cell calls on it yield no cell. No-op if idx holds no live page.
func (t *Table) Retire(idx uint64) {
	p := t.dir.Get(idx)
	if p == nil || p == &dead {
		return
	}
	t.dir.Put(idx, &dead)
	t.free = append(t.free, p)
	t.retired++
	if t.lastIdx == idx {
		t.lastPage = &dead
	}
}

// Retired reports whether the page at index idx has been retired. It reads
// the one-entry cache but never fills it.
func (t *Table) Retired(idx uint64) bool {
	if t.lastPage != nil && idx == t.lastIdx {
		return t.lastPage == &dead
	}
	return t.dir.Get(idx) == &dead
}

// Peek returns the writer and reader for the word containing addr without
// allocating; absent pages read as None.
func (t *Table) Peek(addr mem.Addr) (writer, reader int32) {
	word := addr >> wordBits
	p := t.dir.Get(word >> pageWordBits)
	if p == nil || p == &dead {
		return None, None
	}
	off := word & pageWordMask
	return p.writer[off], p.reader[off]
}

// Reset clears the table for a fresh detection run, retiring every page to
// the freelist so the next run's Cell calls reuse them instead of
// allocating.
func (t *Table) Reset() {
	t.dir.Reset(func(p *page) {
		if p != &dead {
			t.free = append(t.free, p)
		}
	})
	t.retired = 0
	t.lastIdx, t.lastPage = 0, nil
}

// Pages returns the number of live second-level pages, a proxy for the
// shadow-memory footprint.
func (t *Table) Pages() int { return t.dir.Len() - t.retired }

// FreePages returns the number of retired pages parked on the freelist.
func (t *Table) FreePages() int { return len(t.free) }

// Bytes returns the approximate memory footprint of the table in bytes.
func (t *Table) Bytes() uint64 {
	return uint64(t.Pages()) * uint64(pageWords) * 8
}
