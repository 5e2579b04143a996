// Package shadow implements the vanilla access history: a two-level
// page-table-like structure from four-byte memory words to the strands that
// last wrote and leftmost-read them.
//
// This is the baseline the paper calls "vanilla": the address's prefix
// indexes a first-level table (an open-addressed page directory plus a
// one-entry cache, playing the role of the paper's first-level array) and
// the suffix indexes into a lazily allocated second-level page holding one
// shadow cell per word. Pages parked by Reset or Retire are reinitialized
// when the directory binds them again, so repeated runs over the same Table
// allocate no new pages in steady state.
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
// 64 KiB address range, and the races the page has produced (quiesce
// accounting).
type page struct {
	writer [pageWords]int32
	reader [pageWords]int32
	races  int32
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
	p.races = 0
}

// Table is a two-level word-granularity shadow memory. The zero value is
// not usable; call New.
type Table struct {
	dir pagedir.Dir[page]
}

// New returns an empty shadow table.
func New() *Table {
	return &Table{}
}

// Cell returns pointers to the writer and reader slots for the word
// containing byte address addr, binding the page on first touch, or two
// nils on a retired page.
func (t *Table) Cell(addr mem.Addr) (writer, reader *int32) {
	word := addr >> wordBits
	idx := word >> pageWordBits
	p := t.dir.Last(idx)
	if p == nil {
		if p = t.dir.Find(idx); p == nil {
			p, _ = t.dir.Bind(idx)
			p.init()
		}
	}
	if p == &dead {
		return nil, nil
	}
	off := word & pageWordMask
	return &p.writer[off], &p.reader[off]
}

// AddRaces adds n to the race count of the live page at index idx and
// returns the new count.
func (t *Table) AddRaces(idx uint64, n int32) int32 {
	p := t.dir.Get(idx)
	p.races += n
	return p.races
}

// Retire quiesces the page at index idx: its 128 KiB of shadow cells are
// parked and the directory maps idx to the dead page, so later Cell calls
// on it yield no cell. No-op if idx holds no live page.
func (t *Table) Retire(idx uint64) { t.dir.Retire(idx, &dead) }

// Retired reports whether the page at index idx has been retired. It reads
// the one-entry cache but never fills it.
func (t *Table) Retired(idx uint64) bool { return t.dir.Get(idx) == &dead }

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

// Reset clears the table for a fresh detection run, parking every page so
// the next run's Cell calls reuse them instead of allocating.
func (t *Table) Reset() { t.dir.Reset(nil) }

// Pages returns the number of live second-level pages, a proxy for the
// shadow-memory footprint.
func (t *Table) Pages() int { return t.dir.Live() }

// Made returns the number of pages ever allocated, and Cap the directory's
// slot capacity: the table's retained warm capacity.
func (t *Table) Made() int { return t.dir.Made() }
func (t *Table) Cap() int  { return t.dir.Cap() }

// Bytes returns the approximate memory footprint of the table in bytes.
func (t *Table) Bytes() uint64 {
	return uint64(t.Pages()) * uint64(pageWords) * 8
}
