package detect

import (
	"stint/internal/coalesce"
	"stint/internal/mem"
)

// Coalescer is the mutator side of every runtime-coalescing detector — the
// paper's §3.2 and the only place outside internal/coalesce that owns a bit
// hashmap. While a strand executes, its hooks only count the access and set
// bits in the strand's read or write BitSet; when the strand ends, Flush
// hands the deduplicated intervals to whatever stands behind it: a History
// on the same goroutine (New's inline composition), a pipeline's batch
// (the stint runner's Async and ParallelDetect producers), or the multi-
// reader history of stint/dag. Flushing leaves both BitSets empty with their
// pages on their freelists, so one Coalescer serves strand after strand.
//
// A Coalescer decides nothing about a page's fate: its hooks set every
// access's bits, and every mode drops a quiesced page's intervals at the
// History's one apply predicate, so the Coalescer in front of an inline
// History is the pipelines' Coalescer. It is single-goroutine; a parallel executor gives each running
// strand its own.
type Coalescer struct {
	// rd and wr own the hook counters too (BitSet.Hooks): a hook is
	// counted where it sets its bits; a History never sees one.
	rd, wr *coalesce.BitSet
}

// NewCoalescer returns an empty Coalescer.
func NewCoalescer() *Coalescer {
	return &Coalescer{rd: coalesce.New(), wr: coalesce.New()}
}

// Bits returns the write or read BitSet, for the slot arm.
func (c *Coalescer) Bits(write bool) *coalesce.BitSet {
	if write {
		return c.wr
	}
	return c.rd
}

// ReadHook and WriteHook take any span: count the hook and its words, set
// the strand's bits.
func (c *Coalescer) ReadHook(addr mem.Addr, size uint64) {
	c.rd.Count(coalesce.Words(addr, size))
	c.rd.SetRange(addr, size)
}

func (c *Coalescer) WriteHook(addr mem.Addr, size uint64) {
	c.wr.Count(coalesce.Words(addr, size))
	c.wr.SetRange(addr, size)
}

// Flush ends the strand: its read intervals go to read, then its write
// intervals to write, each address-sorted and page-contained — the order
// every History applies a strand in.
func (c *Coalescer) Flush(read, write func(addr mem.Addr, size uint64)) {
	c.rd.Flush(read)
	c.wr.Flush(write)
}

// Hooks returns the hook counters accumulated since the last Reset; every
// other field of the Stats is zero, so Stats.Accumulate folds them in.
func (c *Coalescer) Hooks() *Stats {
	s := &Stats{}
	s.ReadHookCalls, s.ReadAccesses = c.rd.Hooks()
	s.WriteHookCalls, s.WriteAccesses = c.wr.Hooks()
	return s
}

// Reset discards whatever an aborted run left set and zeroes the counters,
// keeping every page. The History behind it is reset by its owner.
func (c *Coalescer) Reset() {
	c.rd.Reset()
	c.wr.Reset()
}

// Pages returns the bit-hashmap pages ever allocated (Footprint.BitPages).
func (c *Coalescer) Pages() int { return c.rd.Pages() + c.wr.Pages() }
