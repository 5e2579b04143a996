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
// A Coalescer is single-goroutine; a parallel executor gives each running
// strand its own.
type Coalescer struct {
	// rd and wr own the hook counters too (BitSet.Hooks): a hook is
	// counted where it sets its bits; a History never sees one.
	rd, wr *coalesce.BitSet
	// hist, if set, is the History this Coalescer flushes into on its own
	// goroutine (New's inline composition with quiescing on); live caches
	// whether it has retired any page, refreshed at every Flush.
	live bool
	hist retirer
}

// retirer is what a Coalescer's hooks ask the History behind it: has this
// page quiesced, and (Stats().PagesQuiesced) has any?
type retirer interface {
	Retired(page uint64) bool
	Stats() *Stats
}

// NewCoalescer returns an empty Coalescer; its hooks set every access's
// bits. New's inline composition, the one place a Coalescer and its History
// share a goroutine, points it at the History: accesses wholly inside a
// page the History has retired are then counted but set no bit. That is
// sound because every interval the Coalescer has yet to flush comes after
// everything the History has applied, so the History would drop the
// strand's intervals on that page anyway. A pipeline's Coalescers drop
// nothing; the workers' histories drop dead-page intervals page-locally.
func NewCoalescer() *Coalescer {
	return &Coalescer{rd: coalesce.New(), wr: coalesce.New()}
}

// Bits returns the write or read BitSet for the slot arm, or nil
// once the History behind it has retired a page: ReadHook/WriteHook drop
// dead pages.
func (c *Coalescer) Bits(write bool) *coalesce.BitSet {
	switch {
	case c.live:
		return nil
	case write:
		return c.wr
	}
	return c.rd
}

// ReadHook and WriteHook take any span: count the hook and its words, set
// the strand's bits.
func (c *Coalescer) ReadHook(addr mem.Addr, size uint64) {
	c.rd.Count(coalesce.Words(addr, size))
	if !c.live || !c.dead(addr, size) {
		c.rd.SetRange(addr, size)
	}
}

func (c *Coalescer) WriteHook(addr mem.Addr, size uint64) {
	c.wr.Count(coalesce.Words(addr, size))
	if !c.live || !c.dead(addr, size) {
		c.wr.SetRange(addr, size)
	}
}

// dead reports whether [addr, addr+size) lies wholly within one page the
// History has retired. Spans that straddle a page boundary always set their
// bits (the history drops the dead pieces interval by interval), keeping the
// decision page-local and identical however dispatch split the access. (An
// empty access may read as dead; it sets no bit either way.)
func (c *Coalescer) dead(addr mem.Addr, size uint64) bool {
	first := addr >> coalesce.PageBytesBits
	return (addr+size-1)>>coalesce.PageBytesBits == first && c.hist.Retired(first)
}

// Flush ends the strand: its read intervals go to read, then its write
// intervals to write, each address-sorted and page-contained — the order
// every History applies a strand in. A strand boundary is also where live
// refreshes.
func (c *Coalescer) Flush(read, write func(addr mem.Addr, size uint64)) {
	c.rd.Flush(read)
	c.wr.Flush(write)
	if c.hist != nil {
		c.live = c.hist.Stats().PagesQuiesced > 0
	}
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
	c.live = false
}

// Pages returns the bit-hashmap pages ever allocated (Footprint.BitPages).
func (c *Coalescer) Pages() int { return c.rd.Pages() + c.wr.Pages() }
