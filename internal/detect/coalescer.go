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
	// rd and wr own the hook counters too (BitSet.Calls/Words): a hook is
	// counted where it sets its bits; a History never sees one.
	rd, wr *coalesce.BitSet
	// quiesce, if non-nil, is the registry the histories behind this
	// Coalescer publish retired pages into; live caches whether it has any
	// entry, refreshed at every Flush.
	quiesce *QuiesceSet
	live    bool
}

// NewCoalescer returns an empty Coalescer. With a non-nil registry, accesses
// wholly inside a page the registry lists are counted but set no bit. That
// is sound only when every interval this Coalescer has yet to flush comes
// after, in the histories' application order, anything they have applied so
// far — the serial producers: a page seen in the registry reached its
// threshold before the current strand's flush, so the owning history would
// drop the strand's intervals on it anyway. (ParallelDetect's executors have
// no such ordering and pass nil; a registry past its capacity stops
// absorbing pages and the histories' own page-local drop carries on alone.)
func NewCoalescer(quiesced *QuiesceSet) *Coalescer {
	return &Coalescer{rd: coalesce.New(), wr: coalesce.New(), quiesce: quiesced}
}

// Bits returns the write or read BitSet for the slot arm's SetSlot, or nil
// while the quiesce registry is live: ReadHook/WriteHook drop dead pages.
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
	c.rd.Calls++
	c.rd.Words += coalesce.Words(addr, size)
	if !c.live || !c.dead(addr, size) {
		c.rd.SetRange(addr, size)
	}
}

func (c *Coalescer) WriteHook(addr mem.Addr, size uint64) {
	c.wr.Calls++
	c.wr.Words += coalesce.Words(addr, size)
	if !c.live || !c.dead(addr, size) {
		c.wr.SetRange(addr, size)
	}
}

// dead reports whether [addr, addr+size) lies wholly within one registry-
// listed page. Spans that straddle a page boundary always set their bits
// (the history drops the dead pieces interval by interval), keeping the
// decision page-local and identical however dispatch split the access. (An
// empty access may read as dead; it sets no bit either way.)
func (c *Coalescer) dead(addr mem.Addr, size uint64) bool {
	first := addr >> coalesce.PageBytesBits
	return (addr+size-1)>>coalesce.PageBytesBits == first && c.quiesce.Contains(first)
}

// Flush ends the strand: its read intervals go to read, then its write
// intervals to write, each address-sorted and page-contained — the order
// every History applies a strand in. A strand boundary is also where the
// view of the quiesce registry refreshes.
func (c *Coalescer) Flush(read, write func(addr mem.Addr, size uint64)) {
	c.rd.Flush(read)
	c.wr.Flush(write)
	if c.quiesce != nil {
		c.live = c.quiesce.Len() > 0
	}
}

// Hooks returns the hook counters accumulated since the last Reset; every
// other field of the Stats is zero, so Stats.Accumulate folds them in.
func (c *Coalescer) Hooks() *Stats {
	return &Stats{ReadHookCalls: c.rd.Calls, ReadAccesses: c.rd.Words, WriteHookCalls: c.wr.Calls, WriteAccesses: c.wr.Words}
}

// Reset discards whatever an aborted run left set, zeroes the counters and
// empties the registry — the histories that published into it are being
// reset too — keeping every page. No goroutine may be using the registry.
func (c *Coalescer) Reset() {
	c.rd.Reset()
	c.wr.Reset()
	if c.quiesce != nil {
		c.quiesce.Reset()
	}
	c.live = false
}

// Pages returns the bit-hashmap pages ever allocated (Footprint.BitPages).
func (c *Coalescer) Pages() int { return c.rd.Pages() + c.wr.Pages() }
