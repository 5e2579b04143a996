// Package coalesce implements the runtime-coalescing bit hashmap of §3.2.
//
// While a strand executes, every word it accesses sets one bit in a
// two-level page-table-like structure: the address prefix selects a page,
// the suffix a bit within the page's array of 64-bit integers (one bit per
// four-byte word). Ranges are set with bit-parallel mask operations. The
// structure remembers which pages and which 64-bit slots were touched, so
// that when the strand finishes, Flush can walk exactly the touched slots in
// address order, coalesce set bits into maximal intervals (merging across
// slot and page boundaries), report them, and clear the bits for the next
// strand — all in time proportional to the strand's own footprint.
//
// The first level is a page directory (internal/pagedir), and Flush parks
// every page on the directory's freelist: in steady state a strand's
// accesses allocate nothing, because the next strand binds the same zeroed
// pages again.
//
// A detector uses two BitSets per strand: one for reads, one for writes.
package coalesce

import (
	"math/bits"
	"slices"

	"stint/internal/mem"
	"stint/internal/pagedir"
)

// PageBytesBits is the log2 of the shadow-page size in bytes. Flush never
// merges intervals across a page boundary, so every reported interval is
// contained in one page — the invariant the sharded pipeline's page-hash
// router and the per-page access history both rely on. It matches the
// shadow-table page size.
const PageBytesBits = 16

// PageBytes is the shadow-page size in bytes (1 << PageBytesBits).
const PageBytes = 1 << PageBytesBits

const (
	pageBytesBits = PageBytesBits
	wordBits      = 2
	pageWordBits  = pageBytesBits - wordBits
	pageWords     = 1 << pageWordBits
	slotBits      = 6 // 64 words per slot
	slotByteBits  = slotBits + wordBits
	slotsPerPage  = pageWords >> slotBits
	slotWordMask  = (1 << slotBits) - 1
	SlotBytes     = 1 << slotByteBits // one slot's address span (InSlot)
)

// page is the second-level table: one bit per word over 64 KiB of address
// space, plus the dedup list of touched slots.
type page struct {
	bits    [slotsPerPage]uint64
	touched []int32
	inList  bool
}

// BitSet tracks the set of words accessed by the current strand.
type BitSet struct {
	touched []uint64
	// calls and extra count hooks and their words less one each until
	// Reset (Hooks); a caller of SetRange, which counts nothing, calls Count.
	calls, extra uint64
	// dir opens with its page cache, so the four words every hook touches
	// (the counters and the cache) are adjacent, and the words at either end
	// of a BitSet, which a neighbouring BitSet's hot words may share a cache
	// line with, change only per page or per strand: ParallelDetect's tasks
	// own neighbouring BitSets on different cores.
	dir pagedir.Dir[page]
}

var idle page // every BitSet directory's idle page (pagedir.Dir.Idle)

// New returns an empty BitSet; a zero BitSet lacks the idle page the arm reads.
func New() *BitSet {
	b := &BitSet{}
	b.dir.Idle(&idle)
	return b
}

// Hooks returns the hooks counted since Reset and their shadow words.
func (b *BitSet) Hooks() (calls, words uint64) { return b.calls, b.calls + b.extra }

// Count counts a hook of words shadow words (mod 2^64, so 0 words is exact).
func (b *BitSet) Count(words uint64) { b.calls, b.extra = b.calls+1, b.extra+words-1 }

// pageFor binds the page for the given page index and lists it as touched,
// so the directory's cached page is always listed and SetOpenSlot and
// SetRange's fast path need not check. A parked page is zero already.
func (b *BitSet) pageFor(idx uint64) *page {
	p, _ := b.dir.Bind(idx)
	if !p.inList {
		p.inList = true
		b.touched = append(b.touched, idx)
	}
	return p
}

// SetRange marks every word overlapping the byte range [addr, addr+size) as
// accessed. size 0 is a no-op.
func (b *BitSet) SetRange(addr mem.Addr, size uint64) {
	if size == 0 {
		return
	}
	w0 := addr >> wordBits
	w1 := (addr + size + mem.WordSize - 1) >> wordBits
	// Fast path: the whole range lies in one 64-word slot of the cached
	// page — a short range hook, or a slot SetSlot opens.
	if p := b.dir.Last(w0 >> pageWordBits); p != nil && (w1-1)>>pageWordBits == w0>>pageWordBits {
		lo := w0 & (pageWords - 1)
		hi := (w1-1)&(pageWords-1) + 1
		slot := lo >> slotBits
		if (hi-1)>>slotBits == slot {
			mask := maskRange(lo&slotWordMask, (hi-1)&slotWordMask+1)
			if p.bits[slot] == 0 {
				p.touched = append(p.touched, int32(slot))
			}
			p.bits[slot] |= mask
			return
		}
	}
	for w0 < w1 {
		pageIdx := w0 >> pageWordBits
		p := b.pageFor(pageIdx)
		// Word range covered within this page.
		pageEnd := (pageIdx + 1) << pageWordBits
		end := w1
		if end > pageEnd {
			end = pageEnd
		}
		lo := w0 & (pageWords - 1)
		hi := end - (pageIdx << pageWordBits)
		// Set bits [lo, hi) slot by slot with full-width masks.
		for lo < hi {
			slot := lo >> slotBits
			bitLo := lo & slotWordMask
			bitHi := uint64(64)
			if slotEnd := (slot + 1) << slotBits; slotEnd > hi {
				bitHi = hi & slotWordMask
				if bitHi == 0 {
					bitHi = 64
				}
			}
			mask := maskRange(bitLo, bitHi)
			if p.bits[slot] == 0 {
				p.touched = append(p.touched, int32(slot))
			}
			p.bits[slot] |= mask
			lo = (slot << slotBits) + bitHi
		}
		w0 = end
	}
}

// maskRange builds a 64-bit mask with bits [lo, hi) set; hi may be 64.
func maskRange(lo, hi uint64) uint64 {
	m := ^uint64(0) << lo
	if hi < 64 {
		m &^= ^uint64(0) << hi
	}
	return m
}

// InSlot reports whether [addr, addr+size) is a non-empty span inside one
// slot other than the address space's last, so under 2^56 bytes and not
// wrapping (mem.SpanWraps). It tests offset plus size, not the last byte's
// slot, which a size near 2^64 wraps back into; size 0 wraps and fails it.
func InSlot(addr mem.Addr, size uint64) bool {
	return size-1 < SlotBytes-addr&(SlotBytes-1) && addr < ^mem.Addr(SlotBytes-1)
}

// SetOpenSlot is the hook's inline arm: it counts and sets an InSlot span in
// a slot already touched on the cached page and reports true, and sets
// nothing otherwise. To fit the inliner's budget (cost 80 of 80, go1.24), it
// reads Dir's cache fields, indexes the slot before testing the key (idle's
// slots read 0), writes InSlot out and reuses its parameters.
func (b *BitSet) SetOpenSlot(addr mem.Addr, size uint64) bool {
	s := &b.dir.LastPage.bits[uint8(addr>>slotByteBits)]
	if addr>>pageBytesBits != b.dir.LastKey || size-1 >= SlotBytes-addr&(SlotBytes-1) || addr >= ^mem.Addr(SlotBytes-1) || *s == 0 {
		return false
	}
	addr &= SlotBytes - 1
	size = (addr + size - 1) >> wordBits // the span's last word in the slot
	addr >>= wordBits                    // and its first
	*s |= 2<<size - 1<<addr              // no branch: 2<<63 wraps to 0
	b.calls++
	b.extra += size - addr
	return true
}

// SetSlot counts an InSlot span SetOpenSlot declined as one hook and sets
// it, opening its slot or binding its page; it inlines into the caller.
func (b *BitSet) SetSlot(addr mem.Addr, size uint64) {
	b.calls++
	b.extra += (addr+size-1)>>wordBits - addr>>wordBits
	b.SetRange(addr, size)
}

// Set marks the single word containing addr, counted as a one-word hook.
func (b *BitSet) Set(addr mem.Addr) { b.SetSlot(addr, 1) }

// Words returns the number of shadow words covered by size bytes at addr.
func Words(addr mem.Addr, size uint64) uint64 {
	if size == 0 {
		return 0
	}
	return (addr+size-1)>>wordBits - addr>>wordBits + 1
}

// sortOrdered sorts the per-strand dedup lists. Strands commonly touch a
// handful of pages/slots, so the ≤8-element case uses a branchy insertion
// sort; larger lists fall through to the non-reflective slices.Sort (the
// seed's sort.Slice paid an interface conversion and a closure allocation
// per call, on the per-strand path).
func sortOrdered[T uint64 | int32](s []T) {
	if len(s) <= 8 {
		for i := 1; i < len(s); i++ {
			v := s[i]
			j := i - 1
			for j >= 0 && s[j] > v {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = v
		}
		return
	}
	slices.Sort(s)
}

// Flush reports every maximal page-contained interval of set words in
// address order as (startByteAddr, byteLen) and clears the structure for
// the next strand. Runs are merged across slot boundaries within a page but
// never across a page boundary: an access straddling pages is reported as
// one interval per page, so every interval can be routed to — and its
// history kept by — a single shadow page. It returns the total number of
// distinct words that were set, i.e. the strand's deduplicated footprint.
// Every page is parked on the way out: its bits are zero again, so the next
// strand can bind it to any page index without reinitialization.
func (b *BitSet) Flush(emit func(start mem.Addr, size uint64)) (words uint64) {
	if len(b.touched) == 0 {
		return 0
	}
	sortOrdered(b.touched)
	var pendStart, pendEnd uint64 // pending interval in word units
	havePending := false
	for _, pageIdx := range b.touched {
		p := b.dir.Get(pageIdx)
		slots := p.touched
		sortOrdered(slots)
		base := pageIdx << pageWordBits
		for _, slot := range slots {
			v := p.bits[slot]
			p.bits[slot] = 0
			slotBase := base + uint64(slot)<<slotBits
			for v != 0 {
				tz := uint64(bits.TrailingZeros64(v))
				run := uint64(bits.TrailingZeros64(^(v >> tz)))
				if tz+run >= 64 {
					v = 0
				} else {
					v &^= maskRange(tz, tz+run)
				}
				s, e := slotBase+tz, slotBase+tz+run
				words += run
				if havePending && s == pendEnd {
					pendEnd = e
					continue
				}
				if havePending {
					emit(pendStart<<wordBits, (pendEnd-pendStart)<<wordBits)
				}
				pendStart, pendEnd, havePending = s, e, true
			}
		}
		p.touched = p.touched[:0]
		p.inList = false
		// Page boundary: emit the pending run rather than letting it merge
		// with the next page's first run.
		if havePending {
			emit(pendStart<<wordBits, (pendEnd-pendStart)<<wordBits)
			havePending = false
		}
	}
	if havePending {
		emit(pendStart<<wordBits, (pendEnd-pendStart)<<wordBits)
	}
	b.touched = b.touched[:0]
	b.dir.Reset(nil)
	return words
}

// Reset discards any recorded accesses without reporting them, zeroes the
// hook counters and parks every page, retaining all allocated capacity.
// After a completed strand Flush leaves the bits clean and Reset is a cheap
// no-op walk; its real job is recovering from an aborted run that died
// mid-strand with bits still set.
func (b *BitSet) Reset() {
	b.calls, b.extra = 0, 0
	b.dir.Reset(func(p *page) {
		if p.inList || len(p.touched) > 0 {
			p.bits = [slotsPerPage]uint64{}
			p.touched = p.touched[:0]
			p.inList = false
		}
	})
	b.touched = b.touched[:0]
}

// Pages returns the number of second-level pages ever allocated (live plus
// parked), a proxy for the structure's footprint.
func (b *BitSet) Pages() int { return b.dir.Made() }
