package detect

import (
	"time"

	"stint/internal/coalesce"
	"stint/internal/mem"
	"stint/internal/shadow"
)

// hashEngine implements the Vanilla, Compiler, and CompRTS detectors. All
// three use the word-granularity shadow hashmap as the access history; they
// differ in how instrumentation events reach it:
//
//   - Vanilla (expandRanges): range hooks are re-expanded into one hook per
//     element, modeling per-access instrumentation.
//   - Compiler: range hooks update the hashmap word by word within a single
//     call, modeling compile-time coalescing (fewer calls, same word work).
//   - CompRTS: no hooks at all — it is the History a Coalescer's flush
//     feeds, so race checks run once per strand over deduplicated words.
type hashEngine struct {
	stats        Stats
	reach        Reach
	table        *shadow.Table
	onRace       func(Race)
	expandRanges bool
	timeAH       bool

	// Quiescing and memory-cap state. Races never span a page (words are
	// page-contained and flushed spans page-split), so attributing each
	// race to the page of its start address is exact.
	qthresh   int
	maxBytes  uint64
	capErr    error
	pageRaces map[uint64]int32 // page index -> races produced
}

func newHashEngine(cfg Config, reach Reach, expandRanges bool) *hashEngine {
	e := &hashEngine{
		reach:        reach,
		table:        shadow.New(),
		onRace:       cfg.OnRace,
		expandRanges: expandRanges,
		timeAH:       cfg.TimeAccessHistory,
		qthresh:      cfg.QuiesceThreshold,
		maxBytes:     cfg.MaxHistoryBytes,
	}
	if e.qthresh > 0 {
		e.pageRaces = make(map[uint64]int32)
	}
	return e
}

func (e *hashEngine) race(r Race) {
	e.stats.Races++
	if e.qthresh > 0 {
		e.pageRaces[uint64(r.Addr)>>coalesce.PageBytesBits]++
	}
	if e.onRace != nil {
		e.onRace(r)
	}
}

// deadSpan reports whether [addr, addr+size) lies entirely within one
// retired page — the per-access hooks' fast path. Spans that straddle a
// page boundary always proceed (accessWord drops the dead words), the rule
// Coalescer.dead follows too.
func (e *hashEngine) deadSpan(addr mem.Addr, size uint64) bool {
	first := addr >> coalesce.PageBytesBits
	return e.stats.PagesQuiesced > 0 && (addr+size-1)>>coalesce.PageBytesBits == first && e.table.Retired(first)
}

// Retired reports whether shadow page idx has been quiesced (see
// Coalescer).
func (e *hashEngine) Retired(idx uint64) bool { return e.table.Retired(idx) }

// quiescePage retires one shadow page: its 128 KiB of cells park on the
// freelist and the directory maps it to the dead page. Word accesses and
// flushed spans on the page become no-ops from here on.
func (e *hashEngine) quiescePage(idx uint64) {
	e.table.Retire(idx)
	delete(e.pageRaces, idx)
	e.stats.PagesQuiesced++
}

// accessWord performs the Feng–Leiserson check-and-update on one word: a
// read races with a parallel last writer; a write races with a parallel
// last writer or leftmost reader. Reads replace the stored reader only when
// left-of it; writes always become the last writer.
func (e *hashEngine) accessWord(addr mem.Addr, isWrite bool) {
	w, r := e.table.Cell(addr)
	if w == nil {
		return // page retired: no history op, no check
	}
	e.stats.HashOps++
	cur := e.reach.CurrentID()
	racesBefore := e.stats.Races
	if *w != shadow.None && e.reach.Parallel(*w, cur) {
		e.race(Race{Addr: addr &^ 3, Size: mem.WordSize, Prev: *w, Cur: cur, PrevWrite: true, CurWrite: isWrite})
	}
	if isWrite {
		if *r != shadow.None && e.reach.Parallel(*r, cur) {
			e.race(Race{Addr: addr &^ 3, Size: mem.WordSize, Prev: *r, Cur: cur, PrevWrite: false, CurWrite: true})
		}
		*w = cur
	} else if *r == shadow.None || e.reach.LeftOf(cur, *r) {
		*r = cur
	}
	if e.qthresh > 0 && e.stats.Races != racesBefore {
		if idx := uint64(addr) >> coalesce.PageBytesBits; e.pageRaces[idx] >= int32(e.qthresh) {
			e.quiescePage(idx)
		}
	}
}

// accessRange runs accessWord over every word of [addr, addr+size).
func (e *hashEngine) accessRange(addr mem.Addr, size uint64, isWrite bool) {
	first := addr &^ 3
	end := addr + size
	for a := first; a < end; a += mem.WordSize {
		e.accessWord(a, isWrite)
	}
}

func (e *hashEngine) ReadHook(addr mem.Addr, size uint64) {
	if e.capErr != nil {
		return
	}
	e.stats.ReadHookCalls++
	e.stats.ReadAccesses += coalesce.Words(addr, size)
	if e.deadSpan(addr, size) {
		return
	}
	e.accessRange(addr, size, false)
}

func (e *hashEngine) WriteHook(addr mem.Addr, size uint64) {
	if e.capErr != nil {
		return
	}
	e.stats.WriteHookCalls++
	e.stats.WriteAccesses += coalesce.Words(addr, size)
	if e.deadSpan(addr, size) {
		return
	}
	e.accessRange(addr, size, true)
}

func (e *hashEngine) ReadRangeHook(addr mem.Addr, count int, elemBytes uint64) {
	if e.capErr != nil {
		return
	}
	if e.expandRanges {
		// Vanilla: the compiler emitted one hook per access.
		for i := 0; i < count; i++ {
			e.ReadHook(addr+mem.Addr(uint64(i)*elemBytes), elemBytes)
		}
		return
	}
	size := uint64(count) * elemBytes
	e.stats.ReadHookCalls++
	e.stats.ReadAccesses += coalesce.Words(addr, size)
	if e.deadSpan(addr, size) {
		return
	}
	e.accessRange(addr, size, false)
}

func (e *hashEngine) WriteRangeHook(addr mem.Addr, count int, elemBytes uint64) {
	if e.capErr != nil {
		return
	}
	if e.expandRanges {
		for i := 0; i < count; i++ {
			e.WriteHook(addr+mem.Addr(uint64(i)*elemBytes), elemBytes)
		}
		return
	}
	size := uint64(count) * elemBytes
	e.stats.WriteHookCalls++
	e.stats.WriteAccesses += coalesce.Words(addr, size)
	if e.deadSpan(addr, size) {
		return
	}
	e.accessRange(addr, size, true)
}

// StrandEnd samples the footprint high-water mark and the hard cap.
func (e *hashEngine) StrandEnd() {
	if e.capErr == nil {
		e.capErr = samplePeak(&e.stats, e.histBytes(), e.maxBytes)
	}
}

// apply replays one page-contained interval of the current strand against
// the word-granularity history. Intervals on retired pages drop before they
// are counted — page-local, so every execution mode drops the same ones. A
// page can also retire mid-interval (its threshold race fires inside
// accessRange); the per-word guard there drops the rest of its words and
// the check here drops its later intervals.
func (e *hashEngine) apply(addr mem.Addr, size uint64, isWrite bool) {
	if e.stats.PagesQuiesced > 0 && e.table.Retired(uint64(addr)>>coalesce.PageBytesBits) {
		return
	}
	if isWrite {
		e.stats.WriteIntervals++
		e.stats.WriteIntervalBytes += size
	} else {
		e.stats.ReadIntervals++
		e.stats.ReadIntervalBytes += size
	}
	e.accessRange(addr, size, isWrite)
}

// ReadInterval and WriteInterval are CompRTS's entry (see History) and the
// one entry into apply.
func (e *hashEngine) ReadInterval(addr mem.Addr, size uint64)  { e.interval(addr, size, false) }
func (e *hashEngine) WriteInterval(addr mem.Addr, size uint64) { e.interval(addr, size, true) }

func (e *hashEngine) interval(addr mem.Addr, size uint64, isWrite bool) {
	if e.capErr != nil {
		return
	}
	var t0 time.Time
	if e.timeAH {
		t0 = time.Now()
	}
	e.apply(addr, size, isWrite)
	if e.timeAH {
		e.stats.AccessHistoryTime += time.Since(t0)
	}
}

// histBytes estimates the engine's live footprint for this run: the shadow
// pages currently in the directory. Warm capacity parked on free lists
// across Reset is excluded so a Runner that auto-resets after a
// MaxHistoryBytes trip starts the next run near zero; quiesced pages are
// retired to the free list and leave this measure.
func (e *hashEngine) histBytes() uint64 { return e.table.Bytes() }

// CapError returns the history-cap error, if the footprint tripped
// Config.MaxHistoryBytes during the run.
func (e *hashEngine) CapError() error { return e.capErr }

func (e *hashEngine) Finish() {
	e.StrandEnd()
	e.stats.AccessHistoryBytes = e.table.Bytes()
}

func (e *hashEngine) Stats() *Stats { return &e.stats }

// Reset returns the engine to its freshly-constructed state: the shadow
// table retires its pages to the freelist (capacity retained).
func (e *hashEngine) Reset() {
	e.table.Reset()
	e.capErr = nil
	for k := range e.pageRaces {
		delete(e.pageRaces, k)
	}
	e.stats = Stats{}
}

// Footprint reports the engine's retained warm capacity.
func (e *hashEngine) Footprint() Footprint {
	return Footprint{HistPages: e.table.Pages() + e.table.FreePages()}
}
