package detect

import (
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

	// Quiescing and memory-cap state. A race is a word's, so it is counted
	// on that word's shadow page.
	qthresh  int
	maxBytes uint64
	capErr   error
}

func newHashEngine(cfg Config, reach Reach, expandRanges bool) *hashEngine {
	return &hashEngine{
		reach:        reach,
		table:        shadow.New(),
		onRace:       cfg.OnRace,
		expandRanges: expandRanges,
		qthresh:      cfg.QuiesceThreshold,
		maxBytes:     cfg.MaxHistoryBytes,
	}
}

func (e *hashEngine) race(r Race) {
	e.stats.Races++
	if e.onRace != nil {
		e.onRace(r)
	}
}

// deadSpan reports whether [addr, addr+size) lies entirely within one
// retired page — the per-access hooks' fast path. Spans that straddle a
// page boundary always proceed (accessWord drops the dead words).
func (e *hashEngine) deadSpan(addr mem.Addr, size uint64) bool {
	first := addr >> coalesce.PageBytesBits
	return e.stats.PagesQuiesced > 0 && (addr+size-1)>>coalesce.PageBytesBits == first && e.table.Retired(first)
}

// quiescePage retires one shadow page: its 128 KiB of cells are parked and
// the directory maps it to the dead page. Word accesses and flushed spans on
// the page become no-ops from here on.
func (e *hashEngine) quiescePage(idx uint64) {
	e.table.Retire(idx)
	e.stats.PagesQuiesced++
}

// accessWord performs the Feng–Leiserson check-and-update on one word: a
// read races with a parallel last writer; a write races with a parallel
// last writer or leftmost reader. Reads replace the stored reader only when
// left-of it, that is, not parallel with it (see Reach); writes always
// become the last writer.
func (e *hashEngine) accessWord(addr mem.Addr, isWrite bool) {
	w, r := e.table.Cell(addr)
	if w == nil {
		return // page retired: no history op, no check
	}
	e.stats.HashOps++
	cur := e.reach.CurrentID()
	racesBefore := e.stats.Races
	if *w != shadow.None && e.reach.ParallelWithCurrent(*w) {
		e.race(Race{Addr: addr &^ 3, Size: mem.WordSize, Prev: *w, Cur: cur, PrevWrite: true, CurWrite: isWrite})
	}
	if isWrite {
		if *r != shadow.None && e.reach.ParallelWithCurrent(*r) {
			e.race(Race{Addr: addr &^ 3, Size: mem.WordSize, Prev: *r, Cur: cur, PrevWrite: false, CurWrite: true})
		}
		*w = cur
	} else if *r == shadow.None || !e.reach.ParallelWithCurrent(*r) {
		*r = cur
	}
	if n := int32(e.stats.Races - racesBefore); e.qthresh > 0 && n != 0 {
		if idx := uint64(addr) >> coalesce.PageBytesBits; e.table.AddRaces(idx, n) >= int32(e.qthresh) {
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

// ReadHook, WriteHook and the range hooks are Vanilla's and Compiler's
// entry: hook counts one instrumentation call and checks its words.
func (e *hashEngine) ReadHook(addr mem.Addr, size uint64)  { e.hook(addr, size, false) }
func (e *hashEngine) WriteHook(addr mem.Addr, size uint64) { e.hook(addr, size, true) }

func (e *hashEngine) ReadRangeHook(addr mem.Addr, count int, elemBytes uint64) {
	e.rangeHook(addr, count, elemBytes, false)
}

func (e *hashEngine) WriteRangeHook(addr mem.Addr, count int, elemBytes uint64) {
	e.rangeHook(addr, count, elemBytes, true)
}

func (e *hashEngine) hook(addr mem.Addr, size uint64, isWrite bool) {
	if e.capErr != nil {
		return
	}
	if isWrite {
		e.stats.WriteHookCalls++
		e.stats.WriteAccesses += coalesce.Words(addr, size)
	} else {
		e.stats.ReadHookCalls++
		e.stats.ReadAccesses += coalesce.Words(addr, size)
	}
	if !e.deadSpan(addr, size) {
		e.accessRange(addr, size, isWrite)
	}
}

// rangeHook is one hook over the whole range, or under Vanilla one per
// element: the compiler emitted one hook per access.
func (e *hashEngine) rangeHook(addr mem.Addr, count int, elemBytes uint64, isWrite bool) {
	if !e.expandRanges {
		e.hook(addr, uint64(count)*elemBytes, isWrite)
		return
	}
	for i := 0; i < count; i++ {
		e.hook(addr+mem.Addr(uint64(i)*elemBytes), elemBytes, isWrite)
	}
}

// StrandEnd samples the footprint high-water mark and the hard cap.
func (e *hashEngine) StrandEnd() {
	if e.capErr == nil {
		e.capErr = samplePeak(&e.stats, e.histBytes(), e.maxBytes)
	}
}

// ReadInterval and WriteInterval are CompRTS's entry (see History).
func (e *hashEngine) ReadInterval(addr mem.Addr, size uint64)  { e.apply(addr, size, false) }
func (e *hashEngine) WriteInterval(addr mem.Addr, size uint64) { e.apply(addr, size, true) }

// apply replays one page-contained interval of the current strand against
// the word-granularity history, unless the history froze at its cap.
// Intervals on retired pages drop before they are counted — page-local, so
// every execution mode drops the same ones. A page can also retire
// mid-interval (its threshold race fires inside accessRange); the per-word
// guard there drops the rest of its words and the check here drops its
// later intervals.
func (e *hashEngine) apply(addr mem.Addr, size uint64, isWrite bool) {
	if e.capErr != nil || e.stats.PagesQuiesced > 0 && e.table.Retired(uint64(addr)>>coalesce.PageBytesBits) {
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
// table parks its pages (capacity retained).
func (e *hashEngine) Reset() {
	e.table.Reset()
	e.capErr = nil
	e.stats = Stats{}
}

// Footprint reports the engine's retained warm capacity.
func (e *hashEngine) Footprint() Footprint {
	return Footprint{PageDirCap: e.table.Cap(), HistPages: e.table.Made()}
}
