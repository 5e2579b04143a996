package detect

import (
	"time"

	"stint/internal/coalesce"
	"stint/internal/core"
	"stint/internal/mem"
	"stint/internal/pagedir"
	"stint/internal/skiplist"
)

// store abstracts the interval access history so the same detector pipeline
// can run over the paper's treap, the plain-BST ablation, and the Park et
// al. skiplist. core.Tree and skiplist.List both satisfy it.
type store interface {
	InsertWrite(x core.Interval, onOverlap core.OverlapFunc)
	InsertRead(x core.Interval, leftOf core.LeftOfFunc, onOverlap core.OverlapFunc)
	Query(x core.Interval, onOverlap core.OverlapFunc)
	Stats() core.Stats
	Size() int
	// Reset empties the store for reuse, re-deriving any deterministic
	// seeds so a reused store behaves byte-identically to a fresh one.
	Reset()
	// Drop empties the store like Reset but returns its nodes to any
	// shared slab pool first, so quiescing one page's history makes the
	// memory immediately reusable by sibling pages.
	Drop()
}

type treeBackend int

const (
	treeBackendTreap treeBackend = iota
	treeBackendBST
	treeBackendSkiplist
)

// histPage is one shadow page's interval access history: the paper's §4
// observation that the two interval stores are independent per 64 KiB page.
// Keeping the history per page (rather than one global pair of trees) is
// what makes page-hash sharding exact: a shard that owns a page owns every
// interval that can ever overlap intervals of that page, because coalesce
// never emits an interval crossing a page boundary.
type histPage struct {
	read, write store
	races       int32 // races this page has produced (quiesce accounting)
}

// treeEngine is STINT: compile-time and runtime coalescing feeding an
// interval-granularity access history. Hooks only set bits; at strand end
// the deduplicated intervals are checked and inserted:
//
//   - each read interval is checked against the page's write store (a
//     parallel last writer is a race) and inserted into the page's read
//     store, where the left-of relation decides which reader survives on
//     overlap;
//   - each write interval is checked against the page's read store (a
//     parallel leftmost reader is a race) and inserted into the write
//     store, reporting every displaced parallel writer as a race.
//
// Every page's stores are deterministically seeded, so the shape of each
// page's treap depends only on that page's own insertion sequence — the
// property the sharded equivalence suite checks byte-for-byte.
type treeEngine struct {
	stats     Stats
	reach     Reach
	onRace    func(Race)
	timeAH    bool
	backend   treeBackend
	readBits  *coalesce.BitSet
	writeBits *coalesce.BitSet
	pages     pagedir.Dir[histPage]
	pool      *core.Pool  // node slabs shared by every page's trees
	freePages []*histPage // parked pages with reset stores, reused by pageFor
	nPages    int         // histPages ever allocated (live + parked)
	lastIdx   uint64
	lastPage  *histPage
	leftOf    core.LeftOfFunc
	scratch   []span

	// Quiescing and memory-cap state.
	qthresh   int         // Config.QuiesceThreshold; 0 disables
	maxBytes  uint64      // Config.MaxHistoryBytes; 0 disables
	registry  *QuiesceSet // optional cross-goroutine quiesce registry
	capErr    error       // set once the history footprint trips maxBytes
	retired   core.Stats  // store counters salvaged from quiesced pages
	nQuiesced int         // pages quiesced (fast guard for the hot checks)
	lastQIdx  uint64      // 1-entry quiesced-page cache in front of the dir
	lastQ     bool
	curPage   *histPage // page whose span is being flushed (race accounting)

	// Per-flush state and preallocated callbacks: the overlap callbacks
	// capture the engine, not the strand, so flushing allocates nothing.
	curID         int32
	readQueryCB   core.OverlapFunc // write-store overlap vs a read interval
	writeQueryCB  core.OverlapFunc // read-store overlap vs a write interval
	writeInsertCB core.OverlapFunc // write-store overlap vs a write interval
}

func newTreeEngine(cfg Config, reach Reach, backend treeBackend) *treeEngine {
	e := &treeEngine{
		reach:     reach,
		onRace:    cfg.OnRace,
		timeAH:    cfg.TimeAccessHistory,
		backend:   backend,
		readBits:  coalesce.New(),
		writeBits: coalesce.New(),
		qthresh:   cfg.QuiesceThreshold,
		maxBytes:  cfg.MaxHistoryBytes,
		registry:  cfg.Quiesced,
	}
	if backend != treeBackendSkiplist {
		e.pool = core.NewPool()
	}
	e.leftOf = reach.LeftOf
	e.readQueryCB = func(acc int32, lo, hi uint64) {
		if e.reach.Parallel(acc, e.curID) {
			e.race(Race{Addr: lo, Size: hi - lo, Prev: acc, Cur: e.curID, PrevWrite: true, CurWrite: false})
		}
	}
	e.writeQueryCB = func(acc int32, lo, hi uint64) {
		if e.reach.Parallel(acc, e.curID) {
			e.race(Race{Addr: lo, Size: hi - lo, Prev: acc, Cur: e.curID, PrevWrite: false, CurWrite: true})
		}
	}
	e.writeInsertCB = func(acc int32, lo, hi uint64) {
		if e.reach.Parallel(acc, e.curID) {
			e.race(Race{Addr: lo, Size: hi - lo, Prev: acc, Cur: e.curID, PrevWrite: true, CurWrite: true})
		}
	}
	return e
}

// pageFor returns the history for the page containing byte index idx<<16,
// creating its stores on first touch.
func (e *treeEngine) pageFor(idx uint64) *histPage {
	if e.lastPage != nil && idx == e.lastIdx {
		return e.lastPage
	}
	p := e.pages.Get(idx)
	if p == nil {
		if n := len(e.freePages); n > 0 {
			// A parked page's stores were Reset when it was retired, so it is
			// indistinguishable from a fresh page: same seeds, empty stores.
			p = e.freePages[n-1]
			e.freePages[n-1] = nil
			e.freePages = e.freePages[:n-1]
		} else {
			p = &histPage{}
			e.nPages++
			switch e.backend {
			case treeBackendTreap:
				p.read, p.write = core.NewTreeIn(e.pool), core.NewTreeIn(e.pool)
			case treeBackendBST:
				rt, wt := core.NewTreeIn(e.pool), core.NewTreeIn(e.pool)
				rt.SetBalancing(false)
				wt.SetBalancing(false)
				p.read, p.write = rt, wt
			case treeBackendSkiplist:
				p.read, p.write = skiplist.New(), skiplist.New()
			}
		}
		e.pages.Put(idx, p)
	}
	e.lastIdx, e.lastPage = idx, p
	return p
}

func (e *treeEngine) race(r Race) {
	e.stats.Races++
	if e.qthresh > 0 && e.curPage != nil {
		e.curPage.races++
	}
	if e.onRace != nil {
		e.onRace(r)
	}
}

// quiescedIdx reports whether page idx has been quiesced, with a one-entry
// cache in front of the directory probe — racy workloads hammer the same
// dead page, so the common case is a single compare.
func (e *treeEngine) quiescedIdx(idx uint64) bool {
	if e.lastQ && idx == e.lastQIdx {
		return true
	}
	if e.pages.Quiesced(idx) {
		e.lastQIdx, e.lastQ = idx, true
		return true
	}
	return false
}

// deadSpan reports whether [addr, addr+size) lies entirely within one
// quiesced page — the hook fast path: such an access can never contribute a
// race check again, so only its counters are kept. Spans that straddle a
// page boundary always proceed (the flush drops the dead pieces span by
// span), keeping the decision page-local and identical in every execution
// mode regardless of how dispatch split the access.
func (e *treeEngine) deadSpan(addr mem.Addr, size uint64) bool {
	if e.nQuiesced == 0 {
		return false
	}
	first := addr >> coalesce.PageBytesBits
	if (addr+size-1)>>coalesce.PageBytesBits != first {
		return false
	}
	return e.quiescedIdx(first)
}

func (e *treeEngine) ReadHook(addr mem.Addr, size uint64) {
	if e.capErr != nil {
		return
	}
	e.stats.ReadHookCalls++
	e.stats.ReadAccesses += coalesce.Words(addr, size)
	if e.deadSpan(addr, size) {
		return
	}
	e.readBits.Add(addr, size)
}

func (e *treeEngine) WriteHook(addr mem.Addr, size uint64) {
	if e.capErr != nil {
		return
	}
	e.stats.WriteHookCalls++
	e.stats.WriteAccesses += coalesce.Words(addr, size)
	if e.deadSpan(addr, size) {
		return
	}
	e.writeBits.Add(addr, size)
}

func (e *treeEngine) ReadRangeHook(addr mem.Addr, count int, elemBytes uint64) {
	if e.capErr != nil {
		return
	}
	size := uint64(count) * elemBytes
	e.stats.ReadHookCalls++
	e.stats.ReadAccesses += coalesce.Words(addr, size)
	if e.deadSpan(addr, size) {
		return
	}
	e.readBits.SetRange(addr, size)
}

func (e *treeEngine) WriteRangeHook(addr mem.Addr, count int, elemBytes uint64) {
	if e.capErr != nil {
		return
	}
	size := uint64(count) * elemBytes
	e.stats.WriteHookCalls++
	e.stats.WriteAccesses += coalesce.Words(addr, size)
	if e.deadSpan(addr, size) {
		return
	}
	e.writeBits.SetRange(addr, size)
}

// StrandEnd flushes both bit hashmaps and runs the interval-granularity
// race checks and access-history updates for the finishing strand. Each
// flushed interval is contained in one page (coalesce splits at page
// boundaries), so it touches exactly one page's stores. Spans whose page
// has quiesced are dropped before they are counted as intervals — the drop
// is page-local, so every execution mode drops exactly the same spans. A
// page crossing its race threshold quiesces immediately after its span
// completes, which makes the set of surviving race checks a pure function
// of each page's own span sequence.
func (e *treeEngine) StrandEnd() {
	if e.capErr != nil {
		return
	}
	e.curID = e.reach.CurrentID()

	// Reads: race-check against the write history, then record.
	e.flushSpans(false)
	// Writes: race-check against the read history, then insert; displaced
	// parallel writers are races too.
	e.flushSpans(true)

	if b := e.histBytes(); b > e.stats.HistoryBytesPeak {
		e.stats.HistoryBytesPeak = b
		if e.maxBytes > 0 && b > e.maxBytes {
			e.capErr = &HistoryCapError{Limit: e.maxBytes, Bytes: b}
		}
	}
}

func (e *treeEngine) flushSpans(write bool) {
	if write {
		e.collect(e.writeBits)
	} else {
		e.collect(e.readBits)
	}
	if len(e.scratch) == 0 {
		return
	}
	var t0 time.Time
	if e.timeAH {
		t0 = time.Now()
	}
	for _, s := range e.scratch {
		e.apply(s.addr, s.size, write)
	}
	if e.timeAH {
		e.stats.AccessHistoryTime += time.Since(t0)
	}
}

// apply runs one page-contained interval of strand curID through its page's
// stores: the race check against the opposite history, then the insert. An
// interval whose page has quiesced drops before it is counted.
func (e *treeEngine) apply(addr mem.Addr, size uint64, write bool) {
	idx := addr >> coalesce.PageBytesBits
	if e.nQuiesced > 0 && e.quiescedIdx(idx) {
		return
	}
	pg := e.pageFor(idx)
	e.curPage = pg
	iv := core.Interval{Start: addr, End: addr + size, Acc: e.curID}
	if write {
		e.stats.WriteIntervals++
		e.stats.WriteIntervalBytes += size
		pg.read.Query(iv, e.writeQueryCB)
		pg.write.InsertWrite(iv, e.writeInsertCB)
	} else {
		e.stats.ReadIntervals++
		e.stats.ReadIntervalBytes += size
		pg.write.Query(iv, e.readQueryCB)
		pg.read.InsertRead(iv, e.leftOf, nil)
	}
	e.curPage = nil
	if e.qthresh > 0 && int(pg.races) >= e.qthresh {
		e.quiescePage(idx, pg)
	}
}

// ReadInterval and WriteInterval are the pipelined modes' entry (see
// History): the mutator side already coalesced the strand, so the interval
// goes straight to its page's stores. With TimeAccessHistory the clock is
// read per interval instead of per strand.
func (e *treeEngine) ReadInterval(addr mem.Addr, size uint64)  { e.interval(addr, size, false) }
func (e *treeEngine) WriteInterval(addr mem.Addr, size uint64) { e.interval(addr, size, true) }

func (e *treeEngine) interval(addr mem.Addr, size uint64, write bool) {
	if e.capErr != nil {
		return
	}
	var t0 time.Time
	if e.timeAH {
		t0 = time.Now()
	}
	e.curID = e.reach.CurrentID()
	e.apply(addr, size, write)
	if e.timeAH {
		e.stats.AccessHistoryTime += time.Since(t0)
	}
}

// quiescePage retires one page's history: its store counters are salvaged
// into the retired aggregate (Finish still reports the work that was done),
// its nodes go back to the shared pool, the empty shell parks on the page
// freelist for reuse by live pages, and the directory slot becomes a
// quiesced tombstone so the page cannot silently come back. The retained
// footprint is unchanged — no shell is allocated or freed — which is what
// keeps Runner.footprint() stable across quiesce/reset cycles.
func (e *treeEngine) quiescePage(idx uint64, pg *histPage) {
	rs, ws := pg.read.Stats(), pg.write.Stats()
	e.retired.Ops += rs.Ops + ws.Ops
	e.retired.NodesVisited += rs.NodesVisited + ws.NodesVisited
	e.retired.Overlaps += rs.Overlaps + ws.Overlaps
	pg.read.Drop()
	pg.write.Drop()
	pg.races = 0
	e.pages.Quiesce(idx)
	e.freePages = append(e.freePages, pg)
	if e.lastPage == pg {
		e.lastIdx, e.lastPage = 0, nil
	}
	e.lastQIdx, e.lastQ = idx, true
	e.nQuiesced++
	e.stats.PagesQuiesced++
	if e.registry != nil {
		e.registry.Add(idx)
	}
}

// histPageShellBytes approximates a histPage shell plus its directory slot.
const histPageShellBytes = 256

// histBytes estimates the engine's live access-history footprint for this
// run: interval nodes currently linked into page trees and live page
// shells. Warm capacity retained across Reset (slab chunks, parked shells)
// is deliberately excluded — the
// MaxHistoryBytes cap bounds what the current run accumulates, and a Runner
// that auto-resets after tripping the cap must start the next run back at
// (near) zero. Quiescing a page moves its nodes and shell onto free lists,
// so retired pages leave this measure immediately.
func (e *treeEngine) histBytes() uint64 {
	var b uint64
	if e.pool != nil {
		b = e.pool.LiveBytes()
	} else {
		const skiplistNodeBytes = 304 // interval + [32]*node tower
		e.pages.Range(func(_ uint64, p *histPage) {
			b += uint64(p.read.Size()+p.write.Size()) * skiplistNodeBytes
		})
	}
	return b + uint64(e.pages.Len())*histPageShellBytes
}

// CapError returns the history-cap error, if the footprint tripped
// Config.MaxHistoryBytes during the run.
func (e *treeEngine) CapError() error { return e.capErr }

func (e *treeEngine) collect(bits *coalesce.BitSet) {
	e.scratch = e.scratch[:0]
	bits.Flush(func(start mem.Addr, size uint64) {
		e.scratch = append(e.scratch, span{addr: start, size: size})
	})
}

func (e *treeEngine) Finish() {
	e.StrandEnd()
	agg := e.retired // work done on since-quiesced pages still counts
	var stored int
	e.pages.Range(func(_ uint64, p *histPage) {
		rs, ws := p.read.Stats(), p.write.Stats()
		agg.Ops += rs.Ops + ws.Ops
		agg.NodesVisited += rs.NodesVisited + ws.NodesVisited
		agg.Overlaps += rs.Overlaps + ws.Overlaps
		stored += p.read.Size() + p.write.Size()
	})
	e.stats.TreapOps = agg.Ops
	e.stats.TreapNodesVisited = agg.NodesVisited
	e.stats.TreapOverlaps = agg.Overlaps
	// Approximate footprint: one node per stored interval (quiesced pages
	// store nothing — that is the point).
	e.stats.AccessHistoryBytes = uint64(stored) * 48
}

func (e *treeEngine) Stats() *Stats { return &e.stats }

// Reset returns the engine to its freshly-constructed state with its warm
// capacity retained: every live history page has its stores Reset (seeds
// re-derived, contents dropped) and is parked on the page freelist, the
// shared node pool rewinds wholesale, the directory keeps its backing
// array, and the coalescing bit hashmaps clear any mid-strand state an
// aborted run may have left behind. In steady state Reset allocates
// nothing and the retained footprint (pool chunks, directory capacity,
// page count) stops growing once the engine has seen its peak run.
func (e *treeEngine) Reset() {
	e.readBits.Reset()
	e.writeBits.Reset()
	e.pages.Reset(func(p *histPage) {
		p.read.Reset()
		p.write.Reset()
		p.races = 0
		e.freePages = append(e.freePages, p)
	})
	if e.pool != nil {
		e.pool.Reset()
	}
	e.lastIdx, e.lastPage = 0, nil
	e.scratch = e.scratch[:0]
	e.curID = 0
	e.capErr = nil
	e.retired = core.Stats{}
	e.nQuiesced = 0
	e.lastQIdx, e.lastQ = 0, false
	e.curPage = nil
	e.stats = Stats{}
}

// Footprint reports the engine's retained warm capacity; the reuse-soak
// test asserts it stops growing after warm-up.
func (e *treeEngine) Footprint() Footprint {
	var chunks int
	if e.pool != nil {
		chunks = e.pool.Stats().Chunks
	}
	return Footprint{
		PoolChunks: chunks,
		PageDirCap: e.pages.Cap(),
		HistPages:  e.nPages,
		BitPages:   e.readBits.Pages() + e.writeBits.Pages(),
	}
}

// HistorySizes reports the number of intervals currently stored across all
// pages' read and write histories (used by the skiplist-vs-treap ablation).
func (e *treeEngine) HistorySizes() (read, write int) {
	e.pages.Range(func(_ uint64, p *histPage) {
		read += p.read.Size()
		write += p.write.Size()
	})
	return read, write
}
