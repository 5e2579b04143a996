package detect

import (
	"stint/internal/coalesce"
	"stint/internal/core"
	"stint/internal/mem"
	"stint/internal/multiread"
	"stint/internal/pagedir"
)

// histPage is one shadow page's interval access history: the paper's §4
// observation that the two interval trees are independent per 64 KiB page.
// Keeping the history per page (rather than one global pair of trees) is
// what makes page-hash sharding exact: a shard that owns a page owns every
// interval that can ever overlap intervals of that page, because coalesce
// never emits an interval crossing a page boundary.
type histPage struct {
	read, write core.Tree // the paper's two interval treaps, over the engine's pool
	races       int32     // races this page has produced (quiesce accounting)
}

// The trees store word positions: a page is 1<<pageWordBits of them, well
// inside a core.Tree's span, and one operation creates at most maxOpNodes.
const (
	pageWordBits = coalesce.PageBytesBits - mem.WordShift
	maxOpNodes   = 1<<pageWordBits + 2
)

// treeEngine is STINT's interval-granularity access history (§4). A
// strand's coalesced intervals arrive one at a time, each contained in one
// page (coalesce splits at page boundaries), so it touches exactly one
// page's trees:
//
//   - each read interval is checked against the page's write tree (a
//     parallel last writer is a race) and inserted into the page's read
//     tree, where the left-of relation decides which reader survives on
//     overlap;
//   - each write interval is checked against the page's read tree (a
//     parallel leftmost reader is a race) and inserted into the write
//     tree, reporting every displaced parallel writer as a race.
//
// Every page's trees are deterministically seeded, so the shape of each
// page's treap depends only on that page's own insertion sequence — the
// property the contract harness checks byte-for-byte across shard counts.
//
// A Reach that also answers Series is a general DAG, where no single reader
// per word is a sufficient witness (§7): reads go into one multiread
// antichain map, pruned by Series, instead of the read trees.
type treeEngine struct {
	stats     Stats
	reach     Reach
	onRace    func(Race)
	pool      *core.Pool // node slabs shared by every page's trees
	leftOf    core.LeftOfFunc
	par, left relMemo // reach.ParallelWithCurrent answers for race checks / left-of
	pages     pagedir.Dir[histPage]

	// Quiescing and memory-cap state.
	qthresh  int        // Config.QuiesceThreshold; 0 disables
	maxBytes uint64     // Config.MaxHistoryBytes; 0 disables
	capErr   error      // set once the history footprint trips maxBytes
	retired  core.Stats // tree counters salvaged from quiesced pages
	curPage  *histPage  // page whose interval is being applied (race accounting)

	// Per-interval state and preallocated callbacks: the overlap callbacks
	// capture the engine, not the strand, so applying allocates nothing.
	curID         int32
	readQueryCB   core.OverlapFunc // write-tree overlap vs a read interval
	writeQueryCB  core.OverlapFunc // read-tree overlap vs a write interval
	writeInsertCB core.OverlapFunc // write-tree overlap vs a write interval

	series multiread.SeriesFunc // the Reach's Series, or nil: reads go to the read trees
	reads  multiread.Map        // the general-DAG read history, when series is set

	// dead is a quiesced page's directory entry: a shell never initialized
	// and never applied to. It sits last, so the hot fields keep their
	// offsets.
	dead histPage
}

// relMemo remembers reach's latest answers about (stored accessor, current
// strand) pairs. A covered stretch of history usually alternates between a
// few accessors — fft's between the two shuffle strands of the level below —
// so four direct-mapped entries turn one reachability query per overlap into
// one per accessor per run (one entry thrashes on exactly that alternation).
// The race checks and the read tree's left-of ask the same question but keep
// a memo each: they walk different trees, whose accessors would evict each
// other's entries (fft: 240 000 queries with one memo, 11 000 with two). An
// entry stays true until Reset zeroes the memo.
type relMemo [4]struct {
	pair uint64 // stored accessor<<32 | current strand, plus one: 0 is empty
	yes  bool
}

// ask returns reach.ParallelWithCurrent(acc) while cur is current, asking
// reach only when the pair is not the last one its entry saw.
func (m *relMemo) ask(reach Reach, acc, cur int32) bool {
	pair := (uint64(uint32(acc))<<32 | uint64(uint32(cur))) + 1
	e := &m[uint32(acc)%uint32(len(m))]
	if e.pair != pair {
		e.pair, e.yes = pair, reach.ParallelWithCurrent(acc)
	}
	return e.yes
}

func newTreeEngine(cfg Config, reach Reach) *treeEngine {
	e := &treeEngine{
		reach:    reach,
		onRace:   cfg.OnRace,
		pool:     core.NewPool(),
		qthresh:  cfg.QuiesceThreshold,
		maxBytes: cfg.MaxHistoryBytes,
	}
	if dag, ok := reach.(interface{ Series(a, b int32) bool }); ok {
		e.series = dag.Series
	}
	// The read tree asks whether the current reader is left-of a stored
	// one, which ran earlier: exactly when the two are not parallel.
	e.leftOf = func(cur, stored int32) bool { return !e.left.ask(reach, stored, cur) }
	overlapCB := func(prevWrite, curWrite bool) core.OverlapFunc {
		return func(acc int32, lo, hi uint64) { // word positions
			if e.par.ask(reach, acc, e.curID) {
				e.race(Race{Addr: lo << mem.WordShift, Size: (hi - lo) << mem.WordShift,
					Prev: acc, Cur: e.curID, PrevWrite: prevWrite, CurWrite: curWrite})
			}
		}
	}
	e.readQueryCB = overlapCB(true, false)
	e.writeQueryCB = overlapCB(false, true)
	e.writeInsertCB = overlapCB(true, true)
	return e
}

// pageFor returns the history for the page containing byte index idx<<16,
// binding it on first touch, or &e.dead once the page has quiesced.
func (e *treeEngine) pageFor(idx uint64) *histPage {
	if p := e.pages.Last(idx); p != nil {
		return p
	}
	p, fresh := e.pages.Bind(idx)
	if fresh {
		// A parked page's trees were Reset or Dropped, so Init writes the
		// seed and pool they already hold: but for its base it is new.
		p.read.Init(e.pool)
		p.write.Init(e.pool)
		p.read.SetBase(idx << pageWordBits)
		p.write.SetBase(idx << pageWordBits)
		p.races = 0
	}
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

// StrandEnd samples the footprint high-water mark and the hard cap at the
// strand boundary. Intervals whose page has quiesced were dropped before
// they were counted — the drop is page-local, so every execution mode drops
// exactly the same ones — and a page crossing its race threshold quiesces
// immediately after the interval that did it, which makes the set of
// surviving race checks a pure function of each page's own interval
// sequence.
func (e *treeEngine) StrandEnd() {
	if e.capErr == nil {
		e.capErr = samplePeak(&e.stats, e.histBytes(), e.maxBytes)
	}
}

// apply runs one page-contained interval of strand curID through its page's
// trees: the race check against the opposite history, then the insert. An
// interval whose page has quiesced drops before it is counted; one the
// pool's 32-bit refs might not have room for trips the history cap.
func (e *treeEngine) apply(addr mem.Addr, size uint64, write bool) {
	idx := addr >> coalesce.PageBytesBits
	pg := e.pageFor(idx)
	if pg == &e.dead {
		return
	}
	if !e.pool.HasRoom(maxOpNodes) {
		e.capErr = &HistoryCapError{Limit: e.pool.MaxBytes(), Bytes: e.histBytes() + maxOpNodes*core.NodeBytes}
		return
	}
	e.curPage = pg
	iv := core.Interval{Start: addr >> mem.WordShift, End: (addr + size) >> mem.WordShift, Acc: e.curID}
	if write {
		e.stats.WriteIntervals++
		e.stats.WriteIntervalBytes += size
		if e.series != nil {
			e.reads.Query(iv.Start, iv.End, multiread.EmitFunc(e.writeQueryCB))
		} else {
			pg.read.Query(iv, e.writeQueryCB)
		}
		pg.write.InsertWrite(iv, e.writeInsertCB)
	} else {
		e.stats.ReadIntervals++
		e.stats.ReadIntervalBytes += size
		pg.write.Query(iv, e.readQueryCB)
		if e.series != nil {
			e.reads.Insert(iv.Start, iv.End, e.curID, e.series)
		} else {
			pg.read.InsertRead(iv, e.leftOf, nil)
		}
	}
	e.curPage = nil
	if e.qthresh > 0 && int(pg.races) >= e.qthresh {
		e.quiescePage(idx, pg)
	}
}

// ReadInterval and WriteInterval are the one entry into apply; interval
// drops everything once the history froze at its cap. The clock, if any,
// is the clocked History around this one.
func (e *treeEngine) ReadInterval(addr mem.Addr, size uint64)  { e.interval(addr, size, false) }
func (e *treeEngine) WriteInterval(addr mem.Addr, size uint64) { e.interval(addr, size, true) }

func (e *treeEngine) interval(addr mem.Addr, size uint64, write bool) {
	if e.capErr != nil {
		return
	}
	e.curID = e.reach.CurrentID()
	e.apply(addr, size, write)
}

// quiescePage retires one page's history: its tree counters are salvaged
// into the retired aggregate (Finish still reports the work that was done),
// its nodes go back to the shared pool, and the directory parks the empty
// shell for reuse by live pages and maps idx to &e.dead so the page cannot
// silently come back. The retained footprint is unchanged — no shell is
// allocated or freed — which is what keeps Runner.footprint() stable across
// quiesce/reset cycles.
func (e *treeEngine) quiescePage(idx uint64, pg *histPage) {
	rs, ws := pg.read.Stats(), pg.write.Stats()
	e.retired.Ops += rs.Ops + ws.Ops
	e.retired.NodesVisited += rs.NodesVisited + ws.NodesVisited
	e.retired.Overlaps += rs.Overlaps + ws.Overlaps
	pg.read.Drop()
	pg.write.Drop()
	e.pages.Retire(idx, &e.dead)
	e.stats.PagesQuiesced++
}

// histPageShellBytes approximates a histPage shell plus its directory slot.
// A quiesced page's slot holds no shell and is not counted.
const histPageShellBytes = 256

// histBytes estimates the engine's live access-history footprint for this
// run: interval nodes currently linked into page trees, live page shells,
// and a node's worth per reader the antichain map keeps (a region with one
// reader stores what a node does). Warm capacity retained across Reset (the
// node slab, parked shells) is deliberately excluded — the
// MaxHistoryBytes cap bounds what the current run accumulates, and a Runner
// that auto-resets after tripping the cap must start the next run back at
// (near) zero. Quiescing a page moves its nodes and shell onto free lists,
// so retired pages leave this measure immediately.
func (e *treeEngine) histBytes() uint64 {
	return e.pool.LiveBytes() + uint64(e.pages.Live())*histPageShellBytes + uint64(e.reads.Readers())*core.NodeBytes
}

// CapError returns the history-cap error, if the footprint tripped
// Config.MaxHistoryBytes during the run.
func (e *treeEngine) CapError() error { return e.capErr }

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
	e.stats.TreapOps = agg.Ops + e.reads.Ops()
	e.stats.TreapNodesVisited = agg.NodesVisited
	e.stats.TreapOverlaps = agg.Overlaps
	// Footprint: one node per stored interval or antichain reader (quiesced
	// pages store nothing — that is the point).
	e.stats.AccessHistoryBytes = uint64(stored+e.reads.Readers()) * core.NodeBytes
}

func (e *treeEngine) Stats() *Stats { return &e.stats }

// Reset returns the engine to its freshly-constructed state with its warm
// capacity retained: every live history page has its trees Reset (contents
// dropped) and is parked, the shared node pool rewinds wholesale, the
// directory keeps its backing array. In steady state Reset allocates
// nothing and the retained footprint (node slab, directory capacity,
// page count) stops growing once the engine has seen its peak run.
func (e *treeEngine) Reset() {
	e.pages.Reset(func(p *histPage) {
		p.read.Reset()
		p.write.Reset()
	})
	e.pool.Reset()
	e.par, e.left = relMemo{}, relMemo{}
	e.reads = multiread.Map{}
	e.curID = 0
	e.capErr = nil
	e.retired = core.Stats{}
	e.curPage = nil
	e.stats = Stats{}
}

// Footprint reports the engine's retained warm capacity; the root package's
// TestReuseFootprintStopsGrowing asserts it stops growing after warm-up.
func (e *treeEngine) Footprint() Footprint {
	return Footprint{
		PoolNodes:  e.pool.Stats().Cap,
		PageDirCap: e.pages.Cap(),
		HistPages:  e.pages.Made(),
	}
}
