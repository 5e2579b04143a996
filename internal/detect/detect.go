// Package detect implements the race-detector engines evaluated in the
// paper: the vanilla word-granularity detector, the compile-time-coalescing
// variant, the comp+rts variant that adds runtime coalescing over a hashmap
// access history, and STINT, which adds the interval-treap access history.
//
// The package is three things: Coalescer (§3.2, the one mutator side — hooks
// that only set bits, flushed into intervals at strand end), History (§4,
// an access history fed those intervals), and the per-access engines
// (Vanilla, Compiler) that have no coalescing half. A synchronous
// runtime-coalescing detector is a Coalescer flushed into a History on one
// goroutine (New); the stint runner's pipelines put a ring between the two.
//
// All of them share a reachability substrate behind Reach (SP-Order,
// stint/internal/spord, for fork-join programs) — exactly the four
// configurations of the paper's Figure 5.
package detect

import (
	"errors"
	"fmt"
	"time"

	"stint/internal/mem"
)

// Reach abstracts the reachability component. The fork-join runner supplies
// SP-Order (stint/internal/spord); stint.Runner.RunStrands takes a caller's
// (stint/pipeline's 2D grid, stint/dag's ancestor bitsets). Strands are
// identified by dense int32 IDs; the engines only ever compare the currently
// executing strand against stored IDs, plus stored-vs-new left-of
// arbitration in the read history. Once two IDs exist, Parallel and LeftOf
// must keep answering the same about them until the engine is Reset: the
// tree engine remembers recent answers. A Reach that also has a method
// Series(a, b int32) bool (a happens-before b) is a general DAG, whose reads
// the tree engine keeps as antichains (see treeEngine).
type Reach interface {
	// CurrentID identifies the strand the program is executing now.
	CurrentID() int32
	// Parallel reports whether two strands are logically parallel.
	Parallel(a, b int32) bool
	// LeftOf reports whether strand a is left-of strand b: parallel and
	// earlier in sequential order, or in series and later.
	LeftOf(a, b int32) bool
}

// Mode selects a detector engine.
type Mode int

const (
	// Off disables detection entirely; hooks are not invoked.
	Off Mode = iota
	// ReachOnly maintains SP-Order but no access history, isolating the
	// reachability component's overhead (Figure 1's "reach." column).
	ReachOnly
	// Vanilla checks every memory access word by word against a two-level
	// page-table hashmap. Compiler-coalesced range hooks are expanded back
	// into per-access hooks, modeling per-access instrumentation.
	Vanilla
	// Compiler is Vanilla plus compile-time coalescing: range hooks reach
	// the access history as single calls that iterate words internally.
	Compiler
	// CompRTS adds runtime coalescing: accesses set bits in a bit hashmap
	// and race checks run once per strand over deduplicated words, still
	// against the word-granularity hashmap access history.
	CompRTS
	// STINT is the paper's full system: compile-time and runtime coalescing
	// with the interval-treap access history of §4.
	STINT
	// STINTUnbalanced is the ablation that turns off treap priorities,
	// degrading the access-history trees to plain BSTs.
	STINTUnbalanced
)

// String returns the mode name used in tables and CLI flags.
func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case ReachOnly:
		return "reach"
	case Vanilla:
		return "vanilla"
	case Compiler:
		return "compiler"
	case CompRTS:
		return "comp+rts"
	case STINT:
		return "stint"
	case STINTUnbalanced:
		return "stint-unbalanced"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode converts a mode name (as produced by String) back to a Mode.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{Off, ReachOnly, Vanilla, Compiler, CompRTS, STINT, STINTUnbalanced} {
		if m.String() == s {
			return m, nil
		}
	}
	return Off, fmt.Errorf("detect: unknown mode %q", s)
}

// Race describes one detected determinacy race: two logically parallel
// accesses to an overlapping address range, at least one a write.
type Race struct {
	Addr mem.Addr // start of the overlapping range
	Size uint64   // length of the overlapping range in bytes
	Prev int32    // strand stored in the access history
	Cur  int32    // strand performing the current access
	// PrevWrite and CurWrite give the access kinds; at least one is true.
	PrevWrite bool
	CurWrite  bool
}

func (r Race) String() string {
	kind := func(w bool) string {
		if w {
			return "write"
		}
		return "read"
	}
	return fmt.Sprintf("race: %s by strand %d and %s by strand %d on [%#x,%#x)",
		kind(r.PrevWrite), r.Prev, kind(r.CurWrite), r.Cur, r.Addr, r.Addr+r.Size)
}

// Stats aggregates the counters behind every figure in the paper's
// evaluation.
type Stats struct {
	// Word-granularity access counts, duplicates included (Fig 1, Fig 6
	// "acc." columns).
	ReadAccesses  uint64
	WriteAccesses uint64
	// Instrumentation calls as emitted after compile-time coalescing
	// (Fig 6 "compiler int." columns: each hook call is one interval).
	ReadHookCalls  uint64
	WriteHookCalls uint64
	// Intervals after runtime coalescing (Fig 6 "both int." columns) and
	// their total size in bytes (Fig 6 "sum", deduplicated within strands).
	ReadIntervals      uint64
	WriteIntervals     uint64
	ReadIntervalBytes  uint64
	WriteIntervalBytes uint64
	// Access-history operation counts: per-word hashmap operations and
	// treap operations (Fig 8 "hash ops" / "treap ops").
	HashOps  uint64
	TreapOps uint64
	// Treap traversal detail (Fig 8 "# nodes" / "# overlaps" are these
	// divided by TreapOps).
	TreapNodesVisited uint64
	TreapOverlaps     uint64
	// Time spent in the access history alone (Fig 7, Fig 8 "oh" columns),
	// measured only when Config.TimeAccessHistory is set.
	AccessHistoryTime time.Duration
	// Races found (every report, before any deduplication by the caller).
	Races uint64
	// AccessHistoryBytes approximates the access-history footprint.
	AccessHistoryBytes uint64
	// AllocObjects and AllocBytes are the heap-allocation deltas measured
	// around the instrumented run (runtime.ReadMemStats before and after):
	// the detector's GC pressure, including the program under test. They
	// are populated by the stint runner, not by the engines, and back the
	// allocation-regression numbers in EXPERIMENTS.md.
	AllocObjects uint64
	AllocBytes   uint64
	// PipelineDetectTime is the detector workers' summed busy time in the
	// pipelined modes: the wall clock they spent processing event batches,
	// excluding waits for the producer. Zero in synchronous mode. On a
	// machine with >=2 cores the pipelined wall clock approaches
	// max(compute, PipelineDetectTime) instead of their sum. Populated by
	// the stint runner's consumer, not by the engines.
	PipelineDetectTime time.Duration
	// EventsStreamed and StreamBytes describe the pipelined modes' event
	// stream: the logical events published through the pipeline — one per
	// flushed interval plus one per structure event — and the wire bytes
	// they occupied. Zero in synchronous mode. Populated by the stint
	// runner's drain, not by the engines, and not Accumulated.
	EventsStreamed uint64
	StreamBytes    uint64
	// PagesQuiesced counts 64 KiB history pages retired because they hit
	// Config.QuiesceThreshold recorded races. Quiesce decisions are
	// page-local and taken at span boundaries, so the count is identical
	// across execution modes.
	PagesQuiesced uint64
	// HistoryBytesPeak is the high-water mark of the engine's retained
	// access-history footprint (history stores and page shells), sampled at
	// strand boundaries. Pool-chunk granularity makes it an
	// estimate that varies with shard count; compare it only within one
	// configuration.
	HistoryBytesPeak uint64
}

// Accumulate adds o's deterministic detection counters into s. It is the
// sharded merge: pages are disjoint across workers and flushed intervals
// page-contained, so per-worker counters partition the synchronous run's
// totals and summing them restores it exactly. The pipelines' mutator side
// contributes its share — the hook counters — the same way. The runner-populated fields
// (AllocObjects, AllocBytes, PipelineDetectTime) are owned by whoever
// orchestrates the run and deliberately not accumulated.
func (s *Stats) Accumulate(o *Stats) {
	s.ReadAccesses += o.ReadAccesses
	s.WriteAccesses += o.WriteAccesses
	s.ReadHookCalls += o.ReadHookCalls
	s.WriteHookCalls += o.WriteHookCalls
	s.ReadIntervals += o.ReadIntervals
	s.WriteIntervals += o.WriteIntervals
	s.ReadIntervalBytes += o.ReadIntervalBytes
	s.WriteIntervalBytes += o.WriteIntervalBytes
	s.HashOps += o.HashOps
	s.TreapOps += o.TreapOps
	s.TreapNodesVisited += o.TreapNodesVisited
	s.TreapOverlaps += o.TreapOverlaps
	s.AccessHistoryTime += o.AccessHistoryTime
	s.Races += o.Races
	s.AccessHistoryBytes += o.AccessHistoryBytes
	s.PagesQuiesced += o.PagesQuiesced
	s.HistoryBytesPeak += o.HistoryBytesPeak
}

// Config configures an engine.
type Config struct {
	Mode Mode
	// OnRace, if set, receives every race as it is found.
	OnRace func(Race)
	// TimeAccessHistory enables the timers behind Figures 7 and 8: New's
	// engines read the clock around each strand's flush (bitmap extraction
	// excluded), a bare History around each interval.
	TimeAccessHistory bool
	// QuiesceThreshold, when positive, retires a 64 KiB history page once
	// it has produced that many races: its history drops back onto the free
	// lists and later accesses wholly within it become no-ops. Zero
	// disables quiescing.
	QuiesceThreshold int
	// MaxHistoryBytes, when positive, caps this engine's retained
	// access-history footprint. The check runs at strand boundaries; on
	// trip the history freezes (later accesses and intervals are dropped)
	// and records a HistoryCapError retrievable via CapErrorOf.
	MaxHistoryBytes uint64
}

// Engine is the event interface between the fork-join runner and a
// detector. The runner guarantees that StrandEnd is called while the
// finishing strand is still current in the SP structure, before any
// spawn/sync transition, and that Finish is called once after the program
// completes.
type Engine interface {
	// ReadHook and WriteHook report one memory access of size bytes at
	// addr (per-access instrumentation).
	ReadHook(addr mem.Addr, size uint64)
	WriteHook(addr mem.Addr, size uint64)
	// ReadRangeHook and WriteRangeHook report a compiler-coalesced access
	// to count elements of elemBytes bytes each starting at addr.
	ReadRangeHook(addr mem.Addr, count int, elemBytes uint64)
	WriteRangeHook(addr mem.Addr, count int, elemBytes uint64)
	// StrandEnd flushes per-strand state; the ending strand is still
	// current.
	StrandEnd()
	// Finish flushes any remaining state after the final strand.
	Finish()
	// Stats returns the accumulated counters.
	Stats() *Stats
	// Reset returns the engine to its freshly-constructed state while
	// retaining its warm capacity (slab pools, page directories, coalescing
	// freelists), so a long-lived runner can reuse one engine across runs
	// with zero steady-state heap growth. A reset engine must be
	// indistinguishable from a fresh one: deterministic seeds re-derive,
	// counters zero, and no access recorded before the Reset can influence
	// a check after it.
	Reset()
}

// History is an access history fed a strand's intervals instead of its
// accesses — the detector side of every runtime-coalescing mode, inline or
// behind a pipeline's ring. A Coalescer's Flush supplies the intervals —
// address-sorted, page-contained, reads before writes — so ReadInterval and
// WriteInterval apply an interval to its page's history at once, and
// StrandEnd, called while the finishing strand is still current, only
// samples the footprint and the cap. The hook counters stay zero: they are
// counted where the hooks run.
type History interface {
	ReadInterval(addr mem.Addr, size uint64)
	WriteInterval(addr mem.Addr, size uint64)
	StrandEnd()
	// Finish samples the final strand boundary and totals the Stats.
	Finish()
	Stats() *Stats
	// Reset has Engine.Reset's contract.
	Reset()
}

// New builds the engine for cfg.Mode over the given reachability structure.
// Off and ReachOnly return a no-op engine (the runner additionally skips
// hook dispatch entirely for Off).
func New(cfg Config, reach Reach) Engine {
	switch cfg.Mode {
	case Off, ReachOnly:
		return &nopEngine{}
	case Vanilla:
		return newHashEngine(cfg, reach, true)
	case Compiler:
		return newHashEngine(cfg, reach, false)
	}
	return newInline(cfg, reach)
}

// NewHistory builds the history for a mode fed by runtime coalescing — the
// only ones a pipeline can stream intervals to — or the no-op one for Off
// and ReachOnly.
func NewHistory(cfg Config, reach Reach) History {
	switch cfg.Mode {
	case Off, ReachOnly:
		return &nopEngine{}
	case CompRTS:
		return newHashEngine(cfg, reach, false)
	case STINT, STINTUnbalanced:
		return newTreeEngine(cfg, reach, cfg.Mode == STINTUnbalanced)
	}
	panic(fmt.Sprintf("detect: no interval-fed engine for mode %v", cfg.Mode))
}

// inline is New's engine for the runtime-coalescing modes: a Coalescer
// flushed into a History on the caller's goroutine — a pipeline with no
// ring between its halves. With quiescing on the Coalescer asks the History
// which pages have retired, so the hooks drop dead-page accesses.
type inline struct {
	*Coalescer
	hist        History
	read, write func(addr mem.Addr, size uint64) // hist's entry points, bound once
	// With TimeAccessHistory a strand's intervals are collected before they
	// are applied, so the timed section excludes bitmap extraction; hist is
	// built with timing off.
	timeAH       bool
	spans        []span
	keepR, keepW func(addr mem.Addr, size uint64)
	stats        Stats
}

// span is a flushed interval awaiting its timed application.
type span struct {
	addr, size uint64
	write      bool
}

func newInline(cfg Config, reach Reach) *inline {
	e := &inline{Coalescer: NewCoalescer(), timeAH: cfg.TimeAccessHistory}
	cfg.TimeAccessHistory = false
	e.hist = NewHistory(cfg, reach)
	if cfg.QuiesceThreshold > 0 {
		e.Coalescer.hist = e.hist.(retirer)
	}
	e.read, e.write = e.hist.ReadInterval, e.hist.WriteInterval
	e.keepR = func(addr mem.Addr, size uint64) { e.spans = append(e.spans, span{addr, size, false}) }
	e.keepW = func(addr mem.Addr, size uint64) { e.spans = append(e.spans, span{addr, size, true}) }
	return e
}

func (e *inline) ReadRangeHook(addr mem.Addr, count int, elemBytes uint64) {
	e.ReadHook(addr, uint64(count)*elemBytes)
}

func (e *inline) WriteRangeHook(addr mem.Addr, count int, elemBytes uint64) {
	e.WriteHook(addr, uint64(count)*elemBytes)
}

// flush applies the finishing strand's intervals to the history.
func (e *inline) flush() {
	if !e.timeAH {
		e.Flush(e.read, e.write)
		return
	}
	e.spans = e.spans[:0]
	e.Flush(e.keepR, e.keepW)
	if len(e.spans) == 0 {
		return
	}
	t0 := time.Now()
	for _, s := range e.spans {
		if s.write {
			e.write(s.addr, s.size)
		} else {
			e.read(s.addr, s.size)
		}
	}
	e.hist.Stats().AccessHistoryTime += time.Since(t0)
}

func (e *inline) StrandEnd() { e.flush(); e.hist.StrandEnd() }
func (e *inline) Finish()    { e.flush(); e.hist.Finish() }

// Stats returns the history's counters with the hook counters folded in.
func (e *inline) Stats() *Stats {
	e.stats = *e.hist.Stats()
	e.stats.Accumulate(e.Hooks())
	return &e.stats
}

func (e *inline) Reset() {
	e.Coalescer.Reset()
	e.hist.Reset()
}

func (e *inline) CapError() error { return CapErrorOf(e.hist) }

func (e *inline) Footprint() Footprint {
	f := FootprintOf(e.hist)
	f.BitPages = e.Pages()
	return f
}

// Footprint describes an engine's retained warm capacity — the memory a
// reset-and-reuse lifecycle keeps parked between runs. The root package's
// TestReuseFootprintStopsGrowing asserts every field stops growing once a
// reused engine has seen its peak workload (the zero-steady-state-heap-growth
// contract).
type Footprint struct {
	PoolNodes  int // treap node-slab capacity, in nodes (live + free + uncarved)
	PageDirCap int // page-directory backing capacity
	HistPages  int // history pages ever allocated (live + parked)
	BitPages   int // coalescing bit-hashmap pages ever allocated
}

// Add accumulates o into f (summing across shard workers).
func (f *Footprint) Add(o Footprint) {
	f.PoolNodes += o.PoolNodes
	f.PageDirCap += o.PageDirCap
	f.HistPages += o.HistPages
	f.BitPages += o.BitPages
}

// FootprintOf returns the warm footprint of an Engine or History, or a zero
// Footprint for those that do not expose one (the no-op and oracle engines).
func FootprintOf(e any) Footprint {
	if f, ok := e.(interface{ Footprint() Footprint }); ok {
		return f.Footprint()
	}
	return Footprint{}
}

// ErrHistoryCap is the sentinel every history-cap error unwraps to; callers
// match it with errors.Is to distinguish a resource-bound abort from a
// detector failure.
var ErrHistoryCap = errors.New("detect: access history exceeded MaxHistoryBytes")

// HistoryCapError reports that an engine's retained access history crossed
// the configured cap. It wraps ErrHistoryCap. The overshoot is bounded by
// one strand's worth of history: the check runs at strand boundaries. An
// engine whose node pool might run out of 32-bit refs (4 GiB of nodes)
// reports it too, before the interval, with that space as Limit.
type HistoryCapError struct {
	Limit uint64 // the per-engine budget: Config.MaxHistoryBytes, or the pool's ref space
	Bytes uint64 // the footprint estimate that tripped it
}

func (e *HistoryCapError) Error() string {
	return fmt.Sprintf("detect: access history %d bytes exceeds its %d-byte budget (MaxHistoryBytes, or the node pool's ref space)", e.Bytes, e.Limit)
}

func (e *HistoryCapError) Unwrap() error { return ErrHistoryCap }

// samplePeak is a history's strand-boundary sample: live footprint b raises
// the high-water mark and, past a positive limit, trips the cap.
func samplePeak(st *Stats, b, limit uint64) error {
	if b > st.HistoryBytesPeak {
		st.HistoryBytesPeak = b
		if limit > 0 && b > limit {
			return &HistoryCapError{Limit: limit, Bytes: b}
		}
	}
	return nil
}

// CapErrorOf returns the history-cap error an Engine or History recorded,
// or nil — nil for those without cap support (the no-op and oracle engines)
// and for those that stayed under Config.MaxHistoryBytes.
func CapErrorOf(e any) error {
	if c, ok := e.(interface{ CapError() error }); ok {
		return c.CapError()
	}
	return nil
}

// CoalescerOf returns the Coalescer in front of New's runtime-coalescing
// engines, for callers that drive its hooks directly (StrandEnd still
// flushes it), or nil for engines whose hooks reach the history itself.
func CoalescerOf(e any) *Coalescer {
	if in, ok := e.(*inline); ok {
		return in.Coalescer
	}
	return nil
}

// nopEngine supports Off and ReachOnly.
type nopEngine struct{ stats Stats }

func (e *nopEngine) ReadHook(mem.Addr, uint64)            {}
func (e *nopEngine) WriteHook(mem.Addr, uint64)           {}
func (e *nopEngine) ReadRangeHook(mem.Addr, int, uint64)  {}
func (e *nopEngine) WriteRangeHook(mem.Addr, int, uint64) {}
func (e *nopEngine) ReadInterval(mem.Addr, uint64)        {}
func (e *nopEngine) WriteInterval(mem.Addr, uint64)       {}
func (e *nopEngine) StrandEnd()                           {}
func (e *nopEngine) Finish()                              {}
func (e *nopEngine) Stats() *Stats                        { return &e.stats }
func (e *nopEngine) Reset()                               { e.stats = Stats{} }
