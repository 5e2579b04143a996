// Package stint is a sequential determinacy-race detector for fork-join
// task-parallel programs, reproducing "Efficient Access History for Race
// Detection" (SPAA 2021).
//
// Programs are written against Task: Spawn runs a subtask that is logically
// parallel with the caller's continuation, and Sync joins all subtasks
// spawned since the last sync. Memory accesses are reported through
// instrumentation hooks — Load/Store for individual accesses and
// LoadRange/StoreRange where a compiler could statically coalesce a loop's
// accesses into one contiguous interval (§3.1 of the paper). Addresses come
// from a virtual Arena so detection is deterministic and portable.
//
// The Detector option selects the paper's configurations: Vanilla checks
// every access against a word-granularity shadow hashmap; Compiler adds
// compile-time coalescing; CompRTS adds runtime coalescing through a bit
// hashmap flushed at strand ends; and STINT stores the access history as
// non-overlapping intervals in treaps, giving amortized-constant-overhead
// detection when programs access memory in contiguous runs.
//
//	r, _ := stint.NewRunner(stint.Options{Detector: stint.DetectorSTINT})
//	buf := r.Arena().AllocWords("data", 1024)
//	report, _ := r.Run(func(t *stint.Task) {
//	    t.Spawn(func(c *stint.Task) { c.StoreRange(buf, 0, 512) })
//	    t.StoreRange(buf, 256, 512) // overlaps the spawned write: a race
//	    t.Sync()
//	})
//	fmt.Println(report.RaceCount)
package stint

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"time"

	"stint/internal/detect"
	"stint/internal/evstream"
	"stint/internal/mem"
	"stint/internal/spord"
	"stint/internal/stage"
)

// Detector selects a race-detection engine.
type Detector = detect.Mode

// Detector configurations, mirroring the paper's evaluation matrix.
const (
	// DetectorOff runs the program with no detection (the "base" column).
	DetectorOff = detect.Off
	// DetectorReachOnly maintains only SP-Order reachability (Figure 1's
	// "reach." column).
	DetectorReachOnly = detect.ReachOnly
	// DetectorVanilla is the per-access word-granularity hashmap detector.
	DetectorVanilla = detect.Vanilla
	// DetectorCompiler adds compile-time coalescing to Vanilla.
	DetectorCompiler = detect.Compiler
	// DetectorCompRTS adds runtime coalescing, still over the hashmap.
	DetectorCompRTS = detect.CompRTS
	// DetectorSTINT is the paper's full system with the interval treap.
	DetectorSTINT = detect.STINT
	// DetectorSTINTUnbalanced is STINT with treap rotations off: the same
	// trees as plain (unbalanced) BSTs, the one ablation.
	DetectorSTINTUnbalanced = detect.STINTUnbalanced
)

// Race is one detected determinacy race.
type Race = detect.Race

// Stats carries the detector's internal counters; see detect.Stats.
type Stats = detect.Stats

// ErrHistoryCap is the sentinel a Run aborted by Options.MaxHistoryBytes
// wraps; match it with errors.Is. The concrete error is a
// *HistoryCapError carrying the tripped budget and footprint estimate.
var ErrHistoryCap = detect.ErrHistoryCap

// HistoryCapError is the structured over-cap error; see ErrHistoryCap.
type HistoryCapError = detect.HistoryCapError

// Buffer is a virtual allocation whose accesses the detector shadows.
type Buffer = mem.Buffer

// Arena hands out virtual address ranges for Buffers.
type Arena = mem.Arena

// Addr is a virtual byte address.
type Addr = mem.Addr

// Tracer observes the execution events a replay needs: the spawn/sync
// structure and every instrumented memory access. stint/trace provides the
// standard implementation; the runner invokes the Tracer inline, so
// implementations must be fast and must not retain event ordering
// assumptions beyond "serial program order".
type Tracer interface {
	// Spawn is invoked when a child task begins, Restore when it returns
	// to the parent's continuation, and Sync on strand-creating syncs
	// (no-op syncs are not reported).
	Spawn()
	Restore()
	Sync()
	// Read/Write report per-access hooks; ReadRange/WriteRange report
	// compiler-coalesced hooks.
	Read(addr Addr, size uint64)
	Write(addr Addr, size uint64)
	ReadRange(addr Addr, count int, elemBytes uint64)
	WriteRange(addr Addr, count int, elemBytes uint64)
}

// Options configures a Runner.
type Options struct {
	// Detector selects the engine; DetectorOff by default.
	Detector Detector
	// OnRace, if set, is invoked for every race found, as it is found.
	OnRace func(Race)
	// MaxRacesRecorded bounds Report.Races (default 64; counts are exact
	// regardless).
	MaxRacesRecorded int
	// TimeAccessHistory enables the access-history timers used by the
	// benchmark harness (a few clock reads per strand).
	TimeAccessHistory bool
	// ParallelDetect executes spawns on goroutines instead of serially,
	// detecting races online. Each task goroutine coalesces its current
	// strand's accesses in a strand-local coalescer — the synchronous
	// detector's own mutator side — and, when the strand ends, flushes the
	// intervals into a chunk; a merge stage reorders the arriving chunks
	// into the serial projection (a depth-first walk of the spawn structure,
	// so the order depends only on the program, never on scheduling) and
	// feeds the same worker graph Async does. Under DetectorOff it is the
	// bare goroutine executor: no pipeline is built and nothing is detected
	// (check with a detector, deploy with it Off).
	//
	// The contract is race-set equivalence with the synchronous run — the
	// same set of (location, access-pair) races — and repeated runs are
	// byte-identical to each other. The implementation delivers more: the
	// merged stream *is* the serial event stream, so Report.Races, counts,
	// and Stats come out identical to sync mode, not just equivalent.
	//
	// Requires DetectorOff or a runtime-coalescing detector (DetectorCompRTS
	// or a STINT variant); incompatible with Async and Tracer. DetectShards
	// sets the worker count (0 means one worker). OnRace may be invoked from
	// any worker while the program is still running, and the program itself
	// must be safe to execute in parallel (spawned siblings really do run
	// concurrently — a genuinely racy program gives nondeterministic *data*,
	// even though every race the serial projection exhibits is still
	// detected on that projection).
	ParallelDetect bool
	// Async pipelines detection: the program executes the serial
	// projection and coalesces each strand's accesses exactly as the
	// synchronous detector does — the hook is the same code — while
	// detector workers (one unless DetectShards asks for more) consume the
	// strands' flushed intervals from a bounded broadcast ring, overlapping
	// compute and coalescing with the access history. Each worker rebuilds
	// SP-Order from the stream's structure events and owns its share of the
	// access history. Race reports and Stats are identical to the
	// synchronous path (the stream is the serial order); wall clock
	// approaches max(compute, detect) instead of their sum. OnRace is
	// invoked from a worker goroutine while the program is still running;
	// Run does not return until the stream has fully drained.
	//
	// Requires a runtime-coalescing detector (DetectorCompRTS or a STINT
	// variant) — intervals are all the stream carries. Async is ignored
	// under DetectorOff (there is nothing to pipeline) and pipelines only the
	// reachability structure under DetectorReachOnly.
	Async bool
	// DetectShards is the worker count of the pipeline's detector side; 0
	// means 1, and the two are the same code path. Every worker scans every
	// batch, replays the structure events on a private SP-Order structure,
	// keeps the intervals — page-contained as flushed — whose 64 KiB shadow
	// page hashes to its shard, and owns that page's access history in its
	// own page directory and treap node pool. Nothing is shared between
	// workers, so reachability memory (one SP-Order structure per worker)
	// scales with n. Race reports, counts, and Stats are canonical:
	// independent of n and identical to the synchronous path. OnRace may be
	// invoked from any worker (serialized, but in no deterministic order
	// across shard counts).
	//
	// Requires Async or ParallelDetect, and with them a runtime-coalescing
	// detector; ignored for DetectorOff, and under DetectorReachOnly the n
	// workers only replay the structure stream (nothing page-partitioned to
	// shard).
	DetectShards int
	// PageQuiesceThreshold, when n > 0, retires a 64 KiB shadow page's
	// access history once that page has produced n races: its treaps
	// or shadow cells drop back onto the engine's free lists and later
	// accesses wholly within the page become cheap no-ops. The
	// decision is page-local and taken at deterministic points in the
	// serial order, so races on pages that never quiesce stay byte-
	// identical across every execution mode, and Stats.PagesQuiesced is
	// mode-independent. Races a quiesced page would have produced after its
	// threshold are not reported — the semantics of MaxRacesRecorded
	// applied per page (a common setting is the MaxRacesRecorded budget
	// itself). Zero (the default) disables quiescing entirely.
	PageQuiesceThreshold int
	// MaxHistoryBytes, when n > 0, caps the detector's retained
	// access-history footprint (history stores and their page shells, or
	// shadow pages), estimated at strand boundaries; under DetectShards the
	// budget divides evenly across the shard workers. On trip, Run aborts
	// with an error wrapping ErrHistoryCap instead of growing further — a
	// structured error, not a panic — and the Runner stays valid: its next
	// Run auto-resets, exactly like the ErrTooManyEvents recovery in
	// stint/trace. Combine with PageQuiesceThreshold to shed racy pages
	// before they eat the budget. Zero (the default) means unlimited, up to
	// the 4 GiB of nodes an engine's 32-bit refs address (the same error).
	// A stored interval is 24 bytes (it was 56: a budget tuned to that now
	// admits 56/24 as many intervals).
	MaxHistoryBytes int64
	// Tracer, if set, receives every execution event (see Tracer); use
	// stint/trace to record replayable traces. Incompatible with
	// ParallelDetect.
	Tracer Tracer
}

// Runner executes fork-join programs under one detector configuration. A
// Runner's Arena must be populated before Run; a Runner may Run multiple
// programs, and detector state (access history, reachability) is fresh for
// each Run — but not freshly allocated: the Runner builds its detector
// pipeline once, on first use, and Run auto-resets it between runs
// (allocate-once / reset-and-reuse). Reports are byte-identical to what a
// brand-new Runner with the same Options would produce; see Reset.
type Runner struct {
	opts  Options
	arena *mem.Arena
	// newEngine, when non-nil, replaces detect.New; tests use it to run
	// reference engines (e.g. the brute-force oracle) through the runner.
	newEngine func(cfg detect.Config, sp *spord.SP) detect.Engine
	// asyncBatchEvents and asyncRingDepth override the async pipeline
	// geometry when nonzero; tests use tiny values to force batch-boundary
	// and backpressure edge cases.
	asyncBatchEvents int
	asyncRingDepth   int
	// warm is the retained detector state, built lazily on first Run (so
	// test seams set after NewRunner still apply); dirty marks it as used
	// since the last Reset, making Run's auto-reset exact.
	warm  *warmState
	dirty bool
}

// warmState is everything a Runner retains across runs. Exactly one shape
// is populated, fixed by the Options mode:
//
//   - sync: sp + engine + col;
//   - Async or ParallelDetect: as — the mutator side, the broadcast ring
//     and the workers behind it (async.go);
//   - DetectorOff (either executor) / pure tracing: nothing.
//
// The OnRace closures built here capture the retained structures, so they
// remain valid for every subsequent run.
type warmState struct {
	sp     *spord.SP
	engine detect.Engine
	col    *stage.Collector
	as     *asyncState
}

// ensureWarm builds the retained detector state on first use.
func (r *Runner) ensureWarm() {
	if r.warm != nil {
		return
	}
	w := &warmState{}
	r.warm = w
	if r.opts.Detector == DetectorOff {
		return
	}
	cfg := detect.Config{
		Mode:              r.opts.Detector,
		TimeAccessHistory: r.opts.TimeAccessHistory,
		QuiesceThreshold:  r.opts.PageQuiesceThreshold,
	}
	// A pipeline runs max(DetectShards, 1) workers, one engine each; the
	// history budget divides evenly across them (validate ties DetectShards
	// to a pipelined mode, so the inline engine gets the whole cap).
	workers := max(r.opts.DetectShards, 1)
	if r.opts.MaxHistoryBytes > 0 {
		cfg.MaxHistoryBytes = max(uint64(r.opts.MaxHistoryBytes)/uint64(workers), 1)
	}
	user := r.opts.OnRace
	maxRec := r.opts.MaxRacesRecorded
	depth, bcap := r.asyncRingDepth, r.asyncBatchEvents
	if depth == 0 {
		depth = defaultAsyncRingDepth
	}
	if bcap == 0 {
		bcap = defaultAsyncBatchEvents
	}
	switch {
	case r.opts.ParallelDetect:
		w.as = newParallelState(depth, bcap)
		w.as.buildWorkers(cfg, workers, depth, maxRec, user)
	case r.opts.Async:
		if r.opts.PageQuiesceThreshold > 0 {
			// The serial producer is ahead of the workers in stream order, so
			// its coalescer may drop accesses to pages they have retired
			// (detect.NewCoalescer); this is the registry they publish into.
			cfg.Quiesced = detect.NewQuiesceSet()
		}
		w.as = newAsyncState(depth, bcap, cfg.Quiesced)
		w.as.buildWorkers(cfg, workers, depth, maxRec, user)
	default:
		w.sp = spord.New()
		w.col = stage.NewCollector(maxRec)
		cfg.OnRace = func(race Race) {
			w.col.Add(w.sp.SeqRank(race.Cur), race)
			if user != nil {
				user(race)
			}
		}
		if r.newEngine != nil {
			w.engine = r.newEngine(cfg, w.sp)
		} else {
			w.engine = detect.New(cfg, w.sp)
		}
	}
}

// Reset returns the Runner to fresh-but-warm state: every retained layer —
// reachability structures, detector engines with their page directories and
// node pools, race collectors, the event ring and batch pools — is emptied in
// place with its capacity kept, so in steady state Reset allocates nothing
// and the Runner's heap footprint stops growing once it has seen its peak
// run. Deterministic seeds re-derive, so the next Run's Report is
// byte-identical to a fresh Runner's. The Arena is untouched: buffers
// allocated before a Reset stay valid across it.
//
// Run resets automatically between runs; call Reset explicitly to pay the
// cost at a moment of your choosing (e.g. returning a Runner to a pool).
func (r *Runner) Reset() {
	w := r.warm
	r.dirty = false
	if w == nil {
		return
	}
	if w.sp != nil {
		w.sp.Reset()
	}
	if w.engine != nil {
		w.engine.Reset()
	}
	if w.col != nil {
		w.col.Reset()
	}
	if w.as != nil {
		w.as.reset()
	}
}

// NewRunner validates opts (see options.go for the rule table) and returns
// a Runner with an empty Arena.
func NewRunner(opts Options) (*Runner, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts.MaxRacesRecorded = defaultMaxRaces(opts.MaxRacesRecorded)
	return &Runner{opts: opts, arena: mem.NewArena()}, nil
}

// Arena returns the Runner's address arena.
func (r *Runner) Arena() *mem.Arena { return r.arena }

// Serial reports whether one goroutine executes the whole program, every
// Spawn running its child to completion before it returns — true unless
// Options.ParallelDetect. A body that is not safe to call from concurrent
// tasks (a trace decoder reading one stream) needs a serial Runner.
func (r *Runner) Serial() bool { return !r.opts.ParallelDetect }

// Report summarizes one Run.
type Report struct {
	// RaceCount is the total number of race reports (one stored access pair
	// per overlapping range; a racing program typically produces many).
	RaceCount uint64
	// Races holds the MaxRacesRecorded earliest reports in a canonical
	// order — sorted by the sequential position of each race's later
	// access, with field tie-breakers — so the slice is identical across
	// synchronous, Async, and every DetectShards count.
	Races []Race
	// Strands is the number of strands the execution generated.
	Strands int
	// WallTime is the end-to-end execution time including detection.
	WallTime time.Duration
	// Stats exposes the detector's internal counters.
	Stats Stats
	// SequencerBusy is the busy time of the one serial stage between the
	// mutator side and the workers: ParallelDetect's merge (reordering and
	// coalescing chunks, excluding its waits). Zero in every other mode —
	// the serial producer publishes straight to the workers. The per-worker
	// side of the utilization split is ShardLoad.
	SequencerBusy time.Duration
	// LabelViewSnapshots is always zero: no pipeline ships reachability
	// labels any more (each worker replays SP-Order itself). The field
	// stays for the benchmark's ledger, which still reads it.
	LabelViewSnapshots uint64
	// ExecutorBusy is the summed busy time of the parallel executor's task
	// goroutines under ParallelDetect (zero otherwise): program execution
	// plus strand coalescing and flushing, excluding queue handoffs and
	// joins. Divided by the core count it approximates the executor's
	// critical path.
	ExecutorBusy time.Duration
	// ReorderPeak is the most chunks the ParallelDetect merge ever held
	// waiting for the next chunk in serial order (zero otherwise) — the
	// memory price of scheduling skew between executor goroutines.
	ReorderPeak int
	// ShardLoad is each worker's load breakdown (pipelined modes only, nil
	// otherwise; one entry under plain Async): busy time (scanning, page
	// filtering, SP-Order replay, and detection;
	// Stats.PipelineDetectTime is their sum), the batches it consumed, and
	// the worker's broadcast-ring wait count. A worker with many waits was
	// starved (ahead of the stream); the low-wait outlier is the straggler
	// the ring's backpressure paces everyone else behind.
	ShardLoad []ShardLoad
}

// ShardLoad is one shard worker's load breakdown; see Report.ShardLoad.
type ShardLoad struct {
	// Busy is the worker's processing time, excluding ring waits.
	Busy time.Duration
	// BatchesScanned counts the broadcast batches the worker consumed —
	// every batch of the run, so it is equal on every worker.
	BatchesScanned uint64
	// BatchesSkipped is always zero: a worker scans every batch. The field
	// stays for the benchmark's ledger, which still reads it.
	BatchesSkipped uint64
	// RingWaits counts the worker's blocking episodes waiting on the
	// broadcast ring for the producer (or the merge stage) to publish.
	RingWaits uint64
	// EventsScanned and BlocksDecoded count the logical events and the
	// Iter.DecodeBlock calls of the worker's scans. A call returns up to
	// evstream.BlockEvents events and never crosses a batch, so
	// EventsScanned/BlocksDecoded — events per call — is BlockEvents on long
	// batches and the batch's own event count on short ones; it says how
	// full the batches were, not how well anything packed.
	EventsScanned uint64
	BlocksDecoded uint64
	// DecodeBusy estimates the time the worker spent inside DecodeBlock
	// itself (sampled at one timed call in eight, scaled), as distinct from
	// page filtering and detection. DecodeBusy/Busy is the wire format's
	// share of the worker.
	DecodeBusy time.Duration
}

// Racy reports whether any race was found.
func (rep *Report) Racy() bool { return rep.RaceCount > 0 }

// TaskFunc is the body of a task. The Task argument is valid only until the
// function returns and must not be retained or shared.
type TaskFunc func(t *Task)

// runState is the per-Run shared state.
type runState struct {
	sp     *spord.SP
	engine detect.Engine
	hooks  bool // false when memory hooks should not reach the engine
	async  *asyncState
	// parPipe is the ParallelDetect pipeline (parallel.go). It is kept
	// distinct from async on purpose: the hook dispatch routes through the
	// task-local parTask (t.par), never through a shared working batch, so
	// a non-nil async must continue to mean "serial producer".
	parPipe  *asyncState
	tracer   Tracer
	parallel bool
	// taskFree recycles Task frames for the serial spawn path. Tasks are
	// documented as invalid once their TaskFunc returns, so a completed
	// child's frame can serve the next spawn without heap traffic.
	taskFree []*Task
}

// getTask returns a reset Task, reusing a retired frame when possible.
// Serial execution only; parallel mode allocates per goroutine.
func (rs *runState) getTask() *Task {
	if n := len(rs.taskFree); n > 0 {
		t := rs.taskFree[n-1]
		rs.taskFree[n-1] = nil
		rs.taskFree = rs.taskFree[:n-1]
		*t = Task{rs: rs}
		return t
	}
	return &Task{rs: rs}
}

func (rs *runState) putTask(t *Task) { rs.taskFree = append(rs.taskFree, t) }

// Task is a function instance in the fork-join program: the receiver for
// spawning, syncing, and instrumentation hooks.
type Task struct {
	rs    *runState
	frame spord.Frame
	// tracePending mirrors frame.Pending for the tracer (and stands in for
	// it when no detector is attached): true iff a spawn happened since
	// the last strand-creating sync.
	tracePending bool
	wg           *sync.WaitGroup // parallel executors only
	par          *parTask        // ParallelDetect only: this task's chunk emitter
}

// footprint sums the retained warm capacity of every engine the Runner
// holds, plus the pipelines' mutator side — the serial producer's
// coalescer, or every one the ParallelDetect pool grew to; the reuse-soak
// suite asserts it stops growing after warm-up.
func (r *Runner) footprint() detect.Footprint {
	var f detect.Footprint
	w := r.warm
	if w == nil {
		return f
	}
	if as := w.as; as != nil {
		if as.bits != nil {
			f.BitPages += as.bits.Pages()
		}
		for _, c := range as.bitsAll {
			f.BitPages += c.Pages()
		}
		for _, sw := range as.workers {
			f.Add(detect.FootprintOf(sw.engine))
		}
	}
	if w.engine != nil {
		f.Add(detect.FootprintOf(w.engine))
	}
	return f
}

// Run executes root to completion (with an implicit final sync) and
// returns the report. The Runner's retained detector state is built on
// first use and auto-reset between runs, so repeated Runs reuse the same
// warm structures while each Run still observes fresh detector state.
func (r *Runner) Run(root TaskFunc) (*Report, error) {
	if r.dirty {
		r.Reset()
	}
	r.ensureWarm()
	r.dirty = true
	w := r.warm
	rep := &Report{}
	rs := &runState{parallel: r.opts.ParallelDetect, tracer: r.opts.Tracer}
	var syncCol *stage.Collector
	pipe := w.as // non-nil exactly in the pipelined modes
	if r.opts.Detector != DetectorOff {
		// ReachOnly isolates the reachability component: SP-Order is
		// maintained but memory hooks are skipped at the dispatch layer,
		// matching the paper's near-zero "reach." column.
		rs.hooks = r.opts.Detector != DetectorReachOnly
		switch {
		case r.opts.ParallelDetect:
			// Parallel execution with online detection: task goroutines flush
			// their strands into chunks on a multi-producer queue, the merge
			// stage reconstructs the serial projection, and the worker graph
			// consumes the result (parallel.go). Under DetectorOff parPipe
			// stays nil and the same goroutine executor runs bare.
			rs.parPipe = pipe
		case r.opts.Async:
			// Pipelined detection: SP-Order and the engines live behind the
			// event stream as a stage graph whose workers own the race
			// collectors and user OnRace calls (shards.go). rep is safe to
			// read once drain() has waited out the graph.
			rs.async = pipe
		default:
			rs.sp = w.sp
			rs.engine = w.engine
			syncCol = w.col
		}
	}
	if pipe != nil {
		pipe.launch()
	}
	t := &Task{rs: rs}
	if rs.parallel {
		t.wg = &sync.WaitGroup{}
		if rs.parPipe != nil {
			t.par = newParTask(rs.parPipe, 0) // the root owns task identity 0
		}
	}
	// runtime/metrics instead of runtime.ReadMemStats: reading these two
	// counters does not stop the world, so the probe stays invisible even on
	// sub-millisecond runs. Both sample slices are allocated up front so the
	// delta only covers the user's program.
	before := [2]metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	after := before
	metrics.Read(before[:])
	start := time.Now()
	if pipe != nil {
		pipe.exec(root, t)
	} else {
		root(t)
		t.Sync()
	}
	if rs.parPipe != nil {
		// The root's final chunk completes the serial projection; the
		// drain waits out the merge and worker graph.
		t.par.cut(evstream.ChunkRoot, 0)
		rs.parPipe.drainParallel()
	} else if rs.async != nil {
		// Flush the stream and join the worker graph: WallTime then
		// covers max(compute, detect) plus the residual drain, and Stats
		// are exact.
		rs.async.drain()
	} else if rs.engine != nil {
		rs.engine.Finish()
	}
	rep.WallTime = time.Since(start)
	metrics.Read(after[:])
	if pipe != nil {
		rep.Strands = pipe.strands
		rep.Stats = pipe.stats
		rep.RaceCount = rep.Stats.Races
		rep.Races = pipe.races
		rep.ShardLoad = pipe.shardLoad
		rep.ExecutorBusy = time.Duration(pipe.execBusy.Load())
		rep.SequencerBusy = pipe.seqBusy.Busy()
		rep.ReorderPeak = pipe.reorderPeak
	} else {
		if rs.sp != nil {
			rep.Strands = rs.sp.StrandCount()
		}
		if rs.engine != nil {
			rep.Stats = *rs.engine.Stats()
			rep.RaceCount = rep.Stats.Races
		}
		if syncCol != nil {
			rep.Races = syncCol.Sorted()
		}
	}
	rep.Stats.AllocObjects = after[0].Value.Uint64() - before[0].Value.Uint64()
	rep.Stats.AllocBytes = after[1].Value.Uint64() - before[1].Value.Uint64()
	if err := r.capError(); err != nil {
		// A tripped MaxHistoryBytes is a structured abort, not a panic:
		// the engine froze at the cap and whatever it found before the
		// trip is discarded with the report. The Runner stays dirty, so
		// the next Run auto-resets — the same recovery contract as
		// trace.ErrTooManyEvents.
		return nil, err
	}
	return rep, nil
}

// capError collects the first history-cap error recorded by any of the
// Runner's engines (worker order, so the answer is deterministic for a
// deterministic workload split).
func (r *Runner) capError() error {
	w := r.warm
	if w == nil {
		return nil
	}
	if w.engine != nil {
		return detect.CapErrorOf(w.engine)
	}
	if w.as != nil {
		for _, sw := range w.as.workers {
			if err := detect.CapErrorOf(sw.engine); err != nil {
				return err
			}
		}
	}
	return nil
}

// Spawn runs f as a subtask that is logically parallel with the caller's
// continuation. Under serial detection f executes immediately (depth-first,
// matching the sequential order race detection requires); with
// Options.ParallelDetect it runs on its own goroutine. Every task ends with an
// implicit Sync.
func (t *Task) Spawn(f TaskFunc) {
	rs := t.rs
	if rs.parallel {
		if p := t.par; p != nil {
			// ParallelDetect: end the caller's strand here — its chunk's
			// terminator is the spawn, naming the child task so the merge
			// walks the child's subtree before the caller's continuation.
			// The child goroutine emits its own chunks under a fresh task
			// identity and seals them with a task-end terminator after its
			// implicit final sync.
			t.tracePending = true
			childID := p.as.nextTask.Add(1)
			p.cut(evstream.ChunkSpawn, childID)
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				child := &Task{rs: rs, wg: &sync.WaitGroup{}, par: newParTask(p.as, childID)}
				f(child)
				child.Sync()
				child.par.cut(evstream.ChunkTask, 0)
			}()
			return
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			child := &Task{rs: rs, wg: &sync.WaitGroup{}}
			f(child)
			child.Sync()
		}()
		return
	}
	if rs.tracer != nil {
		rs.tracer.Spawn()
	}
	t.tracePending = true
	if as := rs.async; as != nil {
		// Pipelined: the structure events travel the stream; SP-Order is
		// maintained by the consumer. Execution stays depth-first serial.
		as.emitCtl(evstream.OpSpawn)
		child := rs.getTask()
		f(child)
		child.Sync()
		rs.putTask(child)
		as.emitCtl(evstream.OpRestore)
		if rs.tracer != nil {
			rs.tracer.Restore()
		}
		return
	}
	if rs.sp == nil { // DetectorOff, serial
		child := rs.getTask()
		f(child)
		child.Sync()
		rs.putTask(child)
		if rs.tracer != nil {
			rs.tracer.Restore()
		}
		return
	}
	rs.engine.StrandEnd()
	_, cont := rs.sp.Spawn(&t.frame)
	child := rs.getTask()
	f(child)
	child.Sync()
	rs.putTask(child)
	rs.engine.StrandEnd() // the child's final strand ends here
	rs.sp.Restore(cont)
	if rs.tracer != nil {
		rs.tracer.Restore()
	}
}

// Sync joins every subtask spawned by this task since its last Sync. A
// Sync with no outstanding spawns is a no-op and does not end the strand.
func (t *Task) Sync() {
	rs := t.rs
	if rs.parallel {
		if p := t.par; p != nil && t.tracePending {
			// Strand-creating sync (no-op syncs are elided, exactly as on
			// the serial paths): the current chunk ends at the sync.
			p.cut(evstream.ChunkSync, 0)
			t.tracePending = false
		}
		if p := t.par; p != nil {
			// The join is idle time, not execution.
			p.pause()
			t.wg.Wait()
			p.resume()
			return
		}
		t.wg.Wait()
		return
	}
	if rs.tracer != nil && t.tracePending {
		rs.tracer.Sync()
	}
	if as := rs.async; as != nil {
		// Only strand-creating syncs travel the stream; tracePending
		// mirrors frame.Pending for exactly this purpose.
		if t.tracePending {
			as.emitCtl(evstream.OpSync)
		}
		t.tracePending = false
		return
	}
	t.tracePending = false
	if rs.sp == nil {
		return
	}
	if t.frame.Pending() {
		rs.engine.StrandEnd()
		rs.sp.Sync(&t.frame)
	}
}

// Load reports a read of element i of b (per-access instrumentation, like
// the paper's __load_hook).
func (t *Task) Load(b *Buffer, i int) {
	rs := t.rs
	if !rs.hooks && rs.tracer == nil {
		return
	}
	addr, size := b.Addr(i), uint64(b.ElemBytes())
	if rs.hooks {
		if as := rs.async; as != nil {
			as.bits.ReadHook(addr, size)
		} else if e := rs.engine; e != nil {
			e.ReadHook(addr, size)
		} else {
			t.par.coalescer().ReadHook(addr, size)
		}
	}
	if rs.tracer != nil {
		rs.tracer.Read(addr, size)
	}
}

// Store reports a write of element i of b.
func (t *Task) Store(b *Buffer, i int) {
	rs := t.rs
	if !rs.hooks && rs.tracer == nil {
		return
	}
	addr, size := b.Addr(i), uint64(b.ElemBytes())
	if rs.hooks {
		if as := rs.async; as != nil {
			as.bits.WriteHook(addr, size)
		} else if e := rs.engine; e != nil {
			e.WriteHook(addr, size)
		} else {
			t.par.coalescer().WriteHook(addr, size)
		}
	}
	if rs.tracer != nil {
		rs.tracer.Write(addr, size)
	}
}

// LoadRange reports a compiler-coalesced read of elements [i, i+n) of b
// (the paper's __coalesced_load_hook): use it exactly where a compiler
// could prove the enclosing loop reads a contiguous range.
func (t *Task) LoadRange(b *Buffer, i, n int) {
	rs := t.rs
	if (!rs.hooks && rs.tracer == nil) || n == 0 {
		return
	}
	addr, size := b.Range(i, n)
	if rs.hooks {
		if as := rs.async; as != nil {
			as.bits.ReadHook(addr, size)
		} else if e := rs.engine; e != nil {
			e.ReadRangeHook(addr, n, uint64(b.ElemBytes()))
		} else {
			t.par.coalescer().ReadHook(addr, size)
		}
	}
	if rs.tracer != nil {
		rs.tracer.ReadRange(addr, n, uint64(b.ElemBytes()))
	}
}

// StoreRange reports a compiler-coalesced write of elements [i, i+n) of b.
func (t *Task) StoreRange(b *Buffer, i, n int) {
	rs := t.rs
	if (!rs.hooks && rs.tracer == nil) || n == 0 {
		return
	}
	addr, size := b.Range(i, n)
	if rs.hooks {
		if as := rs.async; as != nil {
			as.bits.WriteHook(addr, size)
		} else if e := rs.engine; e != nil {
			e.WriteRangeHook(addr, n, uint64(b.ElemBytes()))
		} else {
			t.par.coalescer().WriteHook(addr, size)
		}
	}
	if rs.tracer != nil {
		rs.tracer.WriteRange(addr, n, uint64(b.ElemBytes()))
	}
}

// checkAccess rejects per-access sizes beyond the event encodings' shared
// 56-bit field, in every mode, so a program a trace can carry is a program
// every mode accepts. Like checkRange, it guards only the raw-address hooks
// — arena-backed accesses are bounded by their Buffer. It and checkWrap
// inline into them: a trace replay pays both per event.
func checkAccess(size uint64) {
	if size > evstream.MaxAccessSize {
		panic(fmt.Sprintf("stint: access size %d outside [0, 2^56)", size))
	}
}

// checkWrap rejects a span whose shadow words wrap the address space: the
// bit hashmap would set bits on bogus low pages, or none at all.
func checkWrap(addr Addr, size uint64) {
	if mem.SpanWraps(addr, size) {
		panicWraps(addr, size)
	}
}

// panicWraps stays out of line so that checkWrap fits the inlining budget.
//
//go:noinline
func panicWraps(addr Addr, size uint64) {
	panic(fmt.Sprintf("stint: range [%#x, %#x+%d) wraps the address space", addr, addr, size))
}

// LoadAt and StoreAt report raw-address accesses for callers managing their
// own layout on top of the Arena. Sizes of 2^56+ bytes, and spans wrapping
// the address space, panic.
func (t *Task) LoadAt(addr Addr, size uint64) {
	rs := t.rs
	checkAccess(size)
	checkWrap(addr, size)
	if rs.hooks {
		if as := rs.async; as != nil {
			as.bits.ReadHook(addr, size)
		} else if e := rs.engine; e != nil {
			e.ReadHook(addr, size)
		} else {
			t.par.coalescer().ReadHook(addr, size)
		}
	}
	if rs.tracer != nil {
		rs.tracer.Read(addr, size)
	}
}

// StoreAt reports a raw-address write; see LoadAt (including its size
// guard).
func (t *Task) StoreAt(addr Addr, size uint64) {
	rs := t.rs
	checkAccess(size)
	checkWrap(addr, size)
	if rs.hooks {
		if as := rs.async; as != nil {
			as.bits.WriteHook(addr, size)
		} else if e := rs.engine; e != nil {
			e.WriteHook(addr, size)
		} else {
			t.par.coalescer().WriteHook(addr, size)
		}
	}
	if rs.tracer != nil {
		rs.tracer.Write(addr, size)
	}
}

// checkRange rejects range-hook operands the event encodings cannot
// represent: a count or element size outside their fields (which would
// silently truncate into a different, smaller range) or a span wrapping the
// address space (checkWrap). The
// arena-backed LoadRange/StoreRange can never trip it — Buffer.Range bounds
// the span — so the guard lives only on the raw-address hooks, where the
// caller manages its own layout.
func checkRange(addr Addr, count int, elemBytes uint64) {
	if count < 0 || uint64(count) > evstream.MaxRangeCount {
		panic(fmt.Sprintf("stint: range count %d outside [0, 2^32)", count))
	}
	if elemBytes > evstream.MaxRangeElem {
		panic(fmt.Sprintf("stint: range element size %d outside [0, 2^24)", elemBytes))
	}
	checkWrap(addr, uint64(count)*elemBytes)
}

// LoadRangeAt reports a compiler-coalesced read of count elements of
// elemBytes each starting at a raw address, for callers managing their own
// layout on top of the Arena (the raw-address sibling of LoadRange).
// Operands the detector cannot represent — a negative or 2^32+ count, an
// element size of 2^24+ bytes, or a span wrapping the address space —
// panic.
func (t *Task) LoadRangeAt(addr Addr, count int, elemBytes uint64) {
	rs := t.rs
	if count == 0 {
		return
	}
	checkRange(addr, count, elemBytes)
	if rs.hooks {
		if as := rs.async; as != nil {
			as.bits.ReadHook(addr, uint64(count)*elemBytes)
		} else if e := rs.engine; e != nil {
			e.ReadRangeHook(addr, count, elemBytes)
		} else {
			t.par.coalescer().ReadHook(addr, uint64(count)*elemBytes)
		}
	}
	if rs.tracer != nil {
		rs.tracer.ReadRange(addr, count, elemBytes)
	}
}

// StoreRangeAt reports a compiler-coalesced write at a raw address; see
// LoadRangeAt (including its operand guards).
func (t *Task) StoreRangeAt(addr Addr, count int, elemBytes uint64) {
	rs := t.rs
	if count == 0 {
		return
	}
	checkRange(addr, count, elemBytes)
	if rs.hooks {
		if as := rs.async; as != nil {
			as.bits.WriteHook(addr, uint64(count)*elemBytes)
		} else if e := rs.engine; e != nil {
			e.WriteRangeHook(addr, count, elemBytes)
		} else {
			t.par.coalescer().WriteHook(addr, uint64(count)*elemBytes)
		}
	}
	if rs.tracer != nil {
		rs.tracer.WriteRange(addr, count, elemBytes)
	}
}

// Detecting reports whether instrumentation is live — a detector is
// consuming hooks or a Tracer is recording them — letting hot loops skip
// address computation entirely when it is not.
func (t *Task) Detecting() bool { return t.rs.hooks || t.rs.tracer != nil }

// DescribeRace renders a race with addresses resolved to buffer names and
// element ranges via the arena that allocated them, e.g.
//
//	race: write by strand 3 and write by strand 5 on mmul.C[128:160]
//
// Addresses outside any buffer fall back to the numeric form.
func DescribeRace(a *Arena, rc Race) string {
	buf, first := a.Resolve(rc.Addr)
	if buf == nil {
		return rc.String()
	}
	// The overlap range is half-open; resolve its last byte to keep the
	// element range within one buffer.
	lastBuf, last := a.Resolve(rc.Addr + rc.Size - 1)
	kind := func(w bool) string {
		if w {
			return "write"
		}
		return "read"
	}
	loc := fmt.Sprintf("%s[%d]", buf.Name(), first)
	if lastBuf == buf && last != first {
		loc = fmt.Sprintf("%s[%d:%d]", buf.Name(), first, last+1)
	}
	return fmt.Sprintf("race: %s by strand %d and %s by strand %d on %s",
		kind(rc.PrevWrite), rc.Prev, kind(rc.CurWrite), rc.Cur, loc)
}

// DescribeRace renders a race against this Runner's arena; see the
// package-level DescribeRace.
func (r *Runner) DescribeRace(rc Race) string { return DescribeRace(r.arena, rc) }

// ParseDetector converts a detector name ("vanilla", "comp+rts", "stint",
// ...) to a Detector, for CLI tools.
func ParseDetector(s string) (Detector, error) {
	m, err := detect.ParseMode(s)
	if err != nil {
		return DetectorOff, fmt.Errorf("stint: %w", err)
	}
	return m, nil
}
