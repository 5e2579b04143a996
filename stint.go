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
	"sync"
	"time"

	"stint/internal/coalesce"
	"stint/internal/detect"
	"stint/internal/evstream"
	"stint/internal/mem"
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
	// newEngine builds the synchronous engine: detect.New, or in tests a
	// reference engine (e.g. the brute-force oracle) run through the runner.
	newEngine func(cfg detect.Config, reach detect.Reach) detect.Engine
	// asyncBatchEvents and asyncRingDepth override the async pipeline
	// geometry when nonzero; tests use tiny values to force batch-boundary
	// and backpressure edge cases.
	asyncBatchEvents int
	asyncRingDepth   int
	// warm is the retained detector state, built lazily on first Run (so
	// test seams set after NewRunner still apply); dirty marks it as used
	// since the last Reset, making Run's auto-reset exact.
	warm  *runState
	dirty bool
}

// runState is everything a Runner retains across runs, and what every Task
// of a run points at. Exactly one detector shape is populated, fixed by the
// Options mode:
//
//   - sync (ReachOnly included): rp — the structure replay a pipeline
//     worker runs, with detect.New's engine and no ring in front of it;
//   - Async or ParallelDetect: as — the mutator side, the broadcast ring
//     and the workers behind it (async.go);
//   - DetectorOff (either executor) / pure tracing: nothing.
//
// A serial run's ctl ends strands into whichever of the two is set. bits and
// engine are its hook arms, set only when hooks is: the one Coalescer every
// Task hooks into (the Async producer's, or the inline engine's own), or the
// per-access Engine (Vanilla, Compiler, the newEngine seam). hooks is false
// under DetectorOff and ReachOnly (the paper's near-zero "reach." column
// isolates reachability), so a nil arm is the hook path's whole check.
type runState struct {
	rp     *replayer
	as     *asyncState
	bits   *detect.Coalescer
	engine detect.Engine
	hooks  bool
	tracer Tracer
	// parallel selects ParallelDetect's goroutine executor. graph is the
	// current run's stage graph — the pipeline's, or under the bare executor
	// one with no stages — which a panicking task fails and Run re-raises.
	parallel bool
	graph    *stage.Graph
	strands  bool // a RunStrands run: no spawn structure
	// taskFree recycles Task frames for the serial spawn path. Tasks are
	// documented as invalid once their TaskFunc returns, so a completed
	// child's frame can serve the next spawn without heap traffic.
	taskFree []*Task
}

// ensureWarm builds the retained detector state on first use.
func (r *Runner) ensureWarm() {
	if r.warm != nil {
		return
	}
	w := &runState{
		hooks:    r.opts.Detector != DetectorOff && r.opts.Detector != DetectorReachOnly,
		tracer:   r.opts.Tracer,
		parallel: r.opts.ParallelDetect,
	}
	r.warm = w
	if r.opts.Detector == DetectorOff {
		return
	}
	// A pipeline runs max(DetectShards, 1) workers, one engine each (validate
	// ties DetectShards to a pipelined mode, so the inline engine is alone).
	workers := max(r.opts.DetectShards, 1)
	cfg := r.detectConfig(workers)
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
	case r.opts.Async:
		w.as = newAsyncState(depth, bcap)
		if w.hooks {
			w.bits = w.as.bits
		}
	default:
		w.rp = newReplayer(cfg, maxRec, user, r.newEngine)
		if w.bits = detect.CoalescerOf(w.rp.engine); w.bits == nil && w.hooks {
			w.engine = w.rp.engine.(detect.Engine)
		}
		return
	}
	w.as.buildWorkers(cfg, workers, depth, maxRec, user)
}

// detectConfig is the engine configuration the Options describe, for one of
// workers engines: the history budget divides evenly across them.
func (r *Runner) detectConfig(workers int) detect.Config {
	cfg := detect.Config{Mode: r.opts.Detector, TimeAccessHistory: r.opts.TimeAccessHistory, QuiesceThreshold: r.opts.PageQuiesceThreshold}
	if r.opts.MaxHistoryBytes > 0 {
		cfg.MaxHistoryBytes = max(uint64(r.opts.MaxHistoryBytes)/uint64(workers), 1)
	}
	return cfg
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
	if w.rp != nil {
		w.rp.reset()
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
	return &Runner{opts: opts, arena: mem.NewArena(), newEngine: detect.New}, nil
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

// getTask returns a reset Task, reusing a retired frame when possible.
// Serial execution only; parallel mode allocates per goroutine.
func (rs *runState) getTask() *Task {
	if n := len(rs.taskFree); n > 0 {
		t := rs.taskFree[n-1]
		rs.taskFree[n-1] = nil
		rs.taskFree = rs.taskFree[:n-1]
		*t = Task{rs: rs, bits: rs.bits}
		return t
	}
	return &Task{rs: rs, bits: rs.bits}
}

func (rs *runState) putTask(t *Task) { rs.taskFree = append(rs.taskFree, t) }

// Task is a function instance in the fork-join program: the receiver for
// spawning, syncing, and instrumentation hooks.
type Task struct {
	rs *runState
	// pending is true iff a spawn happened since the last strand-creating
	// sync; a Sync without it is a no-op that ends no strand.
	pending bool
	// bits is the current strand's Coalescer: the serial run's one, or under
	// ParallelDetect one borrowed for the strand (coalescer, cut).
	bits *detect.Coalescer
	wg   *sync.WaitGroup // parallel executors only
	// ParallelDetect's chunk emitter (parallel.go): task identity, working
	// batch (nil without a pipeline), chunk index, busy-lap start.
	id    uint64
	idx   uint32
	batch *evstream.Batch
	t0    time.Time
}

// footprint sums the retained warm capacity of every engine the Runner
// holds, plus the pipelines' mutator side — the serial producer's
// coalescer, or every one the ParallelDetect pool grew to;
// TestReuseFootprintStopsGrowing asserts it stops growing after warm-up.
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
	if w.rp != nil {
		f.Add(detect.FootprintOf(w.rp.engine))
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
	rs := r.warm
	rep := &Report{}
	pipe := rs.as // non-nil exactly in the pipelined modes
	if pipe != nil {
		// The workers own the race collectors and user OnRace calls
		// (shards.go); rep is safe to read once the drain has waited out
		// the graph.
		pipe.launch()
		rs.graph = pipe.graph
	} else if rs.parallel {
		rs.graph = stage.NewGraph()
		rs.graph.Seal(nil)
	}
	t := &Task{rs: rs, bits: rs.bits}
	if rs.parallel {
		t.wg = &sync.WaitGroup{}
		if pipe != nil {
			t.startChunks(0) // the root owns task identity 0
		}
	}
	var allocs allocProbe
	allocs.start()
	start := time.Now()
	rs.exec(root, t)
	switch {
	case rs.parallel && pipe != nil:
		// The root's final chunk completes the serial projection; the
		// drain waits out the merge and worker graph.
		t.cut(evstream.ChunkRoot, 0)
		pipe.drainParallel()
	case rs.parallel:
		rs.graph.Wait() // re-raises a spawned task's panic
	case pipe != nil:
		// Flush the stream and join the worker graph: WallTime then
		// covers max(compute, detect) plus the residual drain, and Stats
		// are exact.
		pipe.drain()
	case rs.rp != nil:
		rs.rp.engine.Finish()
	}
	rep.WallTime = time.Since(start)
	allocs.stop()
	if pipe != nil {
		rep.Strands = pipe.strands
		rep.Stats = pipe.stats
		rep.Races = pipe.races
		rep.ShardLoad = pipe.shardLoad
		rep.ExecutorBusy = time.Duration(pipe.execBusy.Load())
		rep.SequencerBusy = pipe.seqBusy.Busy()
		rep.ReorderPeak = pipe.reorderPeak
	} else if rp := rs.rp; rp != nil {
		rep.Strands = rp.sp.StrandCount()
		rep.Stats = *rp.engine.Stats()
		rep.Races = rp.col.Sorted()
	}
	allocs.finish(rep)
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
	if rp := r.warm.rp; rp != nil {
		return detect.CapErrorOf(rp.engine)
	}
	if as := r.warm.as; as != nil {
		for _, sw := range as.workers {
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
	t.pending = true
	if rs.parallel {
		t.fork(f)
		return
	}
	rs.ctl(evstream.OpSpawn)
	child := rs.getTask()
	f(child)
	child.Sync()
	rs.putTask(child)
	rs.ctl(evstream.OpRestore) // the child's final strand ends here
}

// Sync joins every subtask spawned by this task since its last Sync. A
// Sync with no outstanding spawns is a no-op and does not end the strand.
func (t *Task) Sync() {
	if t.rs.parallel {
		t.join()
		return
	}
	if t.pending {
		t.pending = false
		t.rs.ctl(evstream.OpSync)
	}
}

// ctl is every serial mode's one structure transition: the Tracer records
// it, then the strand it ends goes into the Async producer's stream or
// through the inline replayer — a pipeline worker's replay, with no ring. A
// strand run has neither, and no structure to transition.
func (rs *runState) ctl(op evstream.Op) {
	if tr := rs.tracer; tr != nil {
		switch op {
		case evstream.OpSpawn:
			tr.Spawn()
		case evstream.OpRestore:
			tr.Restore()
		case evstream.OpSync:
			tr.Sync()
		}
	}
	if rs.as != nil {
		rs.as.emitCtl(op)
	} else if rs.rp != nil {
		rs.rp.ctl(op)
	} else if rs.strands {
		panic("stint: Spawn inside RunStrands; a strand's order and reachability come from its Reach")
	}
}

// Load reports a read of element i of b (per-access instrumentation, like
// the paper's __load_hook).
func (t *Task) Load(b *Buffer, i int) {
	if t.Detecting() {
		t.access(b.Addr(i), uint64(b.ElemBytes()), false)
	}
}

// Store reports a write of element i of b.
func (t *Task) Store(b *Buffer, i int) {
	if t.Detecting() {
		t.access(b.Addr(i), uint64(b.ElemBytes()), true)
	}
}

// LoadRange reports a compiler-coalesced read of elements [i, i+n) of b
// (the paper's __coalesced_load_hook): use it exactly where a compiler
// could prove the enclosing loop reads a contiguous range.
func (t *Task) LoadRange(b *Buffer, i, n int) {
	if n != 0 && t.Detecting() {
		t.bufferRange(b, i, n, false)
	}
}

// StoreRange reports a compiler-coalesced write of elements [i, i+n) of b.
func (t *Task) StoreRange(b *Buffer, i, n int) {
	if n != 0 && t.Detecting() {
		t.bufferRange(b, i, n, true)
	}
}

// bufferRange is the live half of LoadRange/StoreRange, out of line so they inline.
func (t *Task) bufferRange(b *Buffer, i, n int, write bool) {
	addr, _ := b.Range(i, n)
	t.accessRange(addr, n, uint64(b.ElemBytes()), write)
}

// LoadAt and StoreAt report raw-address accesses for callers managing their
// own layout on top of the Arena. Sizes of 2^56+ bytes, and spans wrapping
// the address space, panic.
func (t *Task) LoadAt(addr Addr, size uint64) { t.access(addr, size, false) }

// StoreAt reports a raw-address write; see LoadAt (including its size
// guard).
func (t *Task) StoreAt(addr Addr, size uint64) { t.access(addr, size, true) }

// LoadRangeAt reports a compiler-coalesced read of count elements of
// elemBytes each starting at a raw address, for callers managing their own
// layout on top of the Arena (the raw-address sibling of LoadRange).
// Operands the detector cannot represent — a negative or 2^32+ count, an
// element size of 2^24+ bytes, or a span wrapping the address space —
// panic.
func (t *Task) LoadRangeAt(addr Addr, count int, elemBytes uint64) {
	t.accessRange(addr, count, elemBytes, false)
}

// StoreRangeAt reports a compiler-coalesced write at a raw address; see
// LoadRangeAt (including its operand guards).
func (t *Task) StoreRangeAt(addr Addr, count int, elemBytes uint64) {
	t.accessRange(addr, count, elemBytes, true)
}

// access is the one dispatch behind Load, Store, LoadAt and StoreAt, and
// accessRange the one behind the four range hooks: check the operands, then
// hand the access to the strand's Coalescer (which takes a range as one
// span) or else the per-access Engine, then to the Tracer. The raw-address
// hooks are a bare call into it, so they inline.
//
// Its slot arm is the hot path: a span inside one bitmap slot, on a strand
// holding its Coalescer with no Tracer and a non-nil Coalescer.Bits, is one
// BitSet.SetSlot call, ahead of the operand checks it cannot fail. It sits
// here, not in Load/Store, so trace replay (LoadAt/StoreAt) saves as much.
func (t *Task) access(addr Addr, size uint64, write bool) {
	rs := t.rs
	if c := t.bits; c != nil && rs.tracer == nil && coalesce.InSlot(addr, size) {
		if b := c.Bits(write); b != nil {
			b.SetSlot(addr, size)
			return
		}
	}
	checkAccess(size)
	checkWrap(addr, size)
	switch c, e := t.coalescer(), rs.engine; {
	case c != nil && write:
		c.WriteHook(addr, size)
	case c != nil:
		c.ReadHook(addr, size)
	case e != nil && write:
		e.WriteHook(addr, size)
	case e != nil:
		e.ReadHook(addr, size)
	}
	if tr := rs.tracer; tr != nil && write {
		tr.Write(addr, size)
	} else if tr != nil {
		tr.Read(addr, size)
	}
}

func (t *Task) accessRange(addr Addr, count int, elemBytes uint64, write bool) {
	if count == 0 {
		return
	}
	checkRange(addr, count, elemBytes)
	rs, size := t.rs, uint64(count)*elemBytes
	switch c, e := t.coalescer(), rs.engine; {
	case c != nil && write:
		c.WriteHook(addr, size)
	case c != nil:
		c.ReadHook(addr, size)
	case e != nil && write:
		e.WriteRangeHook(addr, count, elemBytes)
	case e != nil:
		e.ReadRangeHook(addr, count, elemBytes)
	}
	if tr := rs.tracer; tr != nil && write {
		tr.WriteRange(addr, count, elemBytes)
	} else if tr != nil {
		tr.ReadRange(addr, count, elemBytes)
	}
}

// checkAccess rejects per-access sizes beyond the event encodings' shared
// 56-bit field, in every mode, so a program a trace can carry is a program
// every mode accepts. Like checkRange, it is there for the raw-address hooks
// — an arena-backed access, bounded by its Buffer, passes it in two
// compares. It and checkWrap inline into the dispatch.
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

// checkRange rejects range-hook operands the event encodings cannot
// represent: a count or element size outside their fields (which would
// silently truncate into a different, smaller range) or a span wrapping the
// address space (checkWrap). The arena-backed LoadRange/StoreRange can
// never trip it — Buffer.Range bounds the span; it is for the raw-address
// hooks, where the caller manages its own layout.
func checkRange(addr Addr, count int, elemBytes uint64) {
	if count < 0 || uint64(count) > evstream.MaxRangeCount {
		panic(fmt.Sprintf("stint: range count %d outside [0, 2^32)", count))
	}
	if elemBytes > evstream.MaxRangeElem {
		panic(fmt.Sprintf("stint: range element size %d outside [0, 2^24)", elemBytes))
	}
	checkWrap(addr, uint64(count)*elemBytes)
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
