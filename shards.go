// The detector side of every pipeline (Options.Async, DetectShards,
// ParallelDetect): N workers, each fed every batch over its own buffered
// channel and owning the access history of the shadow pages that hash to
// it. drain merges their results once the graph has joined.
//
// Topology:
//
//	Async / DetectShards:  mutator+coalescer ───────────────────────────▶ batch to every worker ─▶ N workers
//	ParallelDetect:        task goroutines ─chunk channel─▶ reorder+coalesce ─▶ (same writer, same channels, same workers)
//
// N = max(DetectShards, 1): plain Async is the one-worker case. The stream
// is the serial projection, written by one writer (async.go) that the
// serial producer and the ParallelDetect merge (parallel.go) share: per
// strand, its flushed intervals — page-contained by construction — then
// the structure event.
//
// Every worker scans every batch and replays every structure event
// (spawn/restore/sync) on a private SP-bags structure (internal/spord,
// near-constant per query) through a replayer — the one the inline detector
// runs. Strand IDs and the bags are a deterministic function of the
// structure stream, so all the workers' structures — and the synchronous
// run's — agree on every ID, every answer about a stored strand and every
// sequential rank; nothing about reachability is shipped. The structure stream is tiny next to the interval
// stream (fft: 5 111 strands against 298 140 intervals), so replaying it N
// times costs less than any hop that would share it; the price is that
// reachability memory is per worker.
//
// A worker keeps an interval iff its 64 KiB shadow page hashes to its shard
// index — the interval then goes straight to that page's stores. There is
// one way through a batch, and the stream is all a worker is told.
//
// Workers never share mutable detector state: each owns its reachability
// structure and the page directory and treap pools for its page subset. The
// only cross-goroutine data are the channels and the batches themselves,
// which are read-only between the broadcast and their last Release (the
// refcounted recycle hands them back to the batch pool).
//
// Correctness argument (see DESIGN.md "Why sharding is exact"): the access
// history is independent per page, every streamed interval is page-
// contained, and each worker sees its pages' intervals in the serial strand
// order the producer flushed them in — the order the inline detector
// applies them — and answers reachability from a structure identical to
// the inline one. So each page's store evolves byte-identically to the
// synchronous run, and the union of the workers' race reports equals the
// synchronous report as a multiset. The canonical collector then makes
// Report.Races identical, not just equivalent.

package stint

import (
	"sync"
	"time"

	"stint/internal/coalesce"
	"stint/internal/detect"
	"stint/internal/evstream"
	"stint/internal/spord"
	"stint/internal/stage"
)

// replayer is the one structure replay: a private SP-bags structure, its
// replay stack (one frame per in-flight function instance, stack[0] the
// root), the engine whose strands the structure events end, and the
// canonical collector of its races. Every shard worker owns one, fed from
// its channel; the sync Runner owns one fed straight from Task.Spawn/Sync
// (runState.ctl) — the inline detector is a worker without a channel.
type replayer struct {
	sp     *spord.SP
	stack  []replayFrame
	engine strandEngine
	col    *stage.Collector
}

// replayFrame is a function instance's SP-bags frame and, if it was
// spawned, the parent's continuation to restore when it returns.
type replayFrame struct {
	frame spord.Frame
	cont  *spord.Strand
}

// strandEngine is what a replayer drives: a worker's detect.History or the
// sync Runner's detect.Engine.
type strandEngine interface {
	StrandEnd()
	Finish()
	Stats() *Stats
	Reset()
	CapError() error
	Footprint() detect.Footprint
}

// newReplayer builds a replayer and, over its SP-bags structure, the engine
// build makes, whose races go to the collector — ranked by their later
// strand's serial position — and then to user. The engine (and its OnRace
// closure over the replayer) is retained across runs.
func newReplayer[E strandEngine](cfg detect.Config, maxRec int, user func(Race), build func(detect.Config, detect.Reach) E) *replayer {
	rp := &replayer{sp: spord.New(), stack: make([]replayFrame, 1, 16), col: stage.NewCollector(maxRec)}
	cfg.OnRace = func(race Race) {
		rp.col.Add(rp.sp.SeqRank(race.Cur), race)
		if user != nil {
			user(race)
		}
	}
	rp.engine = build(cfg, rp.sp)
	return rp
}

// reset re-arms the replayer for another run, keeping every warm pool.
func (rp *replayer) reset() {
	rp.sp.Reset()
	rp.stack = append(rp.stack[:0], replayFrame{})
	rp.engine.Reset()
	rp.col.Reset()
}

// ctl replays one structure event: the finishing strand's boundary is
// sampled while it is still current, then SP-bags advances.
func (rp *replayer) ctl(op evstream.Op) {
	rp.engine.StrandEnd()
	top := len(rp.stack) - 1
	switch op {
	case evstream.OpSpawn:
		_, cont := rp.sp.Spawn(&rp.stack[top].frame)
		rp.stack = append(rp.stack, replayFrame{cont: cont})
	case evstream.OpRestore: // the child's final strand ended here
		rp.sp.Restore(rp.stack[top].cont)
		rp.stack = rp.stack[:top]
	case evstream.OpSync:
		rp.sp.Sync(&rp.stack[top].frame)
	}
}

// shardWorker consumes the broadcast stream for one shard: its replayer
// takes the structure events, its engine (a detect.History) its pages'
// intervals, in stream order — what the inline detector's flush applies.
// in is its channel, built once and ringDepth deep (the in-flight slack
// async.go's default geometry explains): a nil batch ends the stream.
type shardWorker struct {
	id, n int
	in    chan *evstream.Batch
	*replayer

	// Decode-side telemetry for Report.ShardLoad: batches consumed, the
	// receives that had to wait, logical events and DecodeBlock calls
	// (their ratio is events per call — short batches show up as a low
	// one), and the time spent inside DecodeBlock itself, sampled (every
	// 8th call, scaled by 8) so the measurement does not tax the scan it is
	// measuring.
	batches       uint64
	waits         uint64
	eventsScanned uint64
	blocksDecoded uint64
	decodeBusy    time.Duration

	// Results, read by the merge after the stage graph joins.
	stats Stats
	busy  stage.Meter
}

// reset re-arms the worker for another run: the replayer rewinds and every
// per-run counter zeroes.
func (w *shardWorker) reset() {
	w.replayer.reset()
	w.batches, w.waits, w.eventsScanned, w.blocksDecoded = 0, 0, 0, 0
	w.decodeBusy = 0
	w.stats = Stats{}
	w.busy.Reset()
}

// run scans the worker's batches until the stream's nil batch, or until
// the graph fails with its channel empty, releasing each into pool.
func (w *shardWorker) run(g *stage.Graph, pool *evstream.BatchPool) {
	engine := w.engine.(detect.History)
	var blk [evstream.BlockEvents]evstream.Event
	for {
		batch, _, waited := stage.Recv(g, w.in)
		if waited {
			w.waits++
		}
		if batch == nil {
			break
		}
		t0 := time.Now()
		w.batches++
		it := batch.Iter()
		for {
			var evs []evstream.Event
			if w.blocksDecoded&7 == 0 {
				d0 := time.Now()
				evs = it.DecodeBlock(&blk)
				w.decodeBusy += time.Since(d0) * 8
			} else {
				evs = it.DecodeBlock(&blk)
			}
			if len(evs) == 0 {
				break
			}
			w.blocksDecoded++
			w.eventsScanned += uint64(len(evs))
			for _, ev := range evs {
				switch op := ev.EvOp(); op {
				case evstream.OpRead:
					if w.owns(ev) {
						engine.ReadInterval(ev.Addr(), ev.Size())
					}
				case evstream.OpWrite:
					if w.owns(ev) {
						engine.WriteInterval(ev.Addr(), ev.Size())
					}
				case evstream.OpSpawn, evstream.OpRestore, evstream.OpSync:
					w.ctl(op)
				}
			}
		}
		w.busy.Add(t0)
		batch.Release(pool)
	}
	t0 := time.Now()
	// Finish samples the root's final strand boundary and aggregates the
	// per-page store statistics.
	engine.Finish()
	w.busy.Add(t0)
	w.stats = *engine.Stats()
}

// owns reports whether an interval event's page hashes to this worker.
func (w *shardWorker) owns(ev evstream.Event) bool {
	return evstream.PickShard(ev.Addr()>>coalesce.PageBytesBits, w.n) == w.id
}

// buildWorkers constructs the retained detector side every pipeline shares
// — n workers with their channels and engines — without launching anything;
// launch wires them onto each run's fresh stage graph. User OnRace calls are
// serialized with a mutex — across workers their order is nondeterministic
// (documented), but the recorded Report is canonical regardless.
func (as *asyncState) buildWorkers(cfg detect.Config, n, ringDepth, maxRec int, user func(Race)) {
	as.col = stage.NewCollector(maxRec)
	if inner := user; inner != nil {
		var raceMu sync.Mutex
		user = func(race Race) {
			raceMu.Lock()
			// Unlock via defer: a panicking user callback must release the
			// mutex on its way out or the other workers deadlock on it
			// instead of unwinding through the abort.
			defer raceMu.Unlock()
			inner(race)
		}
	}
	as.workers = make([]*shardWorker, n)
	for i := range as.workers {
		as.workers[i] = &shardWorker{id: i, n: n, in: make(chan *evstream.Batch, ringDepth),
			replayer: newReplayer(cfg, maxRec, user, detect.NewHistory)}
	}
}

// launch wires one run's stage graph: the workers over their channels and,
// under ParallelDetect, the merge stage feeding them. First failure
// anywhere (a user OnRace panic in a worker, a guard in the merge stage, a
// panic in the program body) closes the graph's failure channel: every
// peer waiting in a stage.Send or stage.Recv unwinds, the writer's
// broadcasts start failing, and drain's graph.Wait re-raises the failure on
// the producer.
func (as *asyncState) launch() {
	g := stage.NewGraph()
	as.graph = g
	for _, w := range as.workers {
		g.Go(func() { w.run(g, as.pool) })
	}
	if as.chunks != nil {
		g.Go(as.mergeParallel)
	}
}

// broadcast sends b to every worker in order, one reference each. It reports
// false only when no worker got b (the graph failed), and the caller keeps
// it; once any worker holds b, its last Release returns it to the pool, so
// the caller takes a fresh batch.
func (as *asyncState) broadcast(b *evstream.Batch) bool {
	b.Share(len(as.workers))
	for i, w := range as.workers {
		if !stage.Send(as.graph, w.in, b) {
			if i == 0 {
				return false
			}
			for range as.workers[i:] { // the graph failed: drop the rest's references
				b.Release(as.pool)
			}
			return true
		}
	}
	return true
}

// endStream sends every worker the nil batch that ends its stream.
func (as *asyncState) endStream() {
	for _, w := range as.workers {
		stage.Send(as.graph, w.in, nil)
	}
}

// mergeSharded folds the joined workers' results into canonical totals:
// counters partition exactly across shards (pages are disjoint and
// intervals page-contained); the hook counters are not theirs to report
// (the mutator side counts them, drain folds them in); the strand count is
// any worker's — they all replayed the same structure stream. It also
// assembles the per-worker load breakdown (busy, batches, channel waits)
// behind Report.ShardLoad.
func (as *asyncState) mergeSharded() {
	as.col.Reset()
	as.shardLoad = make([]ShardLoad, len(as.workers))
	var detectBusy time.Duration
	for i, w := range as.workers {
		as.stats.Accumulate(&w.stats)
		as.col.Merge(w.col)
		as.shardLoad[i] = ShardLoad{
			Busy:           w.busy.Busy(),
			BatchesScanned: w.batches,
			RingWaits:      w.waits,
			EventsScanned:  w.eventsScanned,
			BlocksDecoded:  w.blocksDecoded,
			DecodeBusy:     w.decodeBusy,
		}
		detectBusy += w.busy.Busy()
	}
	as.stats.PipelineDetectTime = detectBusy
	as.strands = as.workers[0].sp.StrandCount()
	as.races = as.col.Sorted()
}
