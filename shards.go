// Sharded multi-worker detection (Options.DetectShards): the Async
// pipeline's detector side split across N workers by shadow page, as an
// explicit stage graph.
//
// Topology:
//
//	mutator+coalescer ──main ring──▶ label stage ──broadcast ring──▶ N workers ──▶ merge
//
// The stream is the serial producer's (async.go): per strand, its flushed
// intervals — page-contained by construction — then the structure event.
//
// The label stage advances an internal/depa label Builder over the
// structure events (spawn/restore/sync) in exactly the order the inline
// detector maintains SP-Order, attaches an immutable label snapshot, and
// republishes the batch onto a single-producer/multi-consumer broadcast
// ring (evstream.BcastRing). It never splits, copies, routes, or even
// decodes interval events: the structure events are exactly the offsets the
// producer stamped into the batch's Summary.Ctl. Label snapshots are
// demand-driven — re-taken only when a batch created strands — instead of
// per-batch.
//
// Shard filtering happens on the workers: every worker scans the same
// labeled batch, replays the structure events through its own depa.Tracker
// (strand IDs are a deterministic function of the structure stream, so all
// trackers agree with the Builder), and keeps an interval iff its 64 KiB
// shadow page hashes to its shard index — the interval then goes straight
// to that page's stores.
//
// The batch Summary, stamped by the producer as it appends (async.go),
// gives workers a fast path: a worker whose mask bit is clear skips the
// interval events entirely — the clear bit proves no interval in the batch
// lies on one of its pages (see evstream.Summary) — and replays only the
// structure events through Summary.Ctl, so its tracker state and
// strand-boundary samples stay byte-identical to a full scan.
//
// Workers never share mutable detector state: each owns the page directory
// and treap pools for its page subset, and answers Parallel/LeftOf from the
// immutable label snapshot carried inside each batch. The only
// cross-goroutine data are the rings, the read-only labels (published
// before the events that reference them), and the batches themselves, which
// are read-only between Publish and the broadcast ring's last Release (the
// refcounted recycle hands them back to the main ring's free list).
//
// Correctness argument (see DESIGN.md "Why sharding is exact"): the access
// history is independent per page, every streamed interval is page-
// contained, and each worker sees its pages' intervals in the serial strand
// order the producer flushed them in — the order the inline detector
// applies them. So each page's store evolves byte-identically to the
// synchronous run, and the union of the workers' race reports equals the
// synchronous report as a multiset. The canonical collector then makes
// Report.Races identical, not just equivalent.

package stint

import (
	"sync"
	"time"

	"stint/internal/coalesce"
	"stint/internal/depa"
	"stint/internal/detect"
	"stint/internal/evstream"
	"stint/internal/stage"
)

// labeledBatch is one broadcast message: the producer's event batch,
// untouched (events and summary), plus the label snapshot covering every
// strand its events reference.
type labeledBatch struct {
	batch  *evstream.Batch
	labels depa.View
}

// labelStage runs on the sequencer goroutine: it drains the main event
// ring, applies the structure events to the label Builder, and broadcasts
// each batch with a label snapshot covering every strand any event in the
// batch references. Snapshots are demand-driven rather than per-batch: the
// stage re-snapshots only after a batch whose structure events actually
// created strands, and attaches the previous snapshot to every other batch
// — exact because labels are immutable and append-only, so any view whose
// strand count has caught up answers Parallel/LeftOf/SeqRank identically
// to a fresh one (DESIGN.md "Why per-refill label views are exact").
//
// The structure events are exactly the offsets the producer stamped into
// the batch's Summary.Ctl; the interval events are never touched.
//
// A false broadcast Publish means the graph aborted and closed the rings;
// the stage recycles the batch it still owns and exits cleanly — the
// failure that caused the abort is the one worth reporting, not a
// secondary panic here.
func (as *asyncState) labelStage(labels *depa.Builder, bcast *evstream.BcastRing[labeledBatch]) {
	view := labels.View() // covers the root strand until the first spawn
	as.viewSnaps++
	for {
		batch, ok := as.ring.Next()
		if !ok {
			break
		}
		t0 := time.Now()
		for i := range batch.Sum.Ctl {
			applyCtl(labels, batch.CtlOp(i))
		}
		if labels.StrandCount() > view.StrandCount() {
			view = labels.View()
			as.viewSnaps++
		}
		m := labeledBatch{batch: batch, labels: view}
		as.seqBusy.Add(t0) // busy excludes the blocking publish below
		if !bcast.Publish(m) {
			as.ring.Recycle(batch)
			break
		}
	}
	bcast.Close()
}

// applyCtl advances the label builder for one structure event.
func applyCtl(labels *depa.Builder, op evstream.Op) {
	switch op {
	case evstream.OpSpawn:
		labels.Spawn()
	case evstream.OpRestore:
		labels.Restore()
	case evstream.OpSync:
		labels.Sync()
	}
}

// shardWorker consumes the broadcast stream for one shard. It implements
// detect.Reach over the label snapshots, standing in for *spord.SP: the
// current strand comes from its private Tracker, reachability from the
// batch's immutable View.
type shardWorker struct {
	id, n int
	bcast *evstream.BcastRing[labeledBatch]
	view  depa.View
	track *depa.Tracker
	// engine is built once (its OnRace closure captures the worker, whose
	// identity is stable) and retained across runs; reset re-arms it.
	engine detect.History

	// Decode-side telemetry for Report.ShardLoad: logical events and blocks
	// this worker full-scanned (their ratio is the events-per-block figure —
	// degenerate blocking shows up as a low one), and the time spent inside
	// DecodeBlock itself, sampled (every 8th call, scaled by 8) so the
	// measurement does not tax the scan it is measuring.
	eventsScanned uint64
	blocksDecoded uint64
	decodeBusy    time.Duration

	// Results, read by the merge after the stage graph joins.
	stats Stats
	busy  stage.Meter
	col   *stage.Collector
}

// CurrentID, Parallel, and LeftOf satisfy detect.Reach.
func (w *shardWorker) CurrentID() int32 { return w.track.Current() }

func (w *shardWorker) Parallel(a, b int32) bool { return w.view.Parallel(a, b) }

func (w *shardWorker) LeftOf(a, b int32) bool { return w.view.LeftOf(a, b) }

// reset re-arms the worker for another run: the tracker rewinds to the
// root strand, the engine drops its access history (retaining its warm
// pages and pools), and every per-run counter zeroes.
func (w *shardWorker) reset() {
	w.track.Reset()
	w.engine.Reset()
	w.view = depa.View{}
	w.eventsScanned, w.blocksDecoded = 0, 0
	w.decodeBusy = 0
	w.stats = Stats{}
	w.busy.Reset()
	w.col.Reset()
}

func (w *shardWorker) run() {
	engine := w.engine
	var blk [evstream.BlockEvents]evstream.Event
	for {
		m, ok := w.bcast.Next(w.id)
		if !ok {
			break
		}
		t0 := time.Now()
		w.view = m.labels
		if m.batch.Sum.SkippableBy(w.id) {
			// Fast path: the batch's mask proves no interval in it lies on
			// this shard's pages. Jump through the structure-event offsets
			// so the tracker and the strand-boundary samples advance
			// exactly as a full scan would, and never touch the intervals —
			// in a compact batch CtlOp reads one tag byte per offset, no
			// varint decoding at all.
			for i := range m.batch.Sum.Ctl {
				switch m.batch.CtlOp(i) {
				case evstream.OpSpawn:
					engine.StrandEnd()
					w.track.Spawn()
				case evstream.OpRestore:
					engine.StrandEnd() // the child's final strand ends here
					w.track.Restore()
				case evstream.OpSync:
					engine.StrandEnd()
					w.track.Sync()
				}
			}
			w.busy.AddBatch(t0, true)
			w.bcast.Release(w.id)
			continue
		}
		it := m.batch.Iter()
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
				switch ev.EvOp() {
				case evstream.OpSpawn:
					// A strand boundary: sample the footprint, then advance
					// the tracker.
					engine.StrandEnd()
					w.track.Spawn()
				case evstream.OpRestore:
					engine.StrandEnd() // the child's final strand ends here
					w.track.Restore()
				case evstream.OpSync:
					engine.StrandEnd()
					w.track.Sync()
				case evstream.OpRead:
					if w.owns(ev) {
						engine.ReadInterval(ev.Addr(), ev.Size())
					}
				case evstream.OpWrite:
					if w.owns(ev) {
						engine.WriteInterval(ev.Addr(), ev.Size())
					}
				}
			}
		}
		w.busy.AddBatch(t0, false)
		w.bcast.Release(w.id)
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

// buildDetectors constructs the retained detector-side state both sharded
// pipelines share — label Builder, broadcast ring, and N workers with their
// engines — without launching anything. The Runner keeps the returned
// structures warm across runs; launchSharded or launchParallel wires them
// onto each run's fresh stage graph. recycle takes back a batch no worker
// references any more — the main ring's free list for the serial producer,
// the shared pool under ParallelDetect — and must be safe from any
// goroutine: whichever worker releases last calls it. Setting as.shards
// switches the appending side's summary stamping on (see emitCtl/emitInterval).
func (as *asyncState) buildDetectors(cfg detect.Config, shards, maxRec int, user func(Race), recycle func(*evstream.Batch)) (*depa.Builder, []*shardWorker, *evstream.BcastRing[labeledBatch]) {
	as.shards = shards
	bcast := evstream.NewBcastRing(as.ringDepth, shards, func(m labeledBatch) { recycle(m.batch) })
	return depa.NewBuilder(), as.buildWorkers(cfg, shards, maxRec, user, bcast), bcast
}

// launchSharded wires the sharded stage graph for one run: label stage, the
// N prebuilt workers over the broadcast ring, and the merge finalizer. User
// OnRace calls are serialized with a mutex (see buildWorkers) — across
// workers their order is nondeterministic (documented), but the recorded
// Report is canonical regardless.
func (as *asyncState) launchSharded(labels *depa.Builder, workers []*shardWorker, bcast *evstream.BcastRing[labeledBatch], maxRec int) {
	// First failure anywhere (a user OnRace panic in a worker, a guard in
	// the label stage): close both rings so every peer blocked in a
	// Publish/Next unwinds, the producer's flushes turn into no-ops, and
	// drain's graph.Wait re-raises the failure on the producer.
	as.graph.OnAbort(func() {
		as.ring.Close()
		bcast.Close()
	})
	for _, w := range workers {
		as.graph.Go(w.run)
	}
	as.graph.Go(func() { as.labelStage(labels, bcast) })
	as.graph.Seal(func() { as.mergeSharded(labels, workers, bcast, maxRec) })
}

// buildWorkers constructs the N shard workers with their engines, for the
// merge finalizer and for retention across runs. Shared by the Async
// sharded pipeline and the ParallelDetect pipeline — the workers are
// identical; only the stage feeding the broadcast ring differs (label
// stage vs merge stage).
func (as *asyncState) buildWorkers(cfg detect.Config, shards, maxRec int, user func(Race), bcast *evstream.BcastRing[labeledBatch]) []*shardWorker {
	var raceMu sync.Mutex
	workers := make([]*shardWorker, shards)
	for i := range workers {
		w := &shardWorker{
			id:    i,
			n:     shards,
			bcast: bcast,
			track: depa.NewTracker(),
			col:   stage.NewCollector(maxRec),
		}
		wcfg := cfg
		wcfg.OnRace = func(race Race) {
			w.col.Add(w.view.SeqRank(race.Cur), race)
			if user != nil {
				raceMu.Lock()
				// Unlock via defer: a panicking user callback must release
				// the mutex on its way out or the other workers deadlock on
				// it instead of unwinding through the abort.
				defer raceMu.Unlock()
				user(race)
			}
		}
		w.engine = detect.NewHistory(wcfg, w)
		workers[i] = w
	}
	return workers
}

// mergeSharded folds the workers' results into canonical totals: counters
// partition exactly across shards (pages are disjoint and intervals page-
// contained); the hook counters are not theirs to report (the mutator side
// counts them, drain folds them in). It also assembles the per-worker load
// breakdown (busy, scanned/skipped batches, broadcast-ring waits) behind
// Report.ShardLoad.
func (as *asyncState) mergeSharded(labels *depa.Builder, workers []*shardWorker, bcast *evstream.BcastRing[labeledBatch], maxRec int) {
	col := stage.NewCollector(maxRec)
	as.shardLoad = make([]ShardLoad, len(workers))
	var detectBusy time.Duration
	for i, w := range workers {
		as.stats.Accumulate(&w.stats)
		as.stats.BatchesSkipped += w.busy.Skipped()
		col.Merge(w.col)
		as.shardLoad[i] = ShardLoad{
			Busy:           w.busy.Busy(),
			BatchesScanned: w.busy.Scanned(),
			BatchesSkipped: w.busy.Skipped(),
			RingWaits:      bcast.ConsumerWaits(i),
			EventsScanned:  w.eventsScanned,
			BlocksDecoded:  w.blocksDecoded,
			DecodeBusy:     w.decodeBusy,
		}
		detectBusy += w.busy.Busy()
	}
	as.stats.PipelineDetectTime = detectBusy
	as.strands = labels.StrandCount()
	as.races = col.Sorted()
}
