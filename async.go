// Asynchronous pipelined detection (Options.Async): the mutator executes
// the serial projection and publishes its instrumentation events into
// batches over a bounded SPSC ring (internal/evstream), while the detector
// side — one replay stage, or the label-stage-plus-workers graph of
// shards.go — consumes the batches in order.
//
// Sequential semantics are preserved because the stream *is* the serial
// order: the producer emits spawn/restore/sync and access events in the
// depth-first execution order, and each consumer stage replays them one at
// a time against its own reachability structure — the same reconstruction
// stint/trace uses for offline replay, minus the byte encoding. The only
// concurrency is the ring handoffs between stages; every stage remains a
// sequential algorithm, and the pipeline reports byte-identical races and
// stats.
//
// In sharded mode the producer stamps each batch's Summary as it appends —
// the structure-event offsets and the shard-occupancy mask of every access
// event (a mask OR per access on the mutator's hot path), exactly as
// ParallelDetect's executors do (parallel.go). The label stage walks the
// offsets to advance the label builder without decoding an access, and the
// mask lets workers skip whole batches they own no pages of (shards.go).
//
// All detector-side goroutines hang off one stage.Graph: Run wires the
// stages, drain closes the stream and waits for the graph's merge, and the
// results fields below are written before the graph reports done. A stage
// failure (a user OnRace panic, a guard tripping) fires the graph's abort
// hook, which closes the rings: blocked stages unwind, the producer's
// publishes start reporting false (flush then drops events on the floor —
// the run is already doomed), and graph.Wait re-raises the failure on the
// producer so it propagates out of Run exactly as in synchronous mode.

package stint

import (
	"sync/atomic"
	"time"

	"stint/internal/coalesce"
	"stint/internal/detect"
	"stint/internal/evstream"
	"stint/internal/spord"
	"stint/internal/stage"
)

// Default pipeline geometry: batches amortize the per-batch ring
// synchronization over ~4k events, and the rings bound the pipeline at 8
// in-flight batches per hop before backpressure blocks the upstream stage.
const (
	defaultAsyncBatchEvents = 4096
	defaultAsyncRingDepth   = 8
)

// asyncState is the per-Run pipeline: the producer's working batch and
// ring on the mutator side, the stage graph on the detector side, and the
// consumer results, written by the graph's stages before Seal's merge
// completes and read only after drain returns.
type asyncState struct {
	ring      *evstream.Ring
	batch     *evstream.Batch
	ringDepth int // immutable copy of the ring depth, sizing downstream rings
	graph     *stage.Graph
	// shards is the worker count the summary masks target (PickShard's n);
	// nonzero means the appending side stamps each batch's Summary. Plain
	// async leaves it zero and stamps nothing: no stage reads the Summary.
	shards int
	// Parallel-detect mode (parallel.go) replaces the producer ring with a
	// multi-producer chunk queue and shared batch pool; ring and batch are
	// nil. nextTask hands out task identities to spawned children (the
	// root is 0), execBusy accumulates the executor goroutines' busy
	// nanoseconds, mergeCtl counts the structure events the merge
	// synthesized from chunk terminators, and reorderPeak records the
	// merge's reorder-buffer high-water mark.
	queue       *evstream.TaskQueue
	pool        *evstream.BatchPool
	nextTask    atomic.Uint64
	execBusy    atomic.Int64
	mergeCtl    uint64
	reorderPeak int
	// viewSnaps counts the label stage's depa.View snapshots (sharded mode;
	// written by the label stage, read after graph.Wait).
	viewSnaps uint64
	// Written by the detector-side stages, read after graph.Wait().
	strands int
	stats   Stats
	races   []Race
	// Pipeline utilization split: seqBusy is the label stage's busy time
	// and shardLoad the per-worker load breakdown (sharded mode only).
	seqBusy   stage.Meter
	shardLoad []ShardLoad
	// quiesce, when non-nil (PageQuiesceThreshold in a serial-projection
	// pipeline), is the quiesced-page registry the detector engines publish
	// into. The producer consults it to drop single-page accesses to dead
	// pages before they ever hit the ring; qlive caches whether the
	// registry has any entries, refreshed once per batch in flush() so the
	// per-access fast path stays two loads. The drop is sound because the
	// producer is strictly ahead of the detector in stream order: any page
	// it observes quiesced reached its threshold at an earlier stream
	// position, so the engine would ignore the event anyway. (Parallel-
	// detect executors have no such ordering and never set this field.)
	quiesce *detect.QuiesceSet
	qlive   bool
}

func newAsyncState(ringDepth, batchEvents int) *asyncState {
	ring := evstream.NewCompactRing(ringDepth, batchEvents)
	return &asyncState{
		ring:      ring,
		batch:     ring.Get(),
		ringDepth: ringDepth,
		graph:     stage.NewGraph(),
	}
}

// reset re-arms the pipeline state for another run: the rings, queue, and
// batch pool retain their warm capacity, every per-run result field zeroes,
// and the producer's working batch — nilled by drain — is re-armed from the
// ring's free list. The stage graph is per-run (its done channel cannot be
// reused) and is recreated by Run before launch.
func (as *asyncState) reset() {
	if as.ring != nil {
		as.ring.Reset()
		as.batch = as.ring.Get()
	}
	if as.queue != nil {
		as.queue.Reset()
	}
	if as.pool != nil {
		as.pool.Reset()
	}
	as.graph = nil
	as.nextTask.Store(0)
	as.execBusy.Store(0)
	as.mergeCtl = 0
	as.reorderPeak = 0
	as.viewSnaps = 0
	as.strands = 0
	as.stats = Stats{}
	as.races = nil
	as.seqBusy.Reset()
	as.shardLoad = nil
	as.qlive = false
}

// emitCtl appends one structure event to the working batch, publishing it
// when full, and — in sharded mode — records the event's offset in the
// batch summary so the label stage and skip-scanning workers can replay the
// structure stream without touching the access events.
func (as *asyncState) emitCtl(op evstream.Op) {
	if as.batch.Full() {
		as.flush()
	}
	off := as.batch.AppendCtl(op)
	if as.shards > 0 {
		as.batch.Sum.AddCtl(off)
	}
}

// emitAccess appends one per-access event, publishing the batch when full,
// and in sharded mode ORs the access's page mask into the batch summary.
// This is the producer's entire per-access hot path: an encode, two
// predictable branches, and one ring handoff per batch. Accesses wholly
// inside a quiesced page are dropped here — the cheapest possible no-op,
// saving the encode, the stream bytes, and the consumer's scan (see the
// quiesce field for why this is sound).
func (as *asyncState) emitAccess(op evstream.Op, addr, size uint64) {
	if as.qlive && deadEmit(as.quiesce, addr, size) {
		return
	}
	if as.batch.Full() {
		as.flush()
	}
	if as.shards > 0 {
		as.batch.Sum.Mask |= evstream.SpanMask(addr, size, coalesce.PageBytesBits, as.shards)
	}
	as.batch.AppendAccess(op, addr, size)
}

// emitRange is emitAccess for compiler-coalesced range events. The span
// for the mask is count*elem bytes; the hook layer's field validation
// (count < 2^32, elem < 2^24) keeps the product inside 56 bits.
func (as *asyncState) emitRange(op evstream.Op, addr uint64, count int, elem uint64) {
	if as.qlive && deadEmit(as.quiesce, addr, uint64(count)*elem) {
		return
	}
	if as.batch.Full() {
		as.flush()
	}
	if as.shards > 0 {
		as.batch.Sum.Mask |= evstream.SpanMask(addr, uint64(count)*elem, coalesce.PageBytesBits, as.shards)
	}
	as.batch.AppendRange(op, addr, count, elem)
}

// deadEmit reports whether a span lies wholly within one registry-quiesced
// page. Mirrors the engines' deadSpan rule: multi-page spans always stream
// (their dead pieces drop page-locally at the engine).
func deadEmit(q *detect.QuiesceSet, addr, size uint64) bool {
	if size == 0 {
		return false
	}
	first := addr >> coalesce.PageBytesBits
	if (addr+size-1)>>coalesce.PageBytesBits != first {
		return false
	}
	return q.Contains(first)
}

// flush publishes the working batch and takes a fresh one from the ring's
// free list. Kept out of the emit paths so they stay under the inlining
// budget. A false Publish means the graph aborted and closed the ring
// underneath us: the working batch is reset and reused, events are dropped
// (the failure, re-raised by drain, is the run's result), and the producer
// keeps running to its natural unwind point.
func (as *asyncState) flush() {
	if as.quiesce != nil {
		// Refresh the quiesce fast-path flag once per batch, off the
		// per-access path. A page quiesced mid-batch starts dropping at
		// the next batch boundary; the engine drops it until then.
		as.qlive = as.quiesce.Len() > 0
	}
	if !as.ring.Publish(as.batch) {
		as.batch.Reset()
		return
	}
	as.batch = as.ring.Get()
}

// drain flushes the final (possibly partial, possibly empty) batch,
// signals end-of-stream, and waits for the stage graph to finish — re-
// panicking the first stage failure, if any, on the producer goroutine.
// After drain returns normally, strands, stats, and races are exact, and
// the ring's stream totals are folded into them.
func (as *asyncState) drain() {
	as.ring.Publish(as.batch) // a false return means the graph aborted; Wait surfaces why
	as.batch = nil
	as.ring.Close()
	as.graph.Wait()
	rs := as.ring.Stats()
	as.stats.EventsStreamed = rs.EventsPublished
	as.stats.StreamBytes = rs.StreamBytes
}

// consumeState is the plain-Async detector side, retained across runs on a
// reused Runner: the consumer's SP-Order structure, engine, canonical race
// collector, and replay stack all keep their warm capacity between runs.
type consumeState struct {
	sp     *spord.SP
	engine detect.Engine
	col    *stage.Collector
	stack  []consumeFrame
}

// buildConsume constructs the retained consume-stage state; the OnRace
// closure captures the retained structures, so it survives reuse unchanged.
// newEngine is the Runner's test seam (nil outside tests); maxRec and user
// mirror the Options fields.
func buildConsume(cfg detect.Config, newEngine func(detect.Config, *spord.SP) detect.Engine, maxRec int, user func(Race)) *consumeState {
	cs := &consumeState{
		sp:  spord.New(),
		col: stage.NewCollector(maxRec),
	}
	cfg.OnRace = func(race Race) {
		cs.col.Add(cs.sp.SeqRank(race.Cur), race)
		if user != nil {
			user(race)
		}
	}
	if newEngine != nil {
		cs.engine = newEngine(cfg, cs.sp)
	} else {
		cs.engine = detect.New(cfg, cs.sp)
	}
	cs.stack = make([]consumeFrame, 1, 16) // stack[0] is the root instance
	return cs
}

// reset re-arms the consume stage for another run: SP-Order re-derives its
// root, the engine drops its history (retaining warm capacity), the
// collector empties, and the replay stack rewinds to the root frame.
func (cs *consumeState) reset() {
	cs.sp.Reset()
	cs.engine.Reset()
	cs.col.Reset()
	cs.stack = cs.stack[:1]
	cs.stack[0] = consumeFrame{}
}

// launchConsume wires the single-stage pipeline: one replay stage consuming
// the main ring. Used for plain Async (no sharding). The abort hook closes
// the ring so a panic in the stage (a user OnRace callback) unblocks the
// producer instead of deadlocking the run.
func (as *asyncState) launchConsume(cs *consumeState) {
	as.graph.OnAbort(as.ring.Close)
	as.graph.Go(func() { as.consume(cs) })
	as.graph.Seal(nil)
}

// consumeFrame tracks one in-flight function instance on the consumer's
// replay stack, mirroring trace.replayFrame.
type consumeFrame struct {
	frame spord.Frame
	cont  *spord.Strand
}

// consume is the replay stage: it rebuilds SP-Order from the structure
// events and feeds the access events to the engine, in stream order,
// exactly as the inline path interleaves them. The stage owns the canonical
// race collector because the sequential ranks live on its SP structure.
func (as *asyncState) consume(cs *consumeState) {
	sp, engine, col := cs.sp, cs.engine, cs.col
	stack := cs.stack
	var busy stage.Meter
	var blk [evstream.BlockEvents]evstream.Event
	for {
		batch, ok := as.ring.Next()
		if !ok {
			break
		}
		t0 := time.Now()
		it := batch.Iter()
		for {
			evs := it.DecodeBlock(&blk)
			if len(evs) == 0 {
				break
			}
			for _, ev := range evs {
				switch ev.EvOp() {
				case evstream.OpSpawn:
					engine.StrandEnd()
					_, cont := sp.Spawn(&stack[len(stack)-1].frame)
					stack = append(stack, consumeFrame{cont: cont})
				case evstream.OpRestore:
					cont := stack[len(stack)-1].cont
					stack = stack[:len(stack)-1]
					engine.StrandEnd() // the child's final strand ends here
					sp.Restore(cont)
				case evstream.OpSync:
					engine.StrandEnd()
					sp.Sync(&stack[len(stack)-1].frame)
				case evstream.OpRead:
					engine.ReadHook(ev.Addr(), ev.Size())
				case evstream.OpWrite:
					engine.WriteHook(ev.Addr(), ev.Size())
				case evstream.OpReadRange:
					engine.ReadRangeHook(ev.Addr(), ev.Count(), ev.Elem())
				case evstream.OpWriteRange:
					engine.WriteRangeHook(ev.Addr(), ev.Count(), ev.Elem())
				}
			}
		}
		busy.Add(t0)
		as.ring.Recycle(batch)
	}
	t0 := time.Now()
	engine.Finish()
	busy.Add(t0)
	cs.stack = stack // hand the (possibly grown) stack back for reuse
	as.strands = sp.StrandCount()
	as.stats = *engine.Stats()
	as.stats.PipelineDetectTime = busy.Busy()
	as.races = col.Sorted()
}
