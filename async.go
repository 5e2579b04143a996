// Asynchronous pipelined detection (Options.Async): the mutator executes
// the serial projection, coalesces each strand's accesses in its own bit
// hashmaps (the paper's §3.2, internal/coalesce), and at every strand
// boundary publishes the strand's intervals, followed by the structure
// event, into batches over a bounded SPSC ring (internal/evstream). The
// detector side — one replay stage, or the label-stage-plus-workers graph
// of shards.go — consumes the batches in order and is a pure history
// engine: an interval goes to its page's stores as it is decoded.
//
// The stream carries intervals, not accesses: a hook that sets a bit
// locally is cheaper than one that encodes and publishes the access, and a
// strand flushes 2–4 orders of magnitude fewer intervals than it made
// accesses (Fig 6). An interval travels as a plain OpRead/OpWrite event —
// it is an access with a larger size.
//
// Sequential semantics are preserved because the stream *is* the serial
// order (DESIGN.md "Why the reports stay byte-identical"): Flush yields the
// intervals the inline engine's StrandEnd would, the producer emits them
// reads first, then writes, then the event that ended the strand, and each
// consumer stage replays the stream one event at a time against its own
// reachability structure. The only concurrency is the ring handoffs between
// stages; every stage remains a sequential algorithm.
//
// In sharded mode the producer stamps each batch's Summary as it appends —
// the structure-event offsets and the shard bit of every interval's page
// (one OR per interval), exactly as ParallelDetect's executors do
// (parallel.go). The label stage walks the offsets to advance the label
// builder without decoding an interval, and the mask lets workers skip
// whole batches they own no pages of (shards.go).
//
// All detector-side goroutines hang off one stage.Graph: Run wires the
// stages, drain closes the stream and waits for the graph's merge, and the
// results fields below are written before the graph reports done. A stage
// failure (a user OnRace panic, a guard tripping) fires the graph's abort
// hook, which closes the rings: blocked stages unwind, the producer's
// publishes start reporting false (publish then drops events on the floor —
// the run is already doomed), and graph.Wait re-raises the failure on the
// producer so it propagates out of Run exactly as in synchronous mode.

package stint

import (
	"sync"
	"sync/atomic"
	"time"

	"stint/internal/coalesce"
	"stint/internal/detect"
	"stint/internal/evstream"
	"stint/internal/spord"
	"stint/internal/stage"
)

// Default pipeline geometry. A batch is 1 KiB of wire (256 four-byte
// slots): a few hundred intervals, which is tens of strands. An interval
// stream is hundreds of times sparser than the accesses behind it, so a
// batch sized to amortize ring synchronization over thousands of events
// would hold a short run's whole stream until drain and start detection
// only when execution ends; at this size a handoff still costs well under
// a percent of the work the batch carries, and under ParallelDetect every
// live task's working batch is 1 KiB instead of 16. The rings keep the
// in-flight capacity the larger batches gave (64 × 1 KiB per hop) — the
// slack that lets a detector-bound run (fft) ride out the phases where the
// producer is the slower side — before backpressure blocks the upstream
// stage. Batch boundaries are a function of the stream alone, so
// Stats.StreamBytes repeats exactly.
const (
	defaultAsyncBatchEvents = 256
	defaultAsyncRingDepth   = 64
)

// strandBits is the mutator side's runtime coalescer: the read and write
// bit hashmaps (§3.2) of one executing strand. Flushing a strand leaves
// both empty with their pages on their freelists, so one pair serves
// strand after strand.
type strandBits struct {
	rd, wr *coalesce.BitSet
}

func newStrandBits() *strandBits {
	return &strandBits{rd: coalesce.New(), wr: coalesce.New()}
}

// reset discards whatever an aborted run left set, keeping the pages.
func (sb *strandBits) reset() {
	sb.rd.Reset()
	sb.wr.Reset()
}

func (sb *strandBits) pages() int { return sb.rd.Pages() + sb.wr.Pages() }

// countRead and countWrite count one hook call into h, the mutator side's
// share of the run's Stats: the four hook counters are counted where the
// hooks run — the detector side never sees a hook — and Accumulated into
// the run's Stats once the stage graph has joined.
func countRead(h *Stats, addr, size uint64) {
	h.ReadHookCalls++
	h.ReadAccesses += coalesce.Words(addr, size)
}

func countWrite(h *Stats, addr, size uint64) {
	h.WriteHookCalls++
	h.WriteAccesses += coalesce.Words(addr, size)
}

// asyncState is the per-Run pipeline: the producer's coalescer, working
// batch and ring on the mutator side, the stage graph on the detector side,
// and the consumer results, written by the graph's stages before Seal's
// merge completes and read only after drain returns.
type asyncState struct {
	ring      *evstream.Ring
	batch     *evstream.Batch
	ringDepth int // immutable copy of the ring depth, sizing downstream rings
	graph     *stage.Graph
	// bits coalesces the serial producer's current strand; hooks counts its
	// hook calls. Under ParallelDetect bits is nil: every parTask borrows a
	// pair from the pool below for the length of a strand and counts its
	// own hooks, and hooks is their sum (guarded by bitsMu until the graph
	// has joined).
	bits  *strandBits
	hooks Stats
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
	// merge's reorder-buffer high-water mark. bitsAll is every strandBits
	// pair the run's strands ever needed at once — the pool's high-water
	// mark — and bitsFree the ones not lent out.
	queue       *evstream.TaskQueue
	pool        *evstream.BatchPool
	nextTask    atomic.Uint64
	execBusy    atomic.Int64
	mergeCtl    uint64
	reorderPeak int
	bitsMu      sync.Mutex
	bitsAll     []*strandBits
	bitsFree    []*strandBits
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
	// pages at the hook, before they set a bit; qlive caches whether the
	// registry has any entries, refreshed at every strand boundary. The
	// drop is sound because the producer is ahead of the detector in stream
	// order: a page it observes quiesced reached its threshold before
	// anything the current strand will flush, so the engine would drop this
	// strand's intervals on that page anyway. (Parallel-detect executors
	// have no such ordering and never set this field.)
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
		bits:      newStrandBits(),
	}
}

// reset re-arms the pipeline state for another run: the rings, queue, batch
// pool and bit hashmaps retain their warm capacity, every per-run result
// field zeroes, and the producer's working batch — nilled by drain — is
// re-armed from the ring's free list. The stage graph is per-run (its done
// channel cannot be reused) and is recreated by Run before launch.
func (as *asyncState) reset() {
	if as.ring != nil {
		as.ring.Reset()
		as.batch = as.ring.Get()
		as.bits.reset()
	}
	if as.queue != nil {
		as.queue.Reset()
	}
	if as.pool != nil {
		as.pool.Reset()
	}
	// An aborted run can strand lent-out pairs mid-strand; take them all
	// back, clean.
	as.bitsFree = as.bitsFree[:0]
	for _, sb := range as.bitsAll {
		sb.reset()
		as.bitsFree = append(as.bitsFree, sb)
	}
	as.hooks = Stats{}
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

// read and write are the serial producer's entire per-access hot path:
// count the hook and set the strand's bits — what the inline engine's hook
// does. Accesses wholly inside a quiesced page skip the bits (see the
// quiesce field for why this is sound).
func (as *asyncState) read(addr, size uint64) {
	countRead(&as.hooks, addr, size)
	if as.qlive && deadEmit(as.quiesce, addr, size) {
		return
	}
	as.bits.rd.Add(addr, size)
}

func (as *asyncState) write(addr, size uint64) {
	countWrite(&as.hooks, addr, size)
	if as.qlive && deadEmit(as.quiesce, addr, size) {
		return
	}
	as.bits.wr.Add(addr, size)
}

// deadEmit reports whether a span lies wholly within one registry-quiesced
// page. Mirrors the engines' deadSpan rule: multi-page spans always set
// their bits (their dead intervals drop page-locally at the engine).
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

// emitCtl ends the current strand: its intervals go into the stream, then
// the structure event that ended it — recorded, in sharded mode, in the
// batch summary so the label stage and skip-scanning workers can replay the
// structure stream without touching the intervals. A strand boundary is
// also where the producer refreshes its view of the quiesce registry.
func (as *asyncState) emitCtl(op evstream.Op) {
	as.endStrand()
	if as.batch.Full() {
		as.publish()
	}
	off := as.batch.AppendCtl(op)
	if as.shards > 0 {
		as.batch.Sum.AddCtl(off)
	}
	if as.quiesce != nil {
		as.qlive = as.quiesce.Len() > 0
	}
}

// endStrand flushes the finishing strand's bit hashmaps into the stream:
// reads, then writes, each in address order and page-contained — the order
// the inline engine's StrandEnd applies them in.
func (as *asyncState) endStrand() {
	as.bits.rd.Flush(func(addr, size uint64) { as.emitInterval(evstream.OpRead, addr, size) })
	as.bits.wr.Flush(func(addr, size uint64) { as.emitInterval(evstream.OpWrite, addr, size) })
}

// emitInterval appends one flushed interval, publishing the batch first
// when it is full, and in sharded mode ORs the shard bit of the interval's
// page into the batch summary.
func (as *asyncState) emitInterval(op evstream.Op, addr, size uint64) {
	if as.batch.Full() {
		as.publish()
	}
	if as.shards > 0 {
		as.batch.Sum.Mask |= evstream.SpanMask(addr, coalesce.PageBytesBits, as.shards)
	}
	as.batch.AppendAccess(op, addr, size)
}

// publish hands the working batch to the ring and takes a fresh one from
// its free list. A false Publish means the graph aborted and closed the
// ring underneath us: the working batch is reset and reused, events are
// dropped (the failure, re-raised by drain, is the run's result), and the
// producer keeps running to its natural unwind point.
func (as *asyncState) publish() {
	if !as.ring.Publish(as.batch) {
		as.batch.Reset()
		return
	}
	as.batch = as.ring.Get()
}

// drain flushes the root's final strand and the last (possibly partial,
// possibly empty) batch, signals end-of-stream, and waits for the stage
// graph to finish — re-panicking the first stage failure, if any, on the
// producer goroutine. After drain returns normally, strands, stats, and
// races are exact, and the hook counters and the ring's stream totals are
// folded into them.
func (as *asyncState) drain() {
	as.endStrand()
	as.ring.Publish(as.batch) // a false return means the graph aborted; Wait surfaces why
	as.batch = nil
	as.ring.Close()
	as.graph.Wait()
	as.stats.Accumulate(&as.hooks)
	rs := as.ring.Stats()
	as.stats.EventsStreamed = rs.EventsPublished
	as.stats.StreamBytes = rs.StreamBytes
}

// consumeState is the plain-Async detector side, retained across runs on a
// reused Runner: the consumer's SP-Order structure, engine, canonical race
// collector, and replay stack all keep their warm capacity between runs.
type consumeState struct {
	sp     *spord.SP
	engine detect.History
	col    *stage.Collector
	stack  []consumeFrame
}

// buildConsume constructs the retained consume-stage state; the OnRace
// closure captures the retained structures, so it survives reuse unchanged.
// maxRec and user mirror the Options fields.
func buildConsume(cfg detect.Config, maxRec int, user func(Race)) *consumeState {
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
	cs.engine = detect.NewHistory(cfg, cs.sp)
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
// events and feeds each strand's intervals to the engine, in stream order,
// exactly as the inline path's strand-end flush would. The stage owns the canonical
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
					engine.ReadInterval(ev.Addr(), ev.Size())
				case evstream.OpWrite:
					engine.WriteInterval(ev.Addr(), ev.Size())
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
