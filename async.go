// Asynchronous pipelined detection (Options.Async): the mutator executes
// the serial projection, coalesces each strand's accesses in a
// detect.Coalescer (the paper's §3.2 — the same mutator side the synchronous
// detector runs), and at every strand boundary appends the strand's
// intervals, followed by the structure event, to a batch it sends straight
// to every one of the detector side's workers (shards.go), each over its
// own buffered channel. Plain Async is the one-worker case of that graph;
// DetectShards only sets the worker count.
//
// The stream carries intervals, not accesses: a hook that sets a bit
// locally is cheaper than one that encodes and publishes the access, and a
// strand flushes 2–4 orders of magnitude fewer intervals than it made
// accesses (Fig 6). An interval travels as a plain OpRead/OpWrite event —
// it is an access with a larger size.
//
// Sequential semantics are preserved because the stream *is* the serial
// order (DESIGN.md "Why the reports stay byte-identical"): Flush yields the
// intervals the inline engine's StrandEnd applies, in the same order — reads
// first, then writes — the producer follows them with the event that ended
// the strand, and each
// worker replays the stream one event at a time against its own SP-Order
// structure. The only concurrency is the channel handoff; every stage
// remains a sequential algorithm.
//
// All detector-side goroutines hang off one stage.Graph: launch wires the
// stages, drain closes the stream and waits for the graph's merge, and the
// results fields below are written before the graph reports done. A failure
// — a stage's (a user OnRace panic, a guard tripping) or the program
// body's (exec) — closes the graph's failure channel: stages waiting in
// stage.Send or stage.Recv unwind, sends that would wait start reporting
// false (publish then drops events on the floor — the run is already
// doomed), and the failure propagates out of Run on the producer goroutine
// exactly as in synchronous mode.

package stint

import (
	"sync"
	"sync/atomic"

	"stint/internal/detect"
	"stint/internal/evstream"
	"stint/internal/stage"
)

// Default pipeline geometry. A batch is 1 KiB of wire (256 four-byte
// slots): some 330 of the common three-byte interval frames (evstream's
// compact.go), which is tens of strands. An interval stream is hundreds of
// times sparser than the accesses behind it, so a
// batch sized to amortize a handoff over thousands of events
// would hold a short run's whole stream until drain and start detection
// only when execution ends; at this size a handoff still costs well under
// a percent of the work the batch carries, and under ParallelDetect every
// live task's working batch is 1 KiB instead of 16. The channels keep the
// in-flight capacity the larger batches gave (64 × 1 KiB per worker) — the
// slack that lets a detector-bound run (fft) ride out the phases where the
// producer is the slower side — before backpressure blocks the upstream
// stage. Batch boundaries are a function of the stream alone, so
// Stats.StreamBytes repeats exactly.
const (
	defaultAsyncBatchEvents = 256
	defaultAsyncRingDepth   = 64
)

// asyncState is a pipelined Runner's retained state and per-run results:
// the mutator side (the serial producer's coalescer and working batch, or
// ParallelDetect's chunk channel and bit-hashmap pool), the workers, the
// run's stage graph, and the results the graph's stages write before Seal's
// merge completes, read only after drain returns.
type asyncState struct {
	// pool hands out every batch of the pipeline and takes each back when
	// the last worker releases it.
	pool    *evstream.BatchPool
	workers []*shardWorker
	maxRec  int
	graph   *stage.Graph
	// batch is the serial producer's working batch and bits its coalescer,
	// which drops nothing: dead-page intervals are the workers' histories'
	// to drop. Under ParallelDetect both are nil: every task owns a
	// working batch and borrows a Coalescer from the pool below for the
	// length of a strand. The mutator side's share of the run's Stats — the
	// hook counters — is read off the Coalescers at drain.
	batch *evstream.Batch
	bits  *detect.Coalescer
	// Parallel-detect mode (parallel.go) feeds the workers from a merge stage
	// that every executor task sends its chunks to. nextTask hands out task
	// identities to spawned children (the root is 0), execBusy accumulates
	// the executor goroutines' busy nanoseconds, merged counts the chunks the
	// merge took in and mergeCtl the structure events it synthesized from
	// their terminators, seqBusy is the merge's busy time, and reorderPeak
	// its reorder-buffer high-water mark. bitsAll is
	// every Coalescer the run's strands ever needed at once — the pool's
	// high-water mark — and bitsFree the ones not lent out.
	chunks      chan evstream.Chunk
	nextTask    atomic.Uint64
	execBusy    atomic.Int64
	merged      uint64
	mergeCtl    uint64
	seqBusy     stage.Meter
	reorderPeak int
	bitsMu      sync.Mutex
	bitsAll     []*detect.Coalescer
	bitsFree    []*detect.Coalescer
	// Written by the graph's merge, read after graph.Wait(): the totals and
	// the per-worker load breakdown behind Report.ShardLoad. (The serial
	// producer, or ParallelDetect's merge stage, counts the stream totals
	// into stats; the merge finalizer, which runs after every stage has
	// returned, touches only the other fields.)
	strands   int
	stats     Stats
	races     []Race
	shardLoad []ShardLoad
}

// newAsyncState builds the serial producer's side: a pool covering the
// batches in flight to the slowest worker — its channel's and the one it is
// scanning — plus the working one, and the strand coalescer.
func newAsyncState(ringDepth, batchEvents int) *asyncState {
	as := &asyncState{
		pool: evstream.NewBatchPool(ringDepth+2, batchEvents),
		bits: detect.NewCoalescer(),
	}
	as.batch = as.pool.Get()
	return as
}

// reset re-arms the pipeline state for another run: the channels, batch
// pool, workers and bit hashmaps retain their warm capacity and every
// per-run result field zeroes. What an aborted run left in the channels
// goes back to the pool. The stage graph is per-run (its channels cannot be
// reused); launch recreates it.
func (as *asyncState) reset() {
	for _, w := range as.workers {
		for len(w.in) > 0 {
			if b := <-w.in; b != nil {
				b.Release(as.pool)
			}
		}
		w.reset()
	}
	if as.chunks != nil {
		for len(as.chunks) > 0 {
			as.pool.Put((<-as.chunks).Batch)
		}
	} else {
		as.batch.Reset() // an aborted run leaves it part-filled
		as.bits.Reset()
	}
	// An aborted run can strand lent-out Coalescers mid-strand; take them
	// all back, clean.
	as.bitsFree = as.bitsFree[:0]
	for _, c := range as.bitsAll {
		c.Reset()
		as.bitsFree = append(as.bitsFree, c)
	}
	as.nextTask.Store(0)
	as.execBusy.Store(0)
	as.merged, as.mergeCtl = 0, 0
	as.seqBusy.Reset()
	as.reorderPeak = 0
	as.strands = 0
	as.stats = Stats{}
	as.races = nil
	as.shardLoad = nil
}

// emitCtl ends the current strand: its intervals go into the stream, then
// the structure event that ended it.
func (as *asyncState) emitCtl(op evstream.Op) {
	as.endStrand()
	if as.batch.Full() {
		as.publish()
	}
	as.batch.AppendCtl(op)
}

// endStrand flushes the finishing strand's intervals into the stream.
func (as *asyncState) endStrand() {
	as.bits.Flush(
		func(addr, size uint64) { as.emitInterval(evstream.OpRead, addr, size) },
		func(addr, size uint64) { as.emitInterval(evstream.OpWrite, addr, size) })
}

// emitInterval appends one flushed interval, publishing the batch first
// when it is full.
func (as *asyncState) emitInterval(op evstream.Op, addr, size uint64) {
	if as.batch.Full() {
		as.publish()
	}
	as.batch.AppendAccess(op, addr, size)
}

// publish broadcasts the working batch, counting it into the stream totals,
// and takes a fresh one from the pool. A false broadcast means the graph
// failed and no worker took the batch: it is reset and reused, events are
// dropped (the failure, re-raised by drain, is the run's result), and the
// producer keeps running to its natural unwind point.
func (as *asyncState) publish() {
	as.stats.EventsStreamed += uint64(as.batch.Len())
	as.stats.StreamBytes += uint64(as.batch.WireBytes())
	if !as.broadcast(as.batch) {
		as.batch.Reset()
		return
	}
	as.batch = as.pool.Get()
}

// drain flushes the root's final strand and the last (possibly partial,
// possibly empty) batch, ends the stream, and waits for the stage
// graph to finish — re-panicking the first stage failure, if any, on the
// producer goroutine. After drain returns normally, strands, stats, and
// races are exact, and the mutator side's hook counters are folded into
// them.
func (as *asyncState) drain() {
	as.endStrand()
	as.publish()
	as.endStream()
	as.graph.Wait()
	as.stats.Accumulate(as.bits.Hooks())
}

// exec runs the program body on Run's goroutine. Under a stage graph a
// panic out of it fails the graph — so sends that would wait fail — waits
// for every stage and spawned task to
// unwind, and re-raises the original value; the dirty Runner's next Run
// resets what the aborted one left behind.
func (rs *runState) exec(root TaskFunc, t *Task) {
	if g := rs.graph; g != nil {
		defer func() {
			if p := recover(); p != nil {
				g.Abort(p)
				if t.wg != nil {
					t.wg.Wait()
				}
				panic(p)
			}
		}()
	}
	root(t)
	t.Sync()
}
