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
// worker replays the stream one event at a time against its own SP-bags
// structure. The only concurrency is the channel handoff; every stage
// remains a sequential algorithm.
//
// The stream has one writer, shared with ParallelDetect's merge
// (parallel.go): writeInterval, writeCtl and writeChunk fill the working
// batch and publish it when full; send counts every broadcast batch into
// the stream totals. All detector-side goroutines hang off one stage.Graph:
// launch wires the stages, and drain ends the stream, joins the graph and
// merges the workers' results on the producer. A failure — a stage's (a
// user OnRace panic, a guard tripping) or the program body's (exec) —
// closes the graph's failure channel: stages waiting in stage.Send or
// stage.Recv unwind, sends that would wait start reporting false (the
// writer then drops events on the floor — the run is already doomed), and
// the failure propagates out of Run on the producer goroutine exactly as in
// synchronous mode.

package stint

import (
	"sync"
	"sync/atomic"
	"time"

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
// the mutator side (the serial producer's coalescer, or ParallelDetect's
// chunk channel and bit-hashmap pool), the stream writer, the workers, the
// run's stage graph, and the results, read only after drain returns.
type asyncState struct {
	// pool hands out every batch of the pipeline and takes each back when
	// the last worker releases it.
	pool    *evstream.BatchPool
	workers []*shardWorker
	graph   *stage.Graph
	// out is the stream writer's working batch, taken once and kept across
	// runs; blocked is the time its broadcasts waited, which the merge
	// subtracts from its busy lap. The writer is the serial producer, or
	// under ParallelDetect the merge stage.
	out     *evstream.Batch
	blocked time.Duration
	// bits is the serial producer's coalescer. Under ParallelDetect it is
	// nil: every task borrows a Coalescer from the pool below for the
	// length of a strand. bitsAll is every Coalescer of the mutator side —
	// the producer's one, or every one ParallelDetect's strands ever needed
	// at once, the pool's high-water mark — and bitsFree the ones not lent
	// out. Their hook counters are the mutator side's share of the run's
	// Stats, read off them at drain.
	bits     *detect.Coalescer
	bitsMu   sync.Mutex
	bitsAll  []*detect.Coalescer
	bitsFree []*detect.Coalescer
	// Parallel-detect mode (parallel.go) feeds the writer from a merge stage
	// that every executor task sends its chunks to, which puts them back in
	// serial order with reorder (kept across runs). nextTask hands out task
	// identities to spawned children (the root is 0), execBusy accumulates
	// the executor goroutines' busy nanoseconds, seqBusy is the merge's busy
	// time, and reorderPeak its reorder-buffer high-water mark.
	chunks      chan evstream.Chunk
	reorder     *stage.Reorder
	nextTask    atomic.Uint64
	execBusy    atomic.Int64
	seqBusy     stage.Meter
	reorderPeak int
	// The run's results: the writer counts the stream totals into stats;
	// drain, once the graph has joined, folds in the workers' counters,
	// merges their races into col (kept across runs) and builds the
	// per-worker load breakdown behind Report.ShardLoad.
	col       *stage.Collector
	strands   int
	stats     Stats
	races     []Race
	shardLoad []ShardLoad
}

// newAsyncState builds the serial producer's side: a pool covering the
// batches in flight to the slowest worker — its channel's and the one it is
// scanning — plus the working one, and the strand coalescer.
func newAsyncState(ringDepth, batchEvents int) *asyncState {
	as := &asyncState{pool: evstream.NewBatchPool(ringDepth+2, batchEvents), bits: detect.NewCoalescer()}
	as.out = as.pool.Get()
	as.bitsAll = []*detect.Coalescer{as.bits}
	return as
}

// reset re-arms the pipeline state for another run: the channels, batch
// pool, workers and bit hashmaps retain their warm capacity and every
// per-run result field zeroes. What an aborted run left in the channels
// goes back to the pool, and the working batch it left part-filled is
// emptied. The stage graph is per-run (its channels cannot be reused);
// launch recreates it.
func (as *asyncState) reset() {
	for _, w := range as.workers {
		for len(w.in) > 0 {
			if b := <-w.in; b != nil {
				b.Release(as.pool)
			}
		}
		w.reset()
	}
	for len(as.chunks) > 0 {
		as.pool.Put((<-as.chunks).Batch)
	}
	if as.reorder != nil {
		as.reorder.Reset()
	}
	as.out.Reset()
	as.blocked = 0
	// An aborted run can strand lent-out Coalescers mid-strand; take them
	// all back, clean.
	as.bitsFree = as.bitsFree[:0]
	for _, c := range as.bitsAll {
		c.Reset()
		as.bitsFree = append(as.bitsFree, c)
	}
	as.nextTask.Store(0)
	as.execBusy.Store(0)
	as.seqBusy.Reset()
	as.reorderPeak = 0
	as.strands = 0
	as.stats = Stats{}
	as.races = nil
	as.shardLoad = nil
}

// endStrand flushes the serial producer's finishing strand into the stream.
func (as *asyncState) endStrand() {
	as.bits.Flush(
		func(addr, size uint64) { as.writeInterval(evstream.OpRead, addr, size) },
		func(addr, size uint64) { as.writeInterval(evstream.OpWrite, addr, size) })
}

// writeInterval appends one interval event, publishing the working batch
// first when it is full.
func (as *asyncState) writeInterval(op evstream.Op, addr, size uint64) {
	if as.out.Full() {
		as.publish()
	}
	as.out.AppendAccess(op, addr, size)
}

// writeCtl appends one structure event, publishing the working batch first
// when it is full. It reports false when that publish failed.
func (as *asyncState) writeCtl(op evstream.Op) bool {
	if as.out.Full() && !as.publish() {
		return false
	}
	as.out.AppendCtl(op)
	return true
}

// writeChunk appends a chunk's events (Batch.AppendFrom re-bases the
// compact delta across the seam) and returns src to the pool unless it is
// a parked view, publishing the working batch first when the chunk does
// not fit. A chunk that does not fit an empty batch either — it was cut
// because it was itself full, and so was never parked as a view — is sent
// whole instead of copied. It reports false when a send failed.
func (as *asyncState) writeChunk(src *evstream.Batch) bool {
	ok := true
	if !as.out.AppendFrom(src) {
		if as.out.Len() > 0 {
			ok = as.publish()
		}
		if ok && !as.out.AppendFrom(src) {
			if ok = as.send(src); ok {
				return true // the workers release src
			}
		}
	}
	if !src.Parked() {
		as.pool.Put(src)
	}
	return ok
}

// publish sends the working batch and takes a fresh one from the pool. A
// failed send means the graph failed and no worker took the batch: it is
// reset and reused, its events dropped (the failure, re-raised by drain,
// is the run's result), and publish reports false.
func (as *asyncState) publish() bool {
	if !as.send(as.out) {
		as.out.Reset()
		return false
	}
	as.out = as.pool.Get()
	return true
}

// send counts b into the stream totals and broadcasts it to the workers,
// adding the broadcast's time to blocked.
func (as *asyncState) send(b *evstream.Batch) bool {
	as.stats.EventsStreamed += uint64(b.Len())
	as.stats.StreamBytes += uint64(b.WireBytes())
	t0 := time.Now()
	ok := as.broadcast(b)
	as.blocked += time.Since(t0)
	return ok
}

// drain ends the stream — the serial producer flushes the root's final
// strand, publishes the last (possibly partial, possibly empty) batch and
// ends every worker's stream; ParallelDetect sends the merge its end marker,
// a zero Chunk, after the root's final chunk, which every other chunk
// precedes (a task sends its chunks before its parent's join returns) —
// then joins the stage graph, re-panicking the first stage failure on the
// producer goroutine. After drain returns normally, strands, stats and
// races are exact, and the mutator side's hook counters are folded in.
func (as *asyncState) drain() {
	if as.chunks != nil {
		stage.Send(as.graph, as.chunks, evstream.Chunk{})
	} else {
		as.endStrand()
		as.publish()
		as.endStream()
	}
	as.graph.Wait()
	as.mergeSharded()
	for _, c := range as.bitsAll {
		as.stats.Accumulate(c.Hooks())
	}
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
				t.wg.Wait()
				panic(p)
			}
		}()
	}
	root(t)
	t.Sync()
}
