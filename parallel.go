// Parallel execution with online detection (Options.ParallelDetect): the
// goroutine-based executor and the worker graph of shards.go, joined by a
// deterministic merge.
//
// Topology:
//
//	task goroutines+coalescers ──chunk queue──▶ merge stage ──broadcast ring──▶ N workers ──▶ merge finalizer
//
// Each task goroutine is a chunk emitter: its hooks set bits in a strand-local
// detect.Coalescer (borrowed from a pool for the length of the strand, so a
// task parked in Sync holds none), and when the strand ends the Coalescer
// flushes its intervals into the task's private working batch (from the
// shared BatchPool) — the per-strand coalescing the serial pipeline's
// producer does, here on the executor's parallelism. A chunk is cut —
// published to the bounded multi-producer TaskQueue — when the strand ends
// or, mid-flush, when the batch fills, and the strand-ending cuts carry the
// structure transition as the chunk terminator (spawn naming the child
// task, strand-creating sync, task end). Structure events never ride
// in-band.
//
// The merge stage drains the queue and feeds chunks to stage.Reorder,
// which re-emits them in serial order: the depth-first walk of the spawn
// tree that the serial executor takes by construction. The walk is driven
// entirely by the chunks' own linkage (task identities and terminators),
// so the output order — and with it batch composition and ultimately the
// Report — depends only on the program, never on the scheduler. In serial
// order the merge coalesces small chunks into full-size batches
// (Batch.AppendFrom rebases the compact delta across the seam), appends
// each terminator's structure event, and publishes the batches onto the
// same broadcast ring the serial producer feeds. That is all it does: the
// merged stream *is* the serial stream, and the workers derive strand
// identities and reachability from its structure events themselves
// (shards.go). Downstream of the ring, nothing knows the execution was
// parallel.
//
// Deadlock-freedom: the dependency chain is acyclic — executors block only
// on the queue, the merge blocks only on the queue (drain) and the
// broadcast ring (publish), workers block only on the ring. BatchPool.Get
// never blocks (it allocates on a dry pool), and the reorder buffer is
// unbounded but finite (bounded by the stream's scheduling skew; its peak
// is reported as Report.ReorderPeak). On abort the queue and ring close,
// and every blocked stage unwinds exactly as in the serial pipeline.

package stint

import (
	"sync"
	"time"

	"stint/internal/detect"
	"stint/internal/evstream"
	"stint/internal/stage"
)

// newParallelState builds the ParallelDetect pipeline state: a chunk queue
// deep enough to keep the merge busy ahead of a burst of tiny strand-end
// chunks, and a batch pool sized to cover every stage's working set
// (in-queue chunks, in-flight broadcast batches, per-goroutine working
// batches) before Get falls back to allocating.
func newParallelState(ringDepth, batchEvents int) *asyncState {
	queueDepth := ringDepth * 8
	return &asyncState{
		queue: evstream.NewTaskQueue(queueDepth),
		pool:  evstream.NewBatchPool(queueDepth+ringDepth+8, batchEvents),
	}
}

// startChunks makes t a chunk emitter under task identity id, with its own
// working batch and busy lap.
func (t *Task) startChunks(id uint64) {
	t.id, t.batch, t.t0 = id, t.rs.as.pool.Get(), time.Now()
}

// pause banks the busy lap before a blocking handoff (queue publish, child
// join); resume starts the next lap after it. Their net effect is
// Report.ExecutorBusy: execution and coalescing time, not waiting time.
func (t *Task) pause()  { t.rs.as.execBusy.Add(int64(time.Since(t.t0))) }
func (t *Task) resume() { t.t0 = time.Now() }

// fork runs f on its own goroutine. With a pipeline the caller's strand
// ends here — its chunk's terminator is the spawn, naming the child task so
// the merge walks the child's subtree before the caller's continuation — and
// the child emits its own chunks under a fresh task identity, sealed with a
// task-end terminator after its implicit final sync. A panic out of f fails
// the run's graph (Run re-raises the first) once the child's subtasks join.
func (t *Task) fork(f TaskFunc) {
	rs := t.rs
	var id uint64
	if rs.as != nil {
		id = rs.as.nextTask.Add(1)
		t.cut(evstream.ChunkSpawn, id)
	}
	t.wg.Add(1)
	go func() {
		child := &Task{rs: rs, wg: &sync.WaitGroup{}}
		defer func() {
			if p := recover(); p != nil {
				rs.graph.Abort(p)
				child.wg.Wait()
			}
			t.wg.Done()
		}()
		if rs.as != nil {
			child.startChunks(id)
		}
		f(child)
		child.Sync()
		if rs.as != nil {
			child.cut(evstream.ChunkTask, 0)
		}
	}()
}

// join is Sync on the goroutine executor: a strand-creating sync (no-op
// syncs are elided, exactly as on the serial paths) ends the current chunk,
// then the task waits for its children — idle time, not execution.
func (t *Task) join() {
	if t.batch != nil {
		if t.pending {
			t.cut(evstream.ChunkSync, 0)
		}
		t.pause()
		defer t.resume()
	}
	t.pending = false
	t.wg.Wait()
}

// coalescer returns the strand's Coalescer — under ParallelDetect borrowed
// at its first access, so only strands that are executing and have touched
// memory hold one — or nil when the hooks go to a per-access Engine or
// nowhere.
func (t *Task) coalescer() *detect.Coalescer {
	if t.bits == nil && t.batch != nil {
		t.bits = t.rs.as.borrowBits()
	}
	return t.bits
}

// cut ends the task's strand at a chunk terminator: its intervals flush
// into the working batch, its Coalescer (hook counters and all, summed at
// drain) goes back to the pool, and the chunk is published.
func (t *Task) cut(end evstream.ChunkEnd, child uint64) {
	if c := t.bits; c != nil {
		c.Flush(
			func(addr, size uint64) { t.emitInterval(evstream.OpRead, addr, size) },
			func(addr, size uint64) { t.emitInterval(evstream.OpWrite, addr, size) })
		t.bits = nil
		t.rs.as.returnBits(c)
	}
	t.publish(end, child)
}

// borrowBits lends a flushed Coalescer, growing the pool when every one is
// out; returnBits takes it back. Like the serial producer's, they drop no
// dead-page access: the workers' histories drop those intervals
// page-locally.
func (as *asyncState) borrowBits() *detect.Coalescer {
	as.bitsMu.Lock()
	defer as.bitsMu.Unlock()
	if n := len(as.bitsFree); n > 0 {
		c := as.bitsFree[n-1]
		as.bitsFree = as.bitsFree[:n-1]
		return c
	}
	c := detect.NewCoalescer()
	as.bitsAll = append(as.bitsAll, c)
	return c
}

func (as *asyncState) returnBits(c *detect.Coalescer) {
	as.bitsMu.Lock()
	as.bitsFree = append(as.bitsFree, c)
	as.bitsMu.Unlock()
}

// emitInterval appends one flushed interval to the task's working batch,
// cutting a mid-strand chunk first when the batch is full.
func (t *Task) emitInterval(op evstream.Op, addr, size uint64) {
	if t.batch.Full() {
		t.publish(evstream.ChunkCut, 0)
	}
	t.batch.AppendAccess(op, addr, size)
}

// publish sends the working batch as a chunk with the given terminator and
// starts a fresh one — mid-strand (ChunkCut) when a flush fills it, or for
// cut at the strand's end. A false Publish means the
// graph aborted and closed the queue: the batch is reset and reused, events
// drop on the floor, and the goroutine keeps unwinding to its natural exit
// (the failure is the run's result, re-raised by drainParallel). The chunk
// index advances regardless so the doomed stream stays internally
// consistent.
func (t *Task) publish(end evstream.ChunkEnd, child uint64) {
	as := t.rs.as
	t.pause()
	if as.queue.Publish(evstream.Chunk{Batch: t.batch, Task: t.id, Idx: t.idx, End: end, Child: child}) {
		t.batch = as.pool.Get()
	} else {
		t.batch.Reset()
	}
	t.idx++
	t.resume()
}

// mergeParallel is the merge stage: it reorders the chunk stream into the
// serial projection, coalesces it into full-size batches, and broadcasts
// them. Its busy meter lands in asyncState.seqBusy — reported as
// Report.SequencerBusy — and excludes both queue waits and
// broadcast-publish blocking.
func (as *asyncState) mergeParallel() {
	out := as.pool.Get()
	reorder := stage.NewReorder()
	aborted := false
	var blocked time.Duration // publish-blocking time inside the current lap

	publish := func(b *evstream.Batch) {
		t0 := time.Now()
		if !as.bcast.Publish(b) {
			as.pool.Put(b)
			aborted = true
		}
		blocked += time.Since(t0)
	}
	// flush broadcasts the accumulator and starts a fresh one; empty
	// accumulators (flush on an already-cut boundary) publish nothing.
	flush := func() {
		if out.Len() == 0 {
			return
		}
		publish(out)
		out = as.pool.Get()
	}
	emit := func(c evstream.Chunk) {
		if aborted {
			as.pool.Put(c.Batch)
			return
		}
		src := c.Batch
		if !out.AppendFrom(src) { // an empty chunk always fits
			flush()
			if !aborted && !out.AppendFrom(src) {
				// The chunk is itself full (it was cut mid-strand, or the
				// tests' tiny geometry holds one event): forward it
				// wholesale instead of copying.
				publish(src)
				src = nil
			}
		}
		if src != nil {
			as.pool.Put(src)
		}
		if aborted {
			return
		}
		// The terminator becomes the structure event the serial stream
		// would carry here.
		var op evstream.Op
		switch c.End {
		case evstream.ChunkSpawn:
			op = evstream.OpSpawn
		case evstream.ChunkSync:
			op = evstream.OpSync
		case evstream.ChunkTask:
			op = evstream.OpRestore
		default: // ChunkCut, ChunkRoot: no structure event
			return
		}
		if out.Full() {
			flush()
			if aborted {
				return
			}
		}
		out.AppendCtl(op)
		as.mergeCtl++
	}

	var chunks []evstream.Chunk
	for !reorder.Done() && !aborted {
		var ok bool
		chunks, ok = as.queue.Drain(chunks[:0])
		if !ok {
			// Queue closed before the root chunk: only legal on abort (the
			// hook closes the queue under the producers). A close with the
			// graph healthy means the stream is structurally broken.
			if !as.graph.Failed() {
				panic("stint: parallel-detect chunk stream ended before the root task's final chunk")
			}
			break
		}
		t0 := time.Now()
		blocked = 0
		for _, c := range chunks {
			reorder.Offer(c, emit)
		}
		as.seqBusy.AddDur(time.Since(t0) - blocked)
	}
	if out.Len() > 0 && !aborted {
		publish(out)
	} else {
		as.pool.Put(out)
	}
	as.bcast.Close()
	as.reorderPeak = reorder.Peak()
}

// drainParallel closes the chunk queue, waits out the stage graph — re-
// panicking the first stage failure on the producer goroutine, exactly
// like drain — and folds the hook counters and stream totals into Stats.
// Called after the root's final chunk, so the close never truncates a
// healthy stream: every chunk is already queued (each task publishes its
// chunks before its parent's join returns, and the root joins everything
// first).
func (as *asyncState) drainParallel() {
	as.queue.Close()
	as.graph.Wait()
	qs := as.queue.Stats()
	for _, c := range as.bitsAll {
		as.stats.Accumulate(c.Hooks())
	}
	// Interval events stream through the queue; structure events are
	// synthesized by the merge (one tag byte each). The totals match what
	// the serial Async pipeline would have streamed for the same program.
	as.stats.EventsStreamed = qs.EventsPublished + as.mergeCtl
	as.stats.StreamBytes = qs.StreamBytes + as.mergeCtl
}
