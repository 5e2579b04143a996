// Parallel execution with online detection (Options.ParallelDetect): the
// goroutine-based executor and the worker graph of shards.go, joined by a
// deterministic merge.
//
// Topology:
//
//	task goroutines+coalescers ──chunk channel──▶ merge stage ──batch to every worker──▶ N workers
//
// Each task goroutine is a chunk emitter: its hooks set bits in a strand-local
// detect.Coalescer (borrowed from a pool for the length of the strand, so a
// task parked in Sync holds none), and when the strand ends the Coalescer
// flushes its intervals into the task's private working batch (from the
// shared BatchPool) — the per-strand coalescing the serial pipeline's
// producer does, here on the executor's parallelism. A chunk is cut — sent
// down the one buffered chunk channel every task shares — when the strand
// ends or, mid-flush, when the batch fills, and a strand-ending cut carries
// the structure event that ended the strand as its End (a spawn naming the
// child task, a strand-creating sync, a task end). Structure events never
// ride in-band.
//
// The merge stage receives the chunks, adds them to stage.Reorder and takes
// back every one that is next in serial order: the depth-first walk of the
// spawn tree that the serial executor takes by construction. The walk is
// driven entirely by the chunks' own linkage (task identities and ends),
// so the output order — and with it batch composition and ultimately the
// Report — depends only on the program, never on the scheduler. In serial
// order the merge hands each chunk and then its End to the stream writer the
// serial producer uses (async.go), which coalesces small chunks into
// full-size batches and broadcasts them to the same workers, over the same
// channels. That is all it does: the merged stream *is* the serial stream,
// and the workers derive strand identities and reachability from its
// structure events themselves (shards.go). Downstream of the merge, nothing
// knows the execution was parallel.
//
// Deadlock-freedom: the dependency chain is acyclic — executors block only
// on sending to the chunk channel, the merge only on receiving from it and
// on sending to the workers' channels, workers only on receiving from
// theirs. BatchPool.Get never blocks (it allocates on a dry pool), and the
// reorder buffer is unbounded but finite (bounded by the stream's
// scheduling skew; its peak is reported as Report.ReorderPeak). On abort
// the graph's failure channel closes, and every blocked stage unwinds
// exactly as in the serial pipeline.

package stint

import (
	"sync"
	"time"

	"stint/internal/detect"
	"stint/internal/evstream"
	"stint/internal/stage"
)

// newParallelState builds the ParallelDetect pipeline state: a chunk
// channel deep enough to keep the merge busy ahead of a burst of tiny
// strand-end chunks, and a batch pool sized to cover every stage's working
// set (queued chunks, in-flight broadcast batches, per-goroutine working
// batches) before Get falls back to allocating.
func newParallelState(ringDepth, batchEvents int) *asyncState {
	queueDepth := ringDepth * 8
	as := &asyncState{
		chunks: make(chan evstream.Chunk, queueDepth),
		pool:   evstream.NewBatchPool(queueDepth+ringDepth+8, batchEvents),
	}
	as.out = as.pool.Get()
	return as
}

// startChunks makes t a chunk emitter under task identity id, with its own
// working batch and busy lap.
func (t *Task) startChunks(id uint64) {
	t.id, t.batch, t.t0 = id, t.rs.as.pool.Get(), time.Now()
}

// pause banks the busy lap before a blocking handoff (chunk send, child
// join); resume starts the next lap after it. Their net effect is
// Report.ExecutorBusy: execution and coalescing time, not waiting time.
func (t *Task) pause()  { t.rs.as.execBusy.Add(int64(time.Since(t.t0))) }
func (t *Task) resume() { t.t0 = time.Now() }

// fork runs f on its own goroutine. With a pipeline the caller's strand
// ends here — its chunk ends with the spawn, naming the child task so the
// merge walks the child's subtree before the caller's continuation — and
// the child emits its own chunks under a fresh task identity, the last
// ending with OpRestore after its implicit final sync. A panic out of f fails
// the run's graph (Run re-raises the first) once the child's subtasks join.
func (t *Task) fork(f TaskFunc) {
	rs := t.rs
	var id uint64
	if rs.as != nil {
		id = rs.as.nextTask.Add(1)
		t.cut(evstream.OpSpawn, id)
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
			child.cut(evstream.OpRestore, 0)
		}
	}()
}

// join is Sync on the goroutine executor: a strand-creating sync (no-op
// syncs are elided, exactly as on the serial paths) ends the current chunk,
// then the task waits for its children — idle time, not execution.
func (t *Task) join() {
	if t.batch != nil {
		if t.pending {
			t.cut(evstream.OpSync, 0)
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

// cut ends the task's strand with the structure event end: its intervals
// flush into the working batch, its Coalescer (hook counters and all,
// summed at drain) goes back to the pool, and the chunk is published.
func (t *Task) cut(end evstream.Op, child uint64) {
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
		t.publish(0, 0)
	}
	t.batch.AppendAccess(op, addr, size)
}

// publish sends the working batch as a chunk ending with end — 0 when a
// flush fills it mid-strand, or cut's structure event at the strand's end —
// and starts a fresh one unless the chunk was the task's last (OpRestore).
// A false send means the graph failed: the batch is kept (reset, or back to
// the pool after the last chunk), events drop on the floor, and the
// goroutine keeps unwinding to its natural exit (the failure is the run's
// result, re-raised by drain). The chunk index advances regardless so the
// doomed stream stays internally consistent.
func (t *Task) publish(end evstream.Op, child uint64) {
	as := t.rs.as
	t.pause()
	sent := stage.Send(t.rs.graph, as.chunks, evstream.Chunk{Batch: t.batch, Task: t.id, Idx: t.idx, End: end, Child: child})
	switch {
	case end == evstream.OpRestore:
		if !sent {
			as.pool.Put(t.batch)
		}
		t.batch = nil
	case sent:
		t.batch = as.pool.Get()
	default:
		t.batch.Reset()
	}
	t.idx++
	t.resume()
}

// mergeParallel is the merge stage: it puts the chunk stream back in serial
// order and writes each chunk, then its End, through the stream writer. It
// returns when a write fails (the graph failed) or, at drain's end marker,
// after publishing the writer's last batch and ending the workers' streams.
// Its busy meter lands in asyncState.seqBusy — reported as
// Report.SequencerBusy — and excludes both chunk waits and broadcast
// blocking.
func (as *asyncState) mergeParallel() {
	reorder := stage.NewReorder()
	// Each lap takes one chunk, waiting if need be, then whatever is
	// already queued behind it.
	for {
		c, ok, _ := stage.Recv(as.graph, as.chunks)
		if !ok {
			return // the graph failed
		}
		t0 := time.Now()
		as.blocked = 0
		for c.Batch != nil {
			reorder.Add(c)
			for c, ok := reorder.Next(); ok; c, ok = reorder.Next() {
				// The root's OpRestore ends the stream: it writes no
				// structure event.
				if !as.writeChunk(c.Batch) || c.End != 0 && !reorder.Done() && !as.writeCtl(c.End) {
					return
				}
			}
			if len(as.chunks) == 0 {
				break
			}
			c = <-as.chunks
		}
		as.seqBusy.AddDur(time.Since(t0) - as.blocked)
		if c.Batch == nil {
			break // drain's end marker
		}
	}
	// The marker came before the root's final chunk. A healthy graph's
	// stream is then structurally broken; a failed one dropped the root's
	// chunk, and this panic loses to the first failure.
	if !reorder.Done() {
		panic("stint: parallel-detect chunk stream ended before the root task's final chunk")
	}
	if as.out.Len() > 0 {
		as.publish()
	}
	as.endStream()
	as.reorderPeak = reorder.Peak()
}
