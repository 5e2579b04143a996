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
// flushes its intervals into the task's private working batch (taken from
// the shared BatchPool at the strand's first interval) — the per-strand
// coalescing the serial pipeline's producer does, here on the executor's
// parallelism. A chunk is cut — sent down the one buffered chunk channel
// every task shares, with its batch, or none if the strand wrote no
// interval — when the strand ends or, mid-flush, when the batch fills, and
// a strand-ending cut carries the structure event that ended the strand as
// its End (a spawn naming the child task, a strand-creating sync, a task
// end). Structure events never ride in-band.
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
// Memory: a batch is out of the pool only while a strand writes into it,
// while it is queued in the chunk channel, and while the workers read it.
// The reorder buffer holds the chunks that arrive before their turn, as
// many as the schedule's skew makes (Report.ReorderPeak counts them); it
// keeps their bytes in its own store and gives their batches back at once,
// so what skew costs is the bytes of the stream it holds, not a batch per
// chunk. The Task frames, the reorder walk's stores, the pool and the
// Coalescers are kept across runs, so a warm run allocates only what the
// bare goroutine executor does: a goroutine closure per spawn.
//
// Deadlock-freedom: the dependency chain is acyclic — executors block only
// on sending to the chunk channel, the merge only on receiving from it and
// on sending to the workers' channels, workers only on receiving from
// theirs. BatchPool.Get never blocks (it allocates on a dry pool), and the
// reorder buffer is unbounded but finite (bounded by the stream's
// scheduling skew). On abort the graph's failure channel closes, and every
// blocked stage unwinds exactly as in the serial pipeline.

package stint

import (
	"time"

	"stint/internal/detect"
	"stint/internal/evstream"
	"stint/internal/stage"
)

// newParallelState builds the ParallelDetect pipeline state: a chunk
// channel deep enough to keep the merge busy ahead of a burst of tiny
// strand-end chunks, the merge's reorder walk, and a batch pool. A batch is
// out of the pool only while a strand's intervals are written into it,
// queued, or broadcast: a chunk with no intervals carries none, and a
// parked chunk gives its batch back. The pool's free list keeps as many
// batches as fill the channel, as many again for tasks waiting to send into
// a full one, the workers' channel and the writer's: fft at the
// benchmark's size peaks near 700 out at once, and a bound it overran
// (the channel alone) dropped some 65 batches a run, re-made by the next.
func newParallelState(ringDepth, batchEvents int) *asyncState {
	queueDepth := ringDepth * 8
	as := &asyncState{
		chunks:  make(chan evstream.Chunk, queueDepth),
		pool:    evstream.NewBatchPool(2*queueDepth+ringDepth+8, batchEvents),
		reorder: stage.NewReorder(),
	}
	as.out = as.pool.Get()
	return as
}

// pause banks the busy lap before a blocking handoff (chunk send, child
// join); resume starts the next lap after it. Their net effect is
// Report.ExecutorBusy: execution and coalescing time, not waiting time.
func (t *Task) pause()  { t.rs.as.execBusy.Add(int64(time.Since(t.t0))) }
func (t *Task) resume() { t.t0 = time.Now() }

// fork runs f on its own goroutine, in a Task frame from the run's frame
// list. With a pipeline the caller's strand ends here — its chunk ends with
// the spawn, naming the child task so the merge walks the child's subtree
// before the caller's continuation — and the child emits its own chunks
// under a fresh task identity, the last ending with OpRestore after its
// implicit final sync.
func (t *Task) fork(f TaskFunc) {
	rs := t.rs
	child := rs.frames.get(rs)
	if rs.as != nil {
		child.id = rs.as.nextTask.Add(1)
		t.cut(evstream.OpSpawn, child.id)
	}
	t.wg.Add(1)
	go child.run(t, f)
}

// run is a forked task's goroutine. A panic out of f fails the run's graph
// (Run re-raises the first) once the task's own children have joined. The
// frame goes back to the list only then, when nothing of this goroutine
// will touch it again; parent's join returns after that.
func (t *Task) run(parent *Task, f TaskFunc) {
	rs := t.rs
	defer func() {
		if p := recover(); p != nil {
			rs.graph.Abort(p)
			t.wg.Wait()
		}
		rs.frames.put(t)
		parent.wg.Done()
	}()
	if rs.as != nil {
		t.resume()
	}
	f(t)
	t.Sync()
	if rs.as != nil {
		t.cut(evstream.OpRestore, 0)
	}
}

// join is Sync on the goroutine executor: a strand-creating sync (no-op
// syncs are elided, exactly as on the serial paths) ends the current chunk,
// then the task waits for its children — idle time, not execution.
func (t *Task) join() {
	if t.rs.as != nil {
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
	if t.bits == nil && t.rs.parallel && t.rs.as != nil {
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
// taking one from the pool for the strand's first interval, and cutting a
// mid-strand chunk first when the batch is full.
func (t *Task) emitInterval(op evstream.Op, addr, size uint64) {
	if t.batch != nil && t.batch.Full() {
		t.publish(0, 0)
	}
	if t.batch == nil {
		t.batch = t.rs.as.pool.Get()
	}
	t.batch.AppendAccess(op, addr, size)
}

// publish sends the working batch, nil if the strand wrote no interval, as
// a chunk ending with end — 0 when a flush fills it mid-strand, or cut's
// structure event at the strand's end. The task then holds no batch until
// its next interval. A false send means the graph failed: the batch goes
// back to the pool, its events drop on the floor, and the goroutine keeps
// unwinding to its natural exit (the failure is the run's result,
// re-raised by drain). The chunk index advances regardless so the doomed
// stream stays internally consistent.
func (t *Task) publish(end evstream.Op, child uint64) {
	as := t.rs.as
	t.pause()
	if !stage.Send(t.rs.graph, as.chunks, evstream.Chunk{Batch: t.batch, Task: t.id, Idx: t.idx, End: end, Child: child}) {
		as.pool.Put(t.batch)
	}
	t.batch = nil
	t.idx++
	t.resume()
}

// mergeParallel is the merge stage: it puts the chunk stream back in serial
// order and writes each chunk, then its End, through the stream writer,
// recycling each batch the reorder walk copies out of. It returns when a
// write fails (the graph failed) or, at drain's end marker, after
// publishing the writer's last batch and ending the workers' streams. The
// marker is the zero Chunk, which no task sends: a chunk with End 0 is a
// mid-strand cut, cut because its batch was full. The merge's busy meter
// lands in asyncState.seqBusy — reported as Report.SequencerBusy — and
// excludes both chunk waits and broadcast blocking.
func (as *asyncState) mergeParallel() {
	reorder := as.reorder
	// Each lap takes one chunk, waiting if need be, then whatever is
	// already queued behind it.
	for {
		c, ok, _ := stage.Recv(as.graph, as.chunks)
		if !ok {
			return // the graph failed
		}
		t0 := time.Now()
		as.blocked = 0
		for c != (evstream.Chunk{}) {
			as.pool.Put(reorder.Add(c))
			for c, ok := reorder.Next(); ok; c, ok = reorder.Next() {
				// The root's OpRestore ends the stream: it writes no
				// structure event.
				if c.Batch != nil && !as.writeChunk(c.Batch) || c.End != 0 && !reorder.Done() && !as.writeCtl(c.End) {
					return
				}
			}
			if len(as.chunks) == 0 {
				break
			}
			c = <-as.chunks
		}
		as.seqBusy.AddDur(time.Since(t0) - as.blocked)
		if c == (evstream.Chunk{}) {
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
