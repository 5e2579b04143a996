package stint

import (
	"fmt"
	"testing"
	"time"

	"stint/internal/evstream"
)

// The producer suite pins the mutator side of the pipelines: where a
// strand's flush may be cut by a batch boundary, and that a short stream
// still crosses to the workers in pieces.

// midFlushProgram is racy, and every strand flushes several disjoint
// intervals of both kinds, so with one event per batch every strand's flush
// is cut between two of its own intervals.
func midFlushProgram() *program {
	strand := func(base int) []act {
		var acts []act
		for i := 0; i < 6; i++ {
			acts = append(acts, store(base+8*i).on(1), loadN(base+8*i+2, 3).on(1))
		}
		return acts
	}
	var acts []act
	for c := 0; c < 3; c++ {
		acts = append(acts, spawn(append(strand(4*c), spawn(strand(1)...))...))
		acts = append(acts, strand(2*c)...)
	}
	return newProgram(harnessBufs, append(acts, syncAct))
}

// TestMidFlushBatchBoundaries runs a program whose strands each flush more
// intervals than the working batch holds. The serial producer must publish
// mid-flush and the parallel executor must cut a mid-strand chunk between
// two intervals of one strand, and neither boundary may show in the Report.
func TestMidFlushBatchBoundaries(t *testing.T) {
	p := midFlushProgram()
	h := newHarness(t, nil, 1)
	base := Options{Detector: DetectorSTINT, MaxRacesRecorded: 1 << 20}
	sync := h.mustRun(base, p)
	if sync.RaceCount == 0 {
		t.Fatal("program produced no races; test is vacuous")
	}
	for _, batchEvents := range []int{1, 2} {
		for _, m := range pipeModes {
			p.batchEvents, p.ringDepth = batchEvents, 2
			r, bufs := h.newRunner(m.With(base), p)
			got := h.run(r, bufs, p, -1).rep
			assertSameReport(t, fmt.Sprintf("batch=%d %s", batchEvents, m.Name), got, sync)
			// A batch this small holds one event, so every event travelled
			// alone: each multi-interval flush was cut — by the serial
			// producer, or by a ParallelDetect task into one-event chunks the
			// merge forwards whole.
			if batches := got.ShardLoad[0].BatchesScanned; batches < got.Stats.EventsStreamed {
				t.Errorf("batch=%d %s: %d batches for %d events: no mid-flush cut",
					batchEvents, m.Name, batches, got.Stats.EventsStreamed)
			}
		}
	}
}

// TestShortRunStreamsBeforeDrain pins the default batch geometry against the
// interval stream: a run of a few thousand intervals — far below what the
// per-access pipelines batched — must reach the detector in pieces while
// the program is still executing, not as one batch at drain; and since batch
// boundaries are a function of the stream alone, the batch count and the
// wire bytes repeat exactly on the reused Runner. The worker, started while
// the program sleeps, waits on its channel at least once, and at most once
// per Recv (each batch and the end of the stream).
func TestShortRunStreamsBeforeDrain(t *testing.T) {
	r, err := NewRunner(Options{Detector: DetectorSTINT, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	buf := r.Arena().AllocWords("b", 1<<14)
	prog := func(task *Task) {
		time.Sleep(20 * time.Millisecond)
		for c := 0; c < 16; c++ {
			task.Spawn(func(ct *Task) {
				for i := 0; i < 128; i++ {
					ct.Store(buf, c*1024+8*i) // a gap after every word: one interval each
				}
			})
		}
		task.Sync()
	}
	var batches, bytes [2]uint64
	for i := range batches {
		rep, err := r.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		batches[i], bytes[i] = rep.ShardLoad[0].BatchesScanned, rep.Stats.StreamBytes
		if w := rep.ShardLoad[0].RingWaits; w == 0 || w > batches[i]+1 {
			t.Errorf("run %d: %d channel waits over %d batches", i, w, batches[i])
		}
		// drain publishes the last batch; everything before it crossed the
		// channel while the program ran.
		if rep.Stats.EventsStreamed > 4096 || batches[i] < 3 {
			t.Fatalf("run %d: %d events crossed to the worker in %d batches, want a sub-4096-event stream in at least 2 before drain",
				i, rep.Stats.EventsStreamed, batches[i])
		}
	}
	if batches[0] != batches[1] || bytes[0] != bytes[1] {
		t.Errorf("batch boundaries moved between identical runs: %d batches / %d bytes, then %d / %d",
			batches[0], bytes[0], batches[1], bytes[1])
	}
}

// TestParallelWarmRunsReuseBatches: a ParallelDetect task takes a batch
// only when its strand has an interval to write and sends it with the
// chunk, and the merge gives back the batch of every chunk it parks. So
// once a run ends no task and no parked chunk holds one: every batch the
// pool ever allocated is back in it but the stream writer's, run after run
// (the program's peak stays under the pool's bound, so none is dropped),
// and a program whose tasks write nothing — spawns and syncs alone — has
// needed no batch but the two the writer's one publish takes. Counted by
// emptying the pool until a Get allocates.
func TestParallelWarmRunsReuseBatches(t *testing.T) {
	const spawns = 200
	r, _ := NewRunner(Options{Detector: DetectorSTINT, ParallelDetect: true})
	buf := r.Arena().AllocWords("b", 8*spawns)
	bare := func(task *Task) {
		for c := 0; c < spawns/4; c++ {
			task.Spawn(func(ct *Task) {
				ct.Spawn(func(*Task) {})
				ct.Sync()
			})
		}
	}
	writes := func(task *Task) {
		for c := 0; c < spawns; c++ {
			task.Spawn(func(ct *Task) { ct.Store(buf, 8*c) })
		}
	}
	pool := func() *evstream.BatchPool { return r.warm.as.pool }
	for run := 0; run < 3; run++ {
		r.Run(bare)
		if n := pool().Allocs(); n != 2 {
			t.Fatalf("run %d: tasks that write no interval took %d batches, want the writer's 2", run, n)
		}
	}
	for run := 0; run < 6; run++ {
		r.Run(writes)
		var held []*evstream.Batch
		for allocs := pool().Allocs(); pool().Allocs() == allocs; {
			held = append(held, pool().Get())
		}
		// The stream writer keeps its working batch across runs.
		if n := uint64(len(held)) + 1; n != pool().Allocs() {
			t.Errorf("run %d: %d of the pool's %d batches came back", run, n-2, pool().Allocs()-1)
		}
		for _, b := range held {
			pool().Put(b)
		}
	}
}

// TestOneBatchStreamCountsAlike pins the one accounting point: every
// pipeline counts a batch as it broadcasts it, so a program whose whole
// stream fits one batch at the default geometry streams the same events and
// wire bytes on every row — ParallelDetect's chunk seams, which AppendFrom
// re-bases, counted as the workers receive them.
func TestOneBatchStreamCountsAlike(t *testing.T) {
	var want Stats
	for i, m := range pipeModes {
		r, err := NewRunner(m.With(Options{Detector: DetectorSTINT}))
		if err != nil {
			t.Fatal(err)
		}
		buf := r.Arena().AllocWords("b", 1<<12)
		rep, err := r.Run(func(task *Task) {
			for c := 0; c < 8; c++ {
				task.Spawn(func(ct *Task) {
					for i := 0; i < 12; i++ {
						ct.Store(buf, 256*c+8*i) // a gap after every word: one interval each
					}
				})
			}
			task.Sync()
			task.LoadRange(buf, 0, 1024)
		})
		if err != nil {
			t.Fatal(err)
		}
		if b := rep.ShardLoad[0].BatchesScanned; b != 1 {
			t.Fatalf("%s: the stream took %d batches, want 1", m.Name, b)
		}
		if i == 0 {
			want = rep.Stats
		} else if got := rep.Stats; got.EventsStreamed != want.EventsStreamed || got.StreamBytes != want.StreamBytes {
			t.Errorf("%s: streamed %d events in %d B, %s streamed %d in %d B",
				m.Name, got.EventsStreamed, got.StreamBytes, pipeModes[0].Name, want.EventsStreamed, want.StreamBytes)
		}
	}
}
