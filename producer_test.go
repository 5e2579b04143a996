package stint

import (
	"fmt"
	"testing"
)

// The producer suite pins the mutator side of the pipelines: where a
// strand's flush may be cut by a batch boundary, and that a short stream
// still crosses the ring in pieces.

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
// mid-flush and the parallel executor must cut a ChunkCut chunk between two
// intervals of one strand, and neither boundary may show in the Report.
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
			// alone: each multi-interval flush was cut.
			as := r.warm.as
			if m.Opts.ParallelDetect {
				// Every strand-ending cut is one chunk (one per structure
				// event plus the root's last); the rest are mid-flush cuts.
				if chunks := as.queue.Stats().BatchesPublished; chunks <= as.mergeCtl+1 {
					t.Errorf("batch=%d %s: %d chunks for %d strand ends: no mid-flush ChunkCut",
						batchEvents, m.Name, chunks, as.mergeCtl+1)
				}
			} else if batches := as.bcast.Stats().BatchesPublished; batches < got.Stats.EventsStreamed {
				t.Errorf("batch=%d %s: %d batches for %d events: no mid-flush publish",
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
// wire bytes repeat exactly on the reused Runner.
func TestShortRunStreamsBeforeDrain(t *testing.T) {
	r, err := NewRunner(Options{Detector: DetectorSTINT, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	buf := r.Arena().AllocWords("b", 1<<14)
	prog := func(task *Task) {
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
		batches[i], bytes[i] = r.warm.as.bcast.Stats().BatchesPublished, rep.Stats.StreamBytes
		// drain publishes the last batch; everything before it crossed the
		// ring while the program ran.
		if rep.Stats.EventsStreamed > 4096 || batches[i] < 3 {
			t.Fatalf("run %d: %d events crossed the ring in %d batches, want a sub-4096-event stream in at least 2 before drain",
				i, rep.Stats.EventsStreamed, batches[i])
		}
	}
	if batches[0] != batches[1] || bytes[0] != bytes[1] {
		t.Errorf("batch boundaries moved between identical runs: %d batches / %d bytes, then %d / %d",
			batches[0], bytes[0], batches[1], bytes[1])
	}
}
