package stint

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"stint/internal/detect"
)

// The reuse suite pins the Runner lifecycle contract: a Runner reused
// across many programs (Run auto-resets between them) produces Reports
// byte-identical to fresh Runners, across every execution mode, and its
// retained footprint stops growing once it has seen its peak workload.

// reuseModes are the configurations the reuse contract is pinned on:
// synchronous inline, and one leg of the mode table per topology — one
// worker, four workers, parallel execution. (The subtest names predate the
// table.)
var reuseBase = Options{Detector: DetectorSTINT, MaxRacesRecorded: 1 << 10}
var reuseModes = []struct {
	name string
	opts Options
}{
	{"sync", reuseBase},
	{"async", modeNamed("async").With(reuseBase)},
	{"shards4", modeNamed("shards=4").With(reuseBase)},
	{"parallel", modeNamed("parallel-detect").With(reuseBase)},
}

// TestReuseByteIdenticalReports drives one Runner per mode through a
// sequence of randomized soak workloads — Run auto-resets between them —
// and checks each Report byte-for-byte against a fresh Runner executing the
// same workload. The arena is deterministic, so the reused Runner's buffers
// (allocated once, before the first run) and the fresh Runners' buffers get
// identical addresses.
func TestReuseByteIdenticalReports(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	const seeds = 5
	for _, mode := range reuseModes {
		t.Run(mode.name, func(t *testing.T) {
			reused, err := NewRunner(mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			// All soak programs use the same fixed buffer geometry, so the
			// reused runner allocates its buffers exactly once.
			_, sizes := soakProgram(0)
			bufs := make([]*Buffer, len(sizes))
			for i, s := range sizes {
				bufs[i] = reused.Arena().AllocWords("b", s)
			}
			for seed := int64(0); seed < seeds; seed++ {
				acts, _ := soakProgram(seed)
				got, err := reused.Run(func(task *Task) { runActs(task, bufs, acts) })
				if err != nil {
					t.Fatal(err)
				}
				want := soakRunOpts(t, acts, sizes, mode.opts)
				assertSameReport(t, mode.name, got, want)
			}
			// An explicit Reset between runs is equivalent to the automatic
			// one: re-running the last seed still matches fresh.
			reused.Reset()
			acts, _ := soakProgram(seeds - 1)
			got, err := reused.Run(func(task *Task) { runActs(task, bufs, acts) })
			if err != nil {
				t.Fatal(err)
			}
			want := soakRunOpts(t, acts, sizes, mode.opts)
			assertSameReport(t, mode.name+"/explicit-reset", got, want)
		})
	}
}

// stableFootprint returns the part of r's footprint that is a function of
// the workload alone. Under ParallelDetect the mutator-side bit pages are
// not: how many Coalescers the pool grows to depends on how many
// strands the scheduler happened to overlap — TestReuseBitPoolStopsGrowing
// pins that side with a program that fixes the overlap.
func stableFootprint(r *Runner) detect.Footprint {
	f := r.footprint()
	if r.opts.ParallelDetect {
		f.BitPages = 0
	}
	return f
}

// TestReuseFootprintStopsGrowing reruns the same workload set on one Runner
// and checks the retained warm capacity — pool chunks, page-directory
// capacity, history pages, and the mutator side's bitmap pages — is
// identical after every lap: the first pass over the workloads warms the
// structures to their peak, and reuse never grows them again.
func TestReuseFootprintStopsGrowing(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	for _, mode := range reuseModes {
		t.Run(mode.name, func(t *testing.T) {
			r, err := NewRunner(mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			_, sizes := soakProgram(0)
			bufs := make([]*Buffer, len(sizes))
			for i, s := range sizes {
				bufs[i] = r.Arena().AllocWords("b", s)
			}
			lap := func() {
				for seed := int64(0); seed < 4; seed++ {
					acts, _ := soakProgram(seed)
					if _, err := r.Run(func(task *Task) { runActs(task, bufs, acts) }); err != nil {
						t.Fatal(err)
					}
				}
			}
			lap() // warm-up: the structures grow to the workload's peak
			warm := stableFootprint(r)
			if full := r.footprint(); full.HistPages == 0 || full.BitPages == 0 {
				t.Fatalf("%s: footprint misses a side after a detecting run: %+v", mode.name, full)
			}
			for i := 0; i < 3; i++ {
				lap()
				if got := stableFootprint(r); got != warm {
					t.Fatalf("%s: footprint grew on lap %d: warm %+v, now %+v",
						mode.name, i+1, warm, got)
				}
			}
		})
	}
	// Quiesce-heavy leg: pages that quiesce mid-run park their history on
	// free lists and tombstone their directory slots, and the next run
	// revives them. None of that may grow the retained footprint across
	// laps — revival must reuse the tombstoned capacity, not rehash into
	// fresh slots.
	for _, mode := range reuseModes {
		t.Run("quiesce/"+mode.name, func(t *testing.T) {
			opts := mode.opts
			opts.PageQuiesceThreshold = 2
			r, err := NewRunner(opts)
			if err != nil {
				t.Fatal(err)
			}
			const pages = 4
			acts := quiesceRacyActs(pages)
			buf := r.Arena().AllocWords("q", pages*qPageWords)
			lap := func() *Report {
				rep, err := r.Run(func(task *Task) { runActs(task, []*Buffer{buf}, acts) })
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			if rep := lap(); rep.Stats.PagesQuiesced == 0 {
				t.Fatalf("%s: no pages quiesced; the leg is vacuous", mode.name)
			}
			warm := stableFootprint(r)
			for i := 0; i < 3; i++ {
				lap()
				if got := stableFootprint(r); got != warm {
					t.Fatalf("%s: footprint grew on quiesce lap %d: warm %+v, now %+v",
						mode.name, i+1, warm, got)
				}
			}
		})
	}
}

// TestReuseBitPoolStopsGrowing pins the ParallelDetect Coalescer pool: a
// program whose k sibling strands are all mid-strand at once (each hooks,
// then waits for the others at a barrier) needs exactly k pairs — the
// parent, parked in Sync, holds none — so the pool's high-water mark is k
// after the first lap and every later lap borrows the same k pairs back.
func TestReuseBitPoolStopsGrowing(t *testing.T) {
	const k = 6
	r, err := NewRunner(Options{Detector: DetectorSTINT, ParallelDetect: true, DetectShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	buf := r.Arena().AllocWords("b", k*64)
	lap := func() {
		var hooked sync.WaitGroup
		hooked.Add(k)
		_, err := r.Run(func(task *Task) {
			for i := 0; i < k; i++ {
				i := i
				task.Spawn(func(c *Task) {
					c.Store(buf, i*64)
					hooked.Done()
					hooked.Wait()
					c.Load(buf, i*64+1)
				})
			}
			task.Sync()
			task.LoadRange(buf, 0, k*64)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	lap()
	as := r.warm.as
	if got := len(as.bitsAll); got != k {
		t.Fatalf("pool grew to %d pairs for %d overlapping strands", got, k)
	}
	warm := r.footprint()
	if warm.BitPages < k {
		t.Fatalf("footprint counts %d bit pages for %d pooled pairs", warm.BitPages, k)
	}
	for i := 0; i < 3; i++ {
		lap()
		if got := r.footprint(); got != warm || len(as.bitsAll) != k || len(as.bitsFree) != k {
			t.Fatalf("lap %d: footprint %+v (warm %+v), %d pairs, %d free", i+1, got, warm, len(as.bitsAll), len(as.bitsFree))
		}
	}
}

// TestResetSteadyStateAllocatesNothing checks the headline Reset property:
// after a dirty run on a warm synchronous Runner, the reset walk itself
// performs zero heap allocations.
func TestResetSteadyStateAllocatesNothing(t *testing.T) {
	r, err := NewRunner(Options{Detector: DetectorSTINT})
	if err != nil {
		t.Fatal(err)
	}
	_, sizes := soakProgram(0)
	bufs := make([]*Buffer, len(sizes))
	for i, s := range sizes {
		bufs[i] = r.Arena().AllocWords("b", s)
	}
	acts, _ := soakProgram(1)
	run := func() {
		if _, err := r.Run(func(task *Task) { runActs(task, bufs, acts) }); err != nil {
			t.Fatal(err)
		}
	}
	run()
	r.Reset()
	run() // dirty again, with every structure already at peak capacity
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.Reset()
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("Reset allocated %d objects; want 0", n)
	}
}

// TestResetClearsCountersAndOrdering pins satellite hazards of reuse: the
// second run's Stats counters start from zero (no bleed from the first
// run), and the canonical race ordering is preserved after Reset.
func TestResetClearsCountersAndOrdering(t *testing.T) {
	r, err := NewRunner(Options{Detector: DetectorSTINT, MaxRacesRecorded: 64})
	if err != nil {
		t.Fatal(err)
	}
	buf := r.Arena().AllocWords("w", 64)
	racy := func(task *Task) {
		task.Spawn(func(c *Task) { c.StoreRange(buf, 0, 32) })
		task.StoreRange(buf, 16, 32)
		task.Sync()
	}
	first, err := r.Run(racy)
	if err != nil {
		t.Fatal(err)
	}
	if first.RaceCount == 0 {
		t.Fatal("expected races from the racy program")
	}
	second, err := r.Run(racy)
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, "second run vs first", second, first)
}
