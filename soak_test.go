package stint

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// The soak suite runs larger randomized programs through every detector and
// checks cross-run determinism and cross-detector agreement on aggregate
// counters — the guarantees a user relies on when comparing detector
// configurations on their own programs.

// soakProgram builds a deep, wide random program over several buffers.
func soakProgram(seed int64) ([]act, []int) {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{128, 64, 256}
	var grow func(depth int) []act
	grow = func(depth int) []act {
		n := rng.Intn(8) + 1
		acts := make([]act, 0, n)
		for i := 0; i < n; i++ {
			switch k := rng.Intn(12); {
			case k < 4 && depth > 0:
				acts = append(acts, act{kind: 'S', body: grow(depth - 1)})
			case k == 4:
				acts = append(acts, act{kind: 'Y'})
			default:
				b := rng.Intn(len(sizes))
				idx := rng.Intn(sizes[b])
				a := act{kind: []byte{'l', 's', 'L', 'W'}[rng.Intn(4)], buf: b, idx: idx}
				if a.kind == 'L' || a.kind == 'W' {
					a.n = rng.Intn(sizes[b]-idx) + 1
				}
				acts = append(acts, a)
			}
		}
		return acts
	}
	return grow(6), sizes
}

func soakRun(t *testing.T, acts []act, sizes []int, d Detector) *Report {
	return soakRunOpts(t, acts, sizes, Options{Detector: d, MaxRacesRecorded: 1})
}

func soakRunOpts(t *testing.T, acts []act, sizes []int, opts Options) *Report {
	t.Helper()
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([]*Buffer, len(sizes))
	for i, s := range sizes {
		bufs[i] = r.Arena().AllocWords("b", s)
	}
	rep, err := r.Run(func(task *Task) { runActs(task, bufs, acts) })
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSoakDeterminismAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	for seed := int64(0); seed < 6; seed++ {
		acts, sizes := soakProgram(seed)
		for _, d := range allDetectors {
			a := soakRun(t, acts, sizes, d)
			b := soakRun(t, acts, sizes, d)
			if a.RaceCount != b.RaceCount || a.Strands != b.Strands ||
				a.Stats.ReadIntervals != b.Stats.ReadIntervals ||
				a.Stats.TreapNodesVisited != b.Stats.TreapNodesVisited {
				t.Fatalf("seed %d %v: nondeterministic runs\n%+v\n%+v", seed, d, a.Stats, b.Stats)
			}
		}
	}
}

// soakPipelined holds every mode of modes to two properties at soak scale,
// for every supported detector: runs are deterministic across repetitions
// (the ring hands over batches, it never reorders, and per-page state is
// owned by exactly one worker, so scheduling cannot change any counter) and
// match the synchronous path on every deterministic field.
func soakPipelined(t *testing.T, seeds [2]int64, modes []pipeMode) {
	if testing.Short() {
		t.Skip("soak")
	}
	for seed := seeds[0]; seed < seeds[1]; seed++ {
		acts, sizes := soakProgram(seed)
		for _, d := range shardTestDetectors {
			base := Options{Detector: d, MaxRacesRecorded: 1}
			sync := soakRunOpts(t, acts, sizes, base)
			for _, m := range modes {
				a := soakRunOpts(t, acts, sizes, m.With(base))
				b := soakRunOpts(t, acts, sizes, m.With(base))
				assertSameReport(t, fmt.Sprintf("seed %d %v %s: second run", seed, d, m.Name), b, a)
				assertSameReport(t, fmt.Sprintf("seed %d %v %s vs sync", seed, d, m.Name), a, sync)
			}
		}
	}
}

func TestSoakAsyncDeterminismAndSyncAgreement(t *testing.T) {
	soakPipelined(t, [2]int64{20, 26}, pipeModes[:1])
}

func TestSoakShardedDeterminismAndSyncAgreement(t *testing.T) {
	soakPipelined(t, [2]int64{30, 34}, pipeModes[1:3])
}

// TestSoakParallelDetectDeterminism hammers the ParallelDetect pipeline
// under a per-iteration randomized GOMAXPROCS: the scheduler gets a
// different amount of real parallelism every time, chunks arrive at the
// merge in a different order every time, and the report must not move.
// MaxRacesRecorded is deliberately large so truncation cannot mask a
// reordered race list. Designed to run under -race in CI (the race job
// runs the full suite), where the parallel executor's goroutines get the
// most adversarial interleavings. The comparison to sync covers the hook
// counters too: they are counted per task goroutine and summed as the tasks
// join, the one part of Stats the executors (not the merge) produce.
func TestSoakParallelDetectDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const iters = 50
	for seed := int64(40); seed < 42; seed++ {
		acts, sizes := soakProgram(seed)
		rng := rand.New(rand.NewSource(seed * 101))
		base := Options{Detector: DetectorSTINT, MaxRacesRecorded: 1 << 16}
		sync := soakRunOpts(t, acts, sizes, base)
		for it := 0; it < iters; it++ {
			runtime.GOMAXPROCS(1 + rng.Intn(4))
			rep := soakRunOpts(t, acts, sizes, modeNamed("parallel-detect").With(base))
			assertSameReport(t, fmt.Sprintf("seed %d iter %d", seed, it), rep, sync)
		}
	}
}

func TestSoakAggregateAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	for seed := int64(10); seed < 16; seed++ {
		acts, sizes := soakProgram(seed)
		// Access counts are instrumentation-level facts: identical across
		// all engines. Interval counts are coalescing-level facts:
		// identical across all runtime-coalescing engines.
		vanilla := soakRun(t, acts, sizes, DetectorVanilla)
		var coalesced []*Report
		for _, d := range []Detector{DetectorCompRTS, DetectorSTINT, DetectorSTINTUnbalanced} {
			coalesced = append(coalesced, soakRun(t, acts, sizes, d))
		}
		for i, rep := range coalesced {
			if rep.Stats.ReadAccesses != vanilla.Stats.ReadAccesses ||
				rep.Stats.WriteAccesses != vanilla.Stats.WriteAccesses {
				t.Fatalf("seed %d engine %d: access counts diverge from vanilla", seed, i)
			}
			if rep.Strands != vanilla.Strands {
				t.Fatalf("seed %d engine %d: strand counts diverge", seed, i)
			}
			if rep.Stats.ReadIntervals != coalesced[0].Stats.ReadIntervals ||
				rep.Stats.WriteIntervals != coalesced[0].Stats.WriteIntervals {
				t.Fatalf("seed %d engine %d: interval counts diverge across coalescing engines", seed, i)
			}
		}
		// Racy verdicts agree everywhere (full equality is covered by the
		// equivalence suite; this guards it at soak scale).
		for i, rep := range coalesced {
			if rep.Racy() != vanilla.Racy() {
				t.Fatalf("seed %d engine %d: verdict %v vs vanilla %v", seed, i, rep.Racy(), vanilla.Racy())
			}
		}
	}
}
