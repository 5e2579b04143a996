package stint

import (
	"math/rand"
	"reflect"
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
	return soakRunMode(t, acts, sizes, d, false)
}

func soakRunMode(t *testing.T, acts []act, sizes []int, d Detector, async bool) *Report {
	return soakRunShards(t, acts, sizes, d, async, 0)
}

func soakRunShards(t *testing.T, acts []act, sizes []int, d Detector, async bool, shards int) *Report {
	return soakRunOpts(t, acts, sizes, Options{Detector: d, MaxRacesRecorded: 1, Async: async, DetectShards: shards})
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

func TestSoakAsyncDeterminismAndSyncAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	// Async runs must be deterministic across runs (the ring hands over
	// batches, it never reorders) and must match the synchronous path on
	// every counter that is not timing- or allocation-dependent.
	norm := func(s Stats) Stats {
		s.AccessHistoryTime, s.AllocObjects, s.AllocBytes, s.PipelineDetectTime, s.BatchesSkipped = 0, 0, 0, 0, 0
		s.EventsStreamed, s.StreamBytes = 0, 0
		return s
	}
	for seed := int64(20); seed < 26; seed++ {
		acts, sizes := soakProgram(seed)
		for _, d := range shardTestDetectors {
			a := soakRunMode(t, acts, sizes, d, true)
			b := soakRunMode(t, acts, sizes, d, true)
			if norm(a.Stats) != norm(b.Stats) || a.Strands != b.Strands {
				t.Fatalf("seed %d %v: nondeterministic async runs\n%+v\n%+v", seed, d, a.Stats, b.Stats)
			}
			s := soakRunMode(t, acts, sizes, d, false)
			if norm(a.Stats) != norm(s.Stats) || a.Strands != s.Strands {
				t.Fatalf("seed %d %v: async diverges from sync\nasync: %+v\nsync:  %+v",
					seed, d, norm(a.Stats), norm(s.Stats))
			}
		}
	}
}

func TestSoakShardedDeterminismAndSyncAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	// Sharded runs must be deterministic across repetitions (per-page state
	// is owned by exactly one worker, so scheduling cannot change any
	// counter) and must match the synchronous path on every deterministic
	// counter, for every supported detector and shard count.
	norm := func(s Stats) Stats {
		s.AccessHistoryTime, s.AllocObjects, s.AllocBytes, s.PipelineDetectTime, s.BatchesSkipped = 0, 0, 0, 0, 0
		s.EventsStreamed, s.StreamBytes = 0, 0
		return s
	}
	for seed := int64(30); seed < 34; seed++ {
		acts, sizes := soakProgram(seed)
		for _, d := range shardTestDetectors {
			sync := soakRunMode(t, acts, sizes, d, false)
			for _, n := range []int{1, 2, 4} {
				a := soakRunShards(t, acts, sizes, d, true, n)
				b := soakRunShards(t, acts, sizes, d, true, n)
				if norm(a.Stats) != norm(b.Stats) || a.Strands != b.Strands || a.RaceCount != b.RaceCount {
					t.Fatalf("seed %d %v shards=%d: nondeterministic sharded runs\n%+v\n%+v",
						seed, d, n, a.Stats, b.Stats)
				}
				if norm(a.Stats) != norm(sync.Stats) || a.Strands != sync.Strands || a.RaceCount != sync.RaceCount {
					t.Fatalf("seed %d %v shards=%d: sharded diverges from sync\nsharded: %+v\nsync:    %+v",
						seed, d, n, norm(a.Stats), norm(sync.Stats))
				}
			}
		}
	}
}

// TestSoakParallelDetectDeterminism hammers the ParallelDetect pipeline
// under a per-iteration randomized GOMAXPROCS: the scheduler gets a
// different amount of real parallelism every time, chunks arrive at the
// merge in a different order every time, and the report must not move.
// MaxRacesRecorded is deliberately large so truncation cannot mask a
// reordered race list. Designed to run under -race in CI (the race job
// runs the full suite), where the parallel executor's goroutines get the
// most adversarial interleavings. The hook counters get their own check
// against sync: they are counted per task goroutine and summed as the tasks
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
		sync := soakRunOpts(t, acts, sizes, Options{
			Detector: DetectorSTINT, MaxRacesRecorded: 1 << 16,
		})
		var first *Report
		for it := 0; it < iters; it++ {
			runtime.GOMAXPROCS(1 + rng.Intn(4))
			rep := soakRunOpts(t, acts, sizes, Options{
				Detector: DetectorSTINT, MaxRacesRecorded: 1 << 16,
				ParallelDetect: true, DetectShards: 2,
			})
			if rep.RaceCount != sync.RaceCount || rep.Strands != sync.Strands {
				t.Fatalf("seed %d iter %d: RaceCount/Strands %d/%d, sync %d/%d",
					seed, it, rep.RaceCount, rep.Strands, sync.RaceCount, sync.Strands)
			}
			if !reflect.DeepEqual(rep.Races, sync.Races) {
				t.Fatalf("seed %d iter %d: race set diverges from sync\n got: %v\nsync: %v",
					seed, it, rep.Races, sync.Races)
			}
			if g, w := rep.Stats, sync.Stats; g.ReadHookCalls != w.ReadHookCalls || g.WriteHookCalls != w.WriteHookCalls ||
				g.ReadAccesses != w.ReadAccesses || g.WriteAccesses != w.WriteAccesses {
				t.Fatalf("seed %d iter %d: hook counters %d/%d calls %d/%d words, sync %d/%d calls %d/%d words",
					seed, it, g.ReadHookCalls, g.WriteHookCalls, g.ReadAccesses, g.WriteAccesses,
					w.ReadHookCalls, w.WriteHookCalls, w.ReadAccesses, w.WriteAccesses)
			}
			if first == nil {
				first = rep
				continue
			}
			if normStats(rep.Stats) != normStats(first.Stats) {
				t.Fatalf("seed %d iter %d: stats moved across iterations\n got: %+v\nfirst: %+v",
					seed, it, normStats(rep.Stats), normStats(first.Stats))
			}
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
		for _, d := range []Detector{DetectorCompRTS, DetectorSTINT, DetectorSTINTUnbalanced, DetectorSTINTSkiplist} {
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
