// Benchmarks regenerating the paper's evaluation, one benchmark family per
// table/figure. Workload sizes here are reduced from the cmd/stint-tables
// defaults so the full -bench=. sweep completes in minutes; use
// cmd/stint-tables for the table-formatted output and EXPERIMENTS.md for
// the recorded paper-vs-measured comparison.
package stint_test

import (
	"fmt"
	"runtime/metrics"
	"testing"

	"stint"
	"stint/internal/cliutil"
	"stint/internal/mem"
	"stint/workloads"
)

// benchFactories are mid-size instances of every paper benchmark.
var benchFactories = []struct {
	name string
	f    workloads.Factory
}{
	{"chol", func() workloads.Workload { return workloads.NewChol(96, 16) }},
	{"fft", func() workloads.Workload { return workloads.NewFFT(4096, 64) }},
	{"heat", func() workloads.Workload { return workloads.NewHeat(64, 64, 8, 4) }},
	{"mmul", func() workloads.Workload { return workloads.NewMMul(64, 16) }},
	{"sort", func() workloads.Workload { return workloads.NewSort(30000, 512) }},
	{"stra", func() workloads.Workload { return workloads.NewStrassen(64, 16, false) }},
	{"straz", func() workloads.Workload { return workloads.NewStrassen(64, 16, true) }},
}

// benchEach runs fn as one sub-benchmark per benchFactories workload and
// detector.
func benchEach(b *testing.B, modes []stint.Detector, fn func(b *testing.B, f workloads.Factory, mode stint.Detector)) {
	for _, wl := range benchFactories {
		for _, mode := range modes {
			b.Run(fmt.Sprintf("%s/%v", wl.name, mode), func(b *testing.B) { fn(b, wl.f, mode) })
		}
	}
}

// runDetection executes fresh instances under one detector, timing only the
// instrumented run (setup and verification are excluded).
func runDetection(b *testing.B, f workloads.Factory, mode stint.Detector, timeAH bool) *stint.Report {
	b.Helper()
	return runBench(b, f, stint.Options{Detector: mode, TimeAccessHistory: timeAH}, false)
}

// runBench is runDetection with full Options control, for a workload that
// races (racy) or not. One Runner serves every iteration: the arena rewinds
// and the Runner resets between runs, so each fresh workload instance
// re-derives identical buffer addresses over the warm pools instead of
// paying allocate-per-iteration. Reset happens with the timer stopped — the
// timed region is exactly the instrumented run. It reports gc/op, the GC
// cycles that completed during the timed runs, next to -benchmem's columns.
func runBench(b *testing.B, f workloads.Factory, opts stint.Options, racy bool) *stint.Report {
	b.Helper()
	mode := opts.Detector
	r, err := stint.NewRunner(opts)
	if err != nil {
		b.Fatal(err)
	}
	var last *stint.Report
	var gcs uint64
	cycles := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := f()
		r.Reset()
		r.Arena().Reset()
		w.Setup(r)
		metrics.Read(cycles)
		gcs -= cycles[0].Value.Uint64()
		b.StartTimer()
		rep, err := r.Run(w.Run)
		b.StopTimer()
		metrics.Read(cycles)
		gcs += cycles[0].Value.Uint64()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Racy() != racy {
			b.Fatalf("%s under %v reported %d races", w.Name(), mode, rep.RaceCount)
		}
		if err := w.Verify(); err != nil {
			b.Fatal(err)
		}
		last = rep
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(gcs)/float64(b.N), "gc/op")
	return last
}

// BenchmarkFig1 measures the vanilla detector's component breakdown:
// baseline execution, reachability maintenance only, and full detection.
func BenchmarkFig1(b *testing.B) {
	benchEach(b, []stint.Detector{stint.DetectorOff, stint.DetectorReachOnly, stint.DetectorVanilla}, func(b *testing.B, f workloads.Factory, mode stint.Detector) {
		rep := runDetection(b, f, mode, false)
		if mode == stint.DetectorVanilla {
			b.ReportMetric(float64(rep.Stats.ReadAccesses), "reads")
			b.ReportMetric(float64(rep.Stats.WriteAccesses), "writes")
		}
	})
}

// BenchmarkFig5 measures the four detector versions of the paper's main
// result table.
func BenchmarkFig5(b *testing.B) {
	benchEach(b, []stint.Detector{
		stint.DetectorVanilla, stint.DetectorCompiler,
		stint.DetectorCompRTS, stint.DetectorSTINT,
	}, func(b *testing.B, f workloads.Factory, mode stint.Detector) {
		runDetection(b, f, mode, false)
	})
}

// BenchmarkFig5Async repeats the Figure 5 measurement for the two runtime
// detectors with Options.Async on, pipelining detection behind the batched
// event stream. Each run also reports bytes-per-event — the compact wire
// footprint of the stream — and detect-busy-ms — the detector
// goroutine's processing time — because the headline ns/op only shows the
// overlap win when GOMAXPROCS >= 2: on a single core the producer and the
// detector timeshare, so wall clock is the sum of the two sides plus the
// stream transport, not their max. Compare against the matching
// BenchmarkFig5 cases for the sync baseline.
func BenchmarkFig5Async(b *testing.B) {
	benchEach(b, []stint.Detector{stint.DetectorCompRTS, stint.DetectorSTINT}, func(b *testing.B, f workloads.Factory, mode stint.Detector) {
		rep := runBench(b, f, stint.Options{Detector: mode, Async: true}, false)
		b.ReportMetric(float64(rep.Stats.PipelineDetectTime.Nanoseconds())/1e6, "detect-busy-ms")
		if n := rep.Stats.EventsStreamed; n > 0 {
			b.ReportMetric(float64(rep.Stats.StreamBytes)/float64(n), "bytes-per-event")
		}
	})
}

// BenchmarkFig5Sharded repeats the Figure 5 measurement with detection
// partitioned across 4 page-sharded workers (Options.DetectShards). Beyond
// the headline ns/op it reports the utilization split: detect-busy-ms sums
// the workers and max-shard-ms is the busiest worker — the sharded
// pipeline's multi-core critical path. On a single core the workers timeshare, so
// compare max-shard-ms against BenchmarkFig5Async's detect-busy-ms for the
// parallelism headroom rather than expecting a wall-clock win.
func BenchmarkFig5Sharded(b *testing.B) {
	benchEach(b, []stint.Detector{stint.DetectorCompRTS, stint.DetectorSTINT}, func(b *testing.B, f workloads.Factory, mode stint.Detector) {
		rep := runBench(b, f, stint.Options{Detector: mode, Async: true, DetectShards: 4}, false)
		b.ReportMetric(float64(rep.Stats.PipelineDetectTime.Nanoseconds())/1e6, "detect-busy-ms")
		if n := rep.Stats.EventsStreamed; n > 0 {
			b.ReportMetric(float64(rep.Stats.StreamBytes)/float64(n), "bytes-per-event")
		}
		_, max, _ := cliutil.StageBusy(rep)
		b.ReportMetric(float64(max.Nanoseconds())/1e6, "max-shard-ms")
	})
}

// BenchmarkFig5ParallelDetect repeats the Figure 5 measurement with the
// program itself executing in parallel (Options.ParallelDetect) over 4
// detection shards. exec-busy-ms sums the task goroutines' execution-and-
// encoding time — divide by the core count for the executor side's
// multi-core floor — while merge-busy-ms is the deterministic merge's
// serial reordering-and-coalescing time and max-shard-ms the busiest
// detection worker; the pipeline's critical path is the max of the three.
// On a single core everything timeshares, so read the busy split for
// headroom rather than expecting a wall-clock win over BenchmarkFig5.
// gc/op (runBench) is the GC cycles a run's own garbage triggers; with
// -benchmem, B/op and allocs/op are the executor's goroutine closures and
// the program's.
func BenchmarkFig5ParallelDetect(b *testing.B) {
	benchEach(b, []stint.Detector{stint.DetectorCompRTS, stint.DetectorSTINT}, func(b *testing.B, f workloads.Factory, mode stint.Detector) {
		rep := runBench(b, f, stint.Options{Detector: mode, ParallelDetect: true, DetectShards: 4}, false)
		b.ReportMetric(float64(rep.Stats.PipelineDetectTime.Nanoseconds())/1e6, "detect-busy-ms")
		b.ReportMetric(float64(rep.ExecutorBusy.Nanoseconds())/1e6, "exec-busy-ms")
		b.ReportMetric(float64(rep.SequencerBusy.Nanoseconds())/1e6, "merge-busy-ms")
		_, max, _ := cliutil.StageBusy(rep)
		b.ReportMetric(float64(max.Nanoseconds())/1e6, "max-shard-ms")
	})
}

// BenchmarkFig5RacyQuiesce measures per-page quiescing on the racy
// workload variants, where it earns its keep: a hot racy page keeps
// producing the same races, and once PageQuiesceThreshold of them are
// recorded the page's history is retired — subsequent accesses to it still
// set their strand's bits, and the History drops their intervals at a page
// lookup without checking them. The quiesce-off/quiesce-on pair reports
// hist-bytes-peak (the live access-history footprint quiescing shrinks),
// pages-quiesced, and the race count that survives the threshold; the
// quiesce-on-async leg is the same run through the Async pipeline, where
// the worker's History makes the same drops. The
// race-free Figure 5 workloads are deliberately absent: quiescing never
// triggers there, and TestQuiesceRaceFreeZeroDelta pins the zero-delta.
func BenchmarkFig5RacyQuiesce(b *testing.B) {
	wls := []struct {
		name string
		f    workloads.Factory
	}{
		{"mmul-racy", func() workloads.Workload { return workloads.NewRacyMMul(64, 16) }},
		{"heat-racy", func() workloads.Workload { return workloads.NewRacyHeat(64, 64, 8, 4) }},
		{"sort-racy", func() workloads.Workload { return workloads.NewRacySort(30000, 512) }},
	}
	for _, wl := range wls {
		for _, q := range []struct {
			name      string
			threshold int
			async     bool
		}{{"quiesce-off", 0, false}, {"quiesce-on", 4, false}, {"quiesce-on-async", 4, true}} {
			b.Run(fmt.Sprintf("%s/%s", wl.name, q.name), func(b *testing.B) {
				opts := stint.Options{Detector: stint.DetectorSTINT, PageQuiesceThreshold: q.threshold, Async: q.async}
				last := runBench(b, wl.f, opts, true)
				b.ReportMetric(float64(last.Stats.HistoryBytesPeak), "hist-bytes-peak")
				b.ReportMetric(float64(last.Stats.PagesQuiesced), "pages-quiesced")
				b.ReportMetric(float64(last.RaceCount), "races")
			})
		}
	}
}

// BenchmarkFig6 reports the access and interval statistics behind Figure 6
// as benchmark metrics (counts, not timings).
func BenchmarkFig6(b *testing.B) {
	for _, wl := range benchFactories {
		b.Run(wl.name, func(b *testing.B) {
			rep := runDetection(b, wl.f, stint.DetectorSTINT, false)
			st := rep.Stats
			b.ReportMetric(float64(st.ReadAccesses+st.WriteAccesses), "accesses")
			b.ReportMetric(float64(st.ReadIntervals+st.WriteIntervals), "intervals")
			if ivs := st.ReadIntervals + st.WriteIntervals; ivs > 0 {
				b.ReportMetric(float64(st.ReadIntervalBytes+st.WriteIntervalBytes)/float64(ivs), "B/interval")
			}
		})
	}
}

// BenchmarkFig7 measures access-history update time: the comp+rts hashmap
// vs the STINT treap, reported as ah-ns/op alongside total time.
func BenchmarkFig7(b *testing.B) {
	benchEach(b, []stint.Detector{stint.DetectorCompRTS, stint.DetectorSTINT}, func(b *testing.B, f workloads.Factory, mode stint.Detector) {
		rep := runDetection(b, f, mode, true)
		b.ReportMetric(float64(rep.Stats.AccessHistoryTime.Nanoseconds()), "ah-ns")
	})
}

// BenchmarkFig8 sweeps input sizes for fft, mmul, and sort under comp+rts
// and STINT, reporting the treap traversal detail of the paper's Figure 8.
func BenchmarkFig8(b *testing.B) {
	sweeps := []struct {
		name string
		fs   []workloads.Factory
	}{
		{"fft", []workloads.Factory{
			func() workloads.Workload { return workloads.NewFFT(2048, 64) },
			func() workloads.Workload { return workloads.NewFFT(4096, 64) },
			func() workloads.Workload { return workloads.NewFFT(8192, 64) },
		}},
		{"mmul", []workloads.Factory{
			func() workloads.Workload { return workloads.NewMMul(48, 16) },
			func() workloads.Workload { return workloads.NewMMul(64, 16) },
			func() workloads.Workload { return workloads.NewMMul(96, 16) },
		}},
		{"sort", []workloads.Factory{
			func() workloads.Workload { return workloads.NewSort(15000, 512) },
			func() workloads.Workload { return workloads.NewSort(30000, 512) },
			func() workloads.Workload { return workloads.NewSort(60000, 512) },
		}},
	}
	for _, sweep := range sweeps {
		for i, f := range sweep.fs {
			for _, mode := range []stint.Detector{stint.DetectorCompRTS, stint.DetectorSTINT} {
				b.Run(fmt.Sprintf("%s/size%d/%v", sweep.name, i, mode), func(b *testing.B) {
					rep := runDetection(b, f, mode, true)
					st := rep.Stats
					b.ReportMetric(float64(st.AccessHistoryTime.Nanoseconds()), "ah-ns")
					if mode == stint.DetectorSTINT && st.TreapOps > 0 {
						b.ReportMetric(float64(st.TreapOps), "treap-ops")
						b.ReportMetric(float64(st.TreapNodesVisited)/float64(st.TreapOps), "nodes/treap-op")
						b.ReportMetric(float64(st.TreapOverlaps)/float64(st.TreapOps), "overlaps/treap-op")
					}
					if mode == stint.DetectorCompRTS {
						b.ReportMetric(float64(st.HashOps), "hash-ops")
					}
				})
			}
		}
	}
}

// BenchmarkHookOverhead isolates the per-access instrumentation cost that
// every detector configuration pays: a word hook into the bit hashmap. The
// Async, Parallel and Vanilla legs below time the same loop through every
// other route a hook takes; only Vanilla's is a different arm.
func BenchmarkHookOverhead(b *testing.B) {
	benchHookOverhead(b, stint.Options{Detector: stint.DetectorSTINT})
}

// BenchmarkHookOverheadAsync is the same hook loop with Options.Async: the
// hook sets the same bit, in the producer's own bit hashmap, and only the
// strand-end flush crosses to the worker. The sync/async pair should sit within
// a few ns of each other; a gap is per-access work leaking back onto the
// pipeline's mutator side.
func BenchmarkHookOverheadAsync(b *testing.B) {
	benchHookOverhead(b, stint.Options{Detector: stint.DetectorSTINT, Async: true})
}

// BenchmarkHookOverheadParallel is the loop under ParallelDetect: the root
// strand borrows a Coalescer from the executor's pool at its first access and
// every later hook reaches the same Coalescer code as sync and Async.
func BenchmarkHookOverheadParallel(b *testing.B) {
	benchHookOverhead(b, stint.Options{Detector: stint.DetectorSTINT, ParallelDetect: true})
}

// BenchmarkHookOverheadVanilla is the per-access arm: each hook goes through
// the detect.Engine interface to Vanilla's word-granularity shadow hashmap,
// which checks and records the word on the spot.
func BenchmarkHookOverheadVanilla(b *testing.B) {
	benchHookOverhead(b, stint.Options{Detector: stint.DetectorVanilla})
}

// hookRoutes are the four routes a hook takes, for the sub-benchmarks below.
var hookRoutes = []struct {
	name string
	opts stint.Options
}{
	{"sync", stint.Options{Detector: stint.DetectorSTINT}},
	{"async", stint.Options{Detector: stint.DetectorSTINT, Async: true}},
	{"parallel", stint.Options{Detector: stint.DetectorSTINT, ParallelDetect: true}},
	{"vanilla", stint.Options{Detector: stint.DetectorVanilla}},
}

// BenchmarkHookOverheadStrided is BenchmarkHookOverhead's loop with each
// load 64 words past the last, so every hook lands in another 64-bit slot of
// the bit hashmap — the data is 256 B on, but the slot is the adjacent 8-byte
// word of the page's bitmap — the shape of mmul's column-strided B, whose
// first pass through each slot opens it. It is the canary for a hook path
// that pays an extra call whenever the slot changes.
func BenchmarkHookOverheadStrided(b *testing.B) {
	for _, leg := range hookRoutes {
		b.Run(leg.name, func(b *testing.B) { benchHookLoop(b, leg.opts, 64, mem.WordSize) })
	}
}

// BenchmarkHookOverheadElem is BenchmarkHookOverhead's loop over 4-, 8- and
// 16-byte elements (a float32, a float64, a complex128) on every route. Each
// element lies inside one bitmap slot, so every coalescing route takes the
// slot arm at each size; Vanilla, the Engine arm, checks every word.
func BenchmarkHookOverheadElem(b *testing.B) {
	for _, elem := range []int{4, 8, 16} {
		for _, leg := range hookRoutes {
			b.Run(fmt.Sprintf("%dB/%s", elem, leg.name), func(b *testing.B) { benchHookLoop(b, leg.opts, 1, elem) })
		}
	}
}

// BenchmarkRunnerReset times Runner.Reset on a dirty, warm Runner — the
// per-trace lifecycle cost a reused Runner pays between runs. The run that
// dirties the Runner happens with the timer stopped; only the reset walk
// is measured, and the headline property is allocs/op == 0: resetting
// rewinds retained slabs and pools without touching the heap.
func BenchmarkRunnerReset(b *testing.B) {
	r, err := stint.NewRunner(stint.Options{Detector: stint.DetectorSTINT})
	if err != nil {
		b.Fatal(err)
	}
	buf := r.Arena().AllocWords("data", 1<<12)
	prog := func(t *stint.Task) {
		t.Spawn(func(c *stint.Task) {
			c.StoreRange(buf, 0, 1<<11)
			c.LoadRange(buf, 0, 1<<12)
		})
		t.StoreRange(buf, 1<<11, 1<<11)
		t.Sync()
	}
	if _, err := r.Run(prog); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := r.Run(prog); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		r.Reset()
	}
}

func benchHookOverhead(b *testing.B, opts stint.Options) { benchHookLoop(b, opts, 1, mem.WordSize) }

// benchHookLoop times b.N element loads, stride elements apart, wrapping
// around a 64 K-element buffer of elemBytes-byte elements.
func benchHookLoop(b *testing.B, opts stint.Options, stride, elemBytes int) {
	r, err := stint.NewRunner(opts)
	if err != nil {
		b.Fatal(err)
	}
	buf := r.Arena().Alloc("data", 1<<16, elemBytes)
	if _, err := r.Run(func(t *stint.Task) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Load(buf, (i*stride)&(1<<16-1))
		}
		// Timer left running: Run's return flushes the strand and drains the
		// pipeline, so the pipelined variants pay for detecting what they
		// streamed.
	}); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
}
