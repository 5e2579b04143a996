package workloads

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"stint"
)

// smallFactories builds reduced-size instances of every benchmark so the
// full detector matrix stays fast in tests.
func smallFactories() map[string]Factory {
	return map[string]Factory{
		"chol":  func() Workload { return NewChol(48, 8) },
		"fft":   func() Workload { return NewFFT(1024, 32) },
		"heat":  func() Workload { return NewHeat(32, 24, 6, 3) },
		"mmul":  func() Workload { return NewMMul(40, 8) },
		"sort":  func() Workload { return NewSort(5000, 32) },
		"stra":  func() Workload { return NewStrassen(64, 16, false) },
		"straz": func() Workload { return NewStrassen(64, 16, true) },
	}
}

// runWorkload executes one instance under one detector and verifies it.
func runWorkload(t *testing.T, f Factory, d stint.Detector) *stint.Report {
	t.Helper()
	_, rep := runWith(t, f, stint.Options{Detector: d})
	return rep
}

// runWith executes one instance under opts, verifies it and returns it.
func runWith(t *testing.T, f Factory, opts stint.Options) (Workload, *stint.Report) {
	t.Helper()
	w := f()
	r, err := stint.NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	w.Setup(r)
	rep, err := r.Run(w.Run)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatalf("%s under %+v: %v", w.Name(), opts, err)
	}
	return w, rep
}

func TestWorkloadsComputeCorrectlyWithoutDetection(t *testing.T) {
	for name, f := range smallFactories() {
		name, f := name, f
		t.Run(name, func(t *testing.T) { runWorkload(t, f, stint.DetectorOff) })
	}
}

func TestWorkloadsAreRaceFreeUnderEveryDetector(t *testing.T) {
	detectors := []stint.Detector{
		stint.DetectorVanilla, stint.DetectorCompiler,
		stint.DetectorCompRTS, stint.DetectorSTINT,
	}
	for name, f := range smallFactories() {
		name, f := name, f
		t.Run(name, func(t *testing.T) {
			for _, d := range detectors {
				rep := runWorkload(t, f, d)
				if rep.Racy() {
					t.Errorf("%s under %v reported %d races (first: %v)", name, d, rep.RaceCount, rep.Races[0])
				}
			}
		})
	}
}

func TestWorkloadsVerifyCatchesCorruption(t *testing.T) {
	// Verify must actually check something: corrupt one output value.
	w := NewMMul(24, 8)
	r, _ := stint.NewRunner(stint.Options{})
	w.Setup(r)
	if _, err := r.Run(w.Run); err != nil {
		t.Fatal(err)
	}
	w.c[5] += 1
	if w.Verify() == nil {
		t.Error("mmul.Verify accepted a corrupted result")
	}

	s := NewSort(100, 8)
	r2, _ := stint.NewRunner(stint.Options{})
	s.Setup(r2)
	if _, err := r2.Run(s.Run); err != nil {
		t.Fatal(err)
	}
	s.data[0], s.data[99] = s.data[99], s.data[0]
	if s.Verify() == nil {
		t.Error("sort.Verify accepted an unsorted result")
	}
}

func TestSTINTFindsInjectedRace(t *testing.T) {
	// Wrap a race-free workload with an extra conflicting access to prove
	// the detector sees through the whole program, not just toy kernels.
	w := NewHeat(24, 24, 2, 3)
	r, err := stint.NewRunner(stint.Options{Detector: stint.DetectorSTINT})
	if err != nil {
		t.Fatal(err)
	}
	w.Setup(r)
	rep, err := r.Run(func(t2 *stint.Task) {
		t2.Spawn(w.Run)
		// Poke the grid while the simulation is logically parallel.
		t2.Store(w.bufCur, 5*24+5)
		t2.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Racy() {
		t.Error("injected conflicting write not detected")
	}
}

func TestByNameRegistry(t *testing.T) {
	for _, name := range Names() {
		f, err := ByName(name, 1)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		w := f()
		if w.Name() != name {
			t.Errorf("ByName(%q) built %q", name, w.Name())
		}
		if w.Params() == "" {
			t.Errorf("%s has empty params", name)
		}
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Error("ByName accepted an unknown benchmark")
	}
}

func TestByNameScaleGrowsWork(t *testing.T) {
	f1, _ := ByName("mmul", 1)
	f2, _ := ByName("mmul", 2)
	if f1().Params() == f2().Params() {
		t.Error("scale did not change mmul size")
	}
}

func TestFreshInstancesAreIndependent(t *testing.T) {
	f := smallFactories()["sort"]
	rep1 := runWorkload(t, f, stint.DetectorSTINT)
	rep2 := runWorkload(t, f, stint.DetectorSTINT)
	if rep1.Stats.ReadAccesses != rep2.Stats.ReadAccesses ||
		rep1.Stats.ReadIntervals != rep2.Stats.ReadIntervals ||
		rep1.Strands != rep2.Strands {
		t.Errorf("two runs of the same instance diverge: %+v vs %+v", rep1.Stats, rep2.Stats)
	}
}

func TestCoalescingReducesIntervalsOnWorkloads(t *testing.T) {
	// The paper's core observation: interval counts are far below access
	// counts for these kernels.
	for name, f := range smallFactories() {
		rep := runWorkload(t, f, stint.DetectorSTINT)
		acc := rep.Stats.ReadAccesses + rep.Stats.WriteAccesses
		ivs := rep.Stats.ReadIntervals + rep.Stats.WriteIntervals
		if ivs == 0 {
			t.Errorf("%s produced no intervals", name)
			continue
		}
		if ivs >= acc {
			t.Errorf("%s: intervals (%d) not below accesses (%d)", name, ivs, acc)
		}
	}
}

func TestMortonLayoutGivesBiggerIntervals(t *testing.T) {
	rowMajor := runWorkload(t, func() Workload { return NewStrassen(64, 16, false) }, stint.DetectorSTINT)
	morton := runWorkload(t, func() Workload { return NewStrassen(64, 16, true) }, stint.DetectorSTINT)
	avg := func(rep *stint.Report) float64 {
		ivs := rep.Stats.ReadIntervals + rep.Stats.WriteIntervals
		bytes := rep.Stats.ReadIntervalBytes + rep.Stats.WriteIntervalBytes
		return float64(bytes) / float64(ivs)
	}
	if avg(morton) <= avg(rowMajor) {
		t.Errorf("Morton layout should produce larger intervals: straz avg %.1f <= stra avg %.1f",
			avg(morton), avg(rowMajor))
	}
}

// TestParallelExecutionMatchesSerial runs every race-free kernel on the
// goroutine executor, where siblings really run at once: bare (DetectorOff)
// it must compute the serial run's result bit for bit (a race-free program
// is determinate), so under -race Go's happens-before detector checks the
// kernels' real memory traffic; detecting, it must report what the serial
// STINT run does — races, strands, and every count that is a function of
// the program.
func TestParallelExecutionMatchesSerial(t *testing.T) {
	for name, f := range smallFactories() {
		t.Run(name, func(t *testing.T) {
			serial, _ := runWith(t, f, stint.Options{})
			bare, _ := runWith(t, f, stint.Options{ParallelDetect: true})
			for k, want := range outputsOf(serial) {
				if i := firstDiff(outputsOf(bare)[k], want); i >= 0 {
					t.Fatalf("parallel and serial results differ: output %d, element %d", k, i)
				}
			}
			sync := runWorkload(t, f, stint.DetectorSTINT)
			_, par := runWith(t, f, stint.Options{Detector: stint.DetectorSTINT, ParallelDetect: true})
			if par.RaceCount != sync.RaceCount || !slices.Equal(par.Races, sync.Races) || par.Strands != sync.Strands {
				t.Errorf("parallel: %d races over %d strands, serial %d over %d", par.RaceCount, par.Strands, sync.RaceCount, sync.Strands)
			}
			if got, want := countsOf(&par.Stats), countsOf(&sync.Stats); got != want {
				t.Errorf("parallel counts %+v, serial %+v", got, want)
			}
		})
	}
}

// outputsOf returns the buffers w's kernel leaves its result in.
func outputsOf(w Workload) [][]float64 {
	switch w := w.(type) {
	case *Chol:
		return [][]float64{w.a}
	case *FFT:
		out := make([]float64, 0, 2*len(w.data))
		for _, v := range w.data {
			out = append(out, real(v), imag(v))
		}
		return [][]float64{out}
	case *Heat:
		return [][]float64{w.cur, w.next}
	case *MMul:
		return [][]float64{w.c}
	case *Sort:
		out := make([]float64, len(w.data))
		for i, v := range w.data {
			out[i] = float64(v)
		}
		return [][]float64{out}
	case *Strassen:
		return [][]float64{w.c}
	}
	panic("workloads: no output known for " + w.Name())
}

// firstDiff returns the first index where a and b differ, comparing
// exactly, or -1.
func firstDiff(a, b []float64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// countsOf picks the Stats that are a function of the program alone.
func countsOf(s *stint.Stats) [12]uint64 {
	return [12]uint64{
		s.ReadAccesses, s.WriteAccesses, s.ReadHookCalls, s.WriteHookCalls,
		s.ReadIntervals, s.WriteIntervals, s.ReadIntervalBytes, s.WriteIntervalBytes,
		s.TreapOps, s.TreapNodesVisited, s.TreapOverlaps, s.Races,
	}
}

// benchPrograms are the benchmark's five programs (sort, fft, mmul,
// serve-small's chol and serve-racy's racy mmul) at test sizes.
var benchPrograms = []struct {
	name string
	f    Factory
	// What recording races may add per run, at the default 64 recorded:
	// the Report's Races holds 64 (32 B). The allowance also keeps, as
	// slack, what the merged Collector grew by per run before it was kept
	// across runs (64 keyed races of 40 B in 7 appends): beside the other
	// packages' tests in `go test ./...` the counts read higher than alone.
	raceObjects, raceBytes float64
}{
	{"sort", func() Workload { return NewSort(10000, 128) }, 0, 0},
	{"fft", func() Workload { return NewFFT(8192, 64) }, 0, 0},
	{"mmul", func() Workload { return NewMMul(64, 8) }, 0, 0},
	{"serve-small", func() Workload { return NewChol(192, 16) }, 0, 0},
	{"serve-racy", func() Workload { return NewRacyMMul(64, 8) }, 8, 127*40 + 64*32},
}

// warmGarbage sets up warm+runs instances of f on one Runner under opts,
// all at the same addresses, runs the first warm of them, and then, after a
// GC, the rest back to back with the collector paused. It returns the heap
// objects and bytes per run those runs allocated and did not keep, and the
// GC cycles that completed while they ran: a cycle in the window (only a
// forced one can complete) empties sync.Pools, whose refills then count as
// garbage. What a run keeps is a pool reaching a new high-water (the batches
// queued at once are a function of the schedule, and their maximum is
// approached slowly): retained, not garbage. It reads runtime.MemStats,
// which flushes every P's allocation cache; Stats.AllocObjects reads
// runtime/metrics, which counts a cached span's objects only when the span
// is refilled, so over one run of a few hundred objects it can be off by a
// span per size class.
func warmGarbage(t *testing.T, f Factory, opts stint.Options) (objects, bytes float64, gcs uint32) {
	t.Helper()
	const warm, runs = 5, 15
	r, err := stint.NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]Workload, warm+runs)
	for i := range ws {
		ws[i] = f()
		r.Arena().Reset()
		ws[i].Setup(r)
	}
	var before, after, kept runtime.MemStats
	gcPercent := 100
	for i, w := range ws {
		if i == warm {
			runtime.GC()
			gcPercent = debug.SetGCPercent(-1)
			runtime.ReadMemStats(&before)
		}
		if _, err := r.Run(w.Run); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	debug.SetGCPercent(gcPercent)
	runtime.GC()
	runtime.ReadMemStats(&kept)
	runtime.KeepAlive(r)
	runtime.KeepAlive(ws)
	objects = float64(after.Mallocs-before.Mallocs) - (float64(kept.HeapObjects) - float64(before.HeapObjects))
	bytes = float64(after.TotalAlloc-before.TotalAlloc) - (float64(kept.HeapAlloc) - float64(before.HeapAlloc))
	return objects / runs, bytes / runs, after.NumGC - before.NumGC
}

// TestParallelDetectAllocatesLikeTheBareExecutor: once warm, ParallelDetect's
// chunk emitters, merge and workers add no garbage per run to what the
// goroutine executor itself leaves (DetectorOff: the program's own closures
// and one goroutine closure per spawn), beyond what every pipelined run
// leaves whatever the program's size: per stage a goroutine closure from
// launch and one from Graph.Go, and the Report's ShardLoad slice — plus,
// when races are recorded, the Report's Races. Objects and bytes per run
// stay within 5 % of the bare executor's plus that remainder. The pair,
// bare and then STINT, is measured up to three times and judged on the
// first attempt in which no GC completed on either side; it fails if none
// is GC-free. Under -race the counts are the race runtime's, and racy mmul
// races for real.
func TestParallelDetectAllocatesLikeTheBareExecutor(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race include the race runtime's")
	}
	const remObjects, remBytes = 8, 1 << 10
	for _, p := range benchPrograms {
		var offObj, offBytes, obj, bytes float64
		var offGC, gcs uint32
		for attempt := 0; attempt < 3; attempt++ {
			offObj, offBytes, offGC = warmGarbage(t, p.f, stint.Options{ParallelDetect: true})
			obj, bytes, gcs = warmGarbage(t, p.f, stint.Options{Detector: stint.DetectorSTINT, ParallelDetect: true})
			t.Logf("%s, attempt %d: %.0f objects, %.0f B, %d GCs per warm run; detection off %.0f, %.0f B, %d GCs",
				p.name, attempt+1, obj, bytes, gcs, offObj, offBytes, offGC)
			if offGC == 0 && gcs == 0 {
				break
			}
		}
		switch {
		case offGC != 0 || gcs != 0:
			t.Errorf("%s: a GC completed during the measured runs of all three attempts", p.name)
		case obj > 1.05*offObj+remObjects+p.raceObjects || bytes > 1.05*offBytes+remBytes+p.raceBytes:
			t.Errorf("%s: ParallelDetect leaves %.0f objects and %.0f B per warm run, detection off %.0f and %.0f B",
				p.name, obj, bytes, offObj, offBytes)
		}
	}
}
