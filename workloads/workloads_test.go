package workloads

import (
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
	w := f()
	r, err := stint.NewRunner(stint.Options{Detector: d})
	if err != nil {
		t.Fatal(err)
	}
	w.Setup(r)
	rep, err := r.Run(w.Run)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatalf("%s under %v: %v", w.Name(), d, err)
	}
	return rep
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

func TestParallelExecutionMatchesSerial(t *testing.T) {
	// The goroutine executor must compute the same results (DetectorOff).
	serial := NewMMul(40, 8)
	rs, _ := stint.NewRunner(stint.Options{})
	serial.Setup(rs)
	if _, err := rs.Run(serial.Run); err != nil {
		t.Fatal(err)
	}
	par := NewMMul(40, 8)
	rp, _ := stint.NewRunner(stint.Options{ParallelDetect: true})
	par.Setup(rp)
	if _, err := rp.Run(par.Run); err != nil {
		t.Fatal(err)
	}
	for i := range serial.c {
		if serial.c[i] != par.c[i] {
			t.Fatalf("parallel and serial results differ at %d: %g vs %g", i, par.c[i], serial.c[i])
		}
	}
	if err := par.Verify(); err != nil {
		t.Fatal(err)
	}
}
