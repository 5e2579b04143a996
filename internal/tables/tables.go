// Package tables regenerates the paper's evaluation tables (Figures 1 and
// 5–8) from live runs of the seven benchmarks under every detector
// configuration, printing measured values next to the numbers the paper
// reports so shape can be compared directly.
//
// Absolute times differ from the paper — the substrate here is a pure-Go
// serial runner on scaled-down inputs, not OpenCilk on a 40-core Xeon —
// but the comparisons the paper draws (which configuration wins per
// benchmark, by roughly what factor, and where the fft anomaly appears)
// are properties of access-pattern structure that survive the translation.
package tables

import (
	"fmt"
	"io"
	"math"
	"time"

	"stint"
	"stint/workloads"
)

// Result is one measured configuration.
type Result struct {
	Workload string
	Params   string
	Mode     stint.Detector
	Wall     time.Duration
	Stats    stint.Stats
	Strands  int
	Races    uint64
}

// Measure runs one fresh instance of f under mode, averaged over reps runs,
// verifying every run's computed result.
func Measure(f workloads.Factory, mode stint.Detector, reps int, timed bool) (*Result, error) {
	if reps < 1 {
		reps = 1
	}
	opts := stint.Options{Detector: mode, TimeAccessHistory: timed, MaxRacesRecorded: 4}
	var agg Result
	for rep := 0; rep < reps; rep++ {
		w := f()
		r, err := stint.NewRunner(opts)
		if err != nil {
			return nil, err
		}
		w.Setup(r)
		report, err := r.Run(w.Run)
		if err != nil {
			return nil, err
		}
		if err := w.Verify(); err != nil {
			return nil, fmt.Errorf("tables: %s under %v computed a wrong result: %w", w.Name(), mode, err)
		}
		if report.Racy() {
			return nil, fmt.Errorf("tables: %s under %v reported %d races on a race-free benchmark", w.Name(), mode, report.RaceCount)
		}
		agg.Workload = w.Name()
		agg.Params = w.Params()
		agg.Mode = mode
		agg.Wall += report.WallTime
		agg.Strands = report.Strands
		agg.Races = report.RaceCount
		if rep == 0 {
			agg.Stats = report.Stats
		}
	}
	agg.Wall /= time.Duration(reps)
	return &agg, nil
}

// Suite drives the figure generators.
type Suite struct {
	Out   io.Writer
	Scale int // problem-size multiplier (1 = default scaled-down inputs)
	Reps  int // timing repetitions per configuration
}

func (s *Suite) reps() int {
	if s.Reps < 1 {
		return 1
	}
	return s.Reps
}

func (s *Suite) scale() int {
	if s.Scale < 1 {
		return 1
	}
	return s.Scale
}

func (s *Suite) printf(format string, args ...any) {
	fmt.Fprintf(s.Out, format, args...)
}

// overhead formats t as a multiple of base.
func overhead(t, base time.Duration) string {
	if base <= 0 {
		return "  n/a"
	}
	return fmt.Sprintf("%7.2fx", float64(t)/float64(base))
}

func secs(d time.Duration) string { return fmt.Sprintf("%8.3fs", d.Seconds()) }

// geomean returns the geometric mean of the ratios.
func geomean(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range ratios {
		sum += math.Log(r)
	}
	return math.Exp(sum / float64(len(ratios)))
}

// millions formats a count in millions with sensible precision.
func millions(v uint64) string {
	m := float64(v) / 1e6
	switch {
	case m >= 100:
		return fmt.Sprintf("%9.0f", m)
	case m >= 1:
		return fmt.Sprintf("%9.1f", m)
	default:
		return fmt.Sprintf("%9.3f", m)
	}
}

// paperFig1 is the paper's Figure 1 overhead column (vanilla full
// detection) for side-by-side printing.
var paperFig1 = map[string]float64{
	"chol": 139.78, "fft": 36.03, "heat": 84.23, "mmul": 44.07,
	"sort": 21.32, "stra": 284.18, "straz": 158.79,
}

// paperFig5 is the paper's Figure 5: overhead per detector version.
var paperFig5 = map[string][4]float64{ // vanilla, compiler, comp+rts, stint
	"chol":  {138.79, 135.85, 43.82, 31.73},
	"fft":   {36.03, 27.21, 22.50, 36.14},
	"heat":  {84.23, 74.78, 33.13, 5.32},
	"mmul":  {44.07, 42.76, 27.16, 27.36},
	"sort":  {21.32, 20.47, 11.98, 4.66},
	"stra":  {284.18, 278.20, 64.63, 25.74},
	"straz": {158.79, 158.68, 65.03, 33.62},
}

// paperFig7 is the paper's Figure 7: access-history update time, hashmap
// (comp+rts) vs treap (STINT), in seconds on the paper's machine.
var paperFig7 = map[string][2]float64{
	"chol": {8.93, 1.41}, "fft": {207.72, 392.50}, "heat": {123.63, 2.43},
	"mmul": {15.94, 17.51}, "sort": {26.36, 1.54}, "stra": {59.60, 1.62},
	"straz": {52.00, 3.50},
}

// Fig1 regenerates Figure 1: vanilla component breakdown plus access and
// interval counts.
func (s *Suite) Fig1() error {
	s.printf("== Figure 1: overheads of a vanilla race detector ==\n")
	s.printf("%-6s %10s %10s %9s %18s %9s | %9s %9s %9s %9s | %s\n",
		"", "base", "reach.", "(oh)", "vanilla full", "(oh)",
		"acc(r)M", "acc(w)M", "int(r)M", "int(w)M", "paper-full-oh")
	for _, name := range workloads.Names() {
		f, err := workloads.ByName(name, s.scale())
		if err != nil {
			return err
		}
		base, err := Measure(f, stint.DetectorOff, s.reps(), false)
		if err != nil {
			return err
		}
		reach, err := Measure(f, stint.DetectorReachOnly, s.reps(), false)
		if err != nil {
			return err
		}
		van, err := Measure(f, stint.DetectorVanilla, s.reps(), false)
		if err != nil {
			return err
		}
		// Interval counts come from a runtime-coalescing run.
		st, err := Measure(f, stint.DetectorSTINT, 1, false)
		if err != nil {
			return err
		}
		s.printf("%-6s %s %s %s %s %s  | %s %s %s %s | %8.2fx\n",
			name, secs(base.Wall), secs(reach.Wall), overhead(reach.Wall, base.Wall),
			secs(van.Wall), overhead(van.Wall, base.Wall),
			millions(van.Stats.ReadAccesses), millions(van.Stats.WriteAccesses),
			millions(st.Stats.ReadIntervals), millions(st.Stats.WriteIntervals),
			paperFig1[name])
	}
	return nil
}

// Fig5 regenerates Figure 5: execution time and overhead of the four
// detector versions, with per-benchmark paper overheads and geomeans.
func (s *Suite) Fig5() error {
	modes := []stint.Detector{
		stint.DetectorVanilla, stint.DetectorCompiler,
		stint.DetectorCompRTS, stint.DetectorSTINT,
	}
	s.printf("== Figure 5: overheads of the four detector versions ==\n")
	s.printf("%-6s %10s |", "", "base")
	for _, m := range modes {
		s.printf(" %10s %9s %8s |", m, "(oh)", "paper")
	}
	s.printf("\n")
	ratios := make([][]float64, len(modes))
	for _, name := range workloads.Names() {
		f, err := workloads.ByName(name, s.scale())
		if err != nil {
			return err
		}
		base, err := Measure(f, stint.DetectorOff, s.reps(), false)
		if err != nil {
			return err
		}
		s.printf("%-6s %s |", name, secs(base.Wall))
		for i, m := range modes {
			res, err := Measure(f, m, s.reps(), false)
			if err != nil {
				return err
			}
			oh := float64(res.Wall) / float64(base.Wall)
			ratios[i] = append(ratios[i], oh)
			s.printf(" %s %s %7.2fx |", secs(res.Wall), overhead(res.Wall, base.Wall), paperFig5[name][i])
		}
		s.printf("\n")
	}
	s.printf("%-6s %10s |", "geomean", "")
	paperGeo := []float64{78.13, 0, 0, 18.61}
	for i := range modes {
		paper := "     -  "
		if paperGeo[i] != 0 {
			paper = fmt.Sprintf("%7.2fx", paperGeo[i])
		}
		s.printf(" %10s %8.2fx %8s |", "", geomean(ratios[i]), paper)
	}
	s.printf("\n(paper geomeans: vanilla 78.13x, STINT 18.61x — a ~4x gap)\n")
	return nil
}

// Fig6 regenerates Figure 6: memory-access statistics under vanilla,
// compile-time coalescing, and full coalescing.
func (s *Suite) Fig6() error {
	s.printf("== Figure 6: accesses and intervals by coalescing level ==\n")
	s.printf("%-6s | %9s %9s | %9s %9s | %9s %9s | %7s %7s | %9s %9s\n",
		"", "acc(r)M", "acc(w)M", "cmpl int(r)M", "int(w)M", "both int(r)M", "int(w)M",
		"avg(r)B", "avg(w)B", "sum(r)MB", "sum(w)MB")
	for _, name := range workloads.Names() {
		f, err := workloads.ByName(name, s.scale())
		if err != nil {
			return err
		}
		van, err := Measure(f, stint.DetectorVanilla, 1, false)
		if err != nil {
			return err
		}
		cmp, err := Measure(f, stint.DetectorCompiler, 1, false)
		if err != nil {
			return err
		}
		both, err := Measure(f, stint.DetectorSTINT, 1, false)
		if err != nil {
			return err
		}
		avg := func(bytes, n uint64) float64 {
			if n == 0 {
				return 0
			}
			return float64(bytes) / float64(n)
		}
		s.printf("%-6s | %s %s | %s %s | %s %s | %7.1f %7.1f | %9.1f %9.1f\n",
			name,
			millions(van.Stats.ReadAccesses), millions(van.Stats.WriteAccesses),
			millions(cmp.Stats.ReadHookCalls), millions(cmp.Stats.WriteHookCalls),
			millions(both.Stats.ReadIntervals), millions(both.Stats.WriteIntervals),
			avg(both.Stats.ReadIntervalBytes, both.Stats.ReadIntervals),
			avg(both.Stats.WriteIntervalBytes, both.Stats.WriteIntervals),
			float64(both.Stats.ReadIntervalBytes)/1e6,
			float64(both.Stats.WriteIntervalBytes)/1e6)
	}
	return nil
}

// Fig7 regenerates Figure 7: time spent updating the access history,
// hashmap (comp+rts) vs treap (STINT).
func (s *Suite) Fig7() error {
	s.printf("== Figure 7: access-history update time, hashmap vs treap ==\n")
	s.printf("%-6s %12s %12s %10s | paper: hash, treap (s)\n", "", "hashmap", "treap", "ratio")
	for _, name := range workloads.Names() {
		f, err := workloads.ByName(name, s.scale())
		if err != nil {
			return err
		}
		hash, err := Measure(f, stint.DetectorCompRTS, s.reps(), true)
		if err != nil {
			return err
		}
		treap, err := Measure(f, stint.DetectorSTINT, s.reps(), true)
		if err != nil {
			return err
		}
		ratio := float64(hash.Stats.AccessHistoryTime) / float64(treap.Stats.AccessHistoryTime)
		s.printf("%-6s %12v %12v %9.2fx | %8.2f, %.2f\n",
			name, hash.Stats.AccessHistoryTime.Round(time.Microsecond),
			treap.Stats.AccessHistoryTime.Round(time.Microsecond), ratio,
			paperFig7[name][0], paperFig7[name][1])
	}
	return nil
}

// fig8Sizes are the three input sizes per benchmark in Figure 8, scaled to
// this substrate.
func fig8Sizes(scale int) map[string][]workloads.Factory {
	p2 := 1
	for s := scale; s > 1; s >>= 1 {
		p2 <<= 1
	}
	return map[string][]workloads.Factory{
		"fft": {
			func() workloads.Workload { return workloads.NewFFT(8192*p2, 64) },
			func() workloads.Workload { return workloads.NewFFT(16384*p2, 64) },
			func() workloads.Workload { return workloads.NewFFT(32768*p2, 64) },
		},
		"mmul": {
			func() workloads.Workload { return workloads.NewMMul(64*scale, 16) },
			func() workloads.Workload { return workloads.NewMMul(96*scale, 16) },
			func() workloads.Workload { return workloads.NewMMul(128*scale, 16) },
		},
		"sort": {
			func() workloads.Workload { return workloads.NewSort(50000*scale, 512) },
			func() workloads.Workload { return workloads.NewSort(100000*scale, 512) },
			func() workloads.Workload { return workloads.NewSort(200000*scale, 512) },
		},
	}
}

// Fig8 regenerates Figure 8: input-size scaling for fft, mmul, and sort
// with access-history time, operation counts, and treap traversal detail.
func (s *Suite) Fig8() error {
	s.printf("== Figure 8: scaling of comp+rts vs STINT with input size ==\n")
	s.printf("%-6s %-22s %10s %12s %7s %12s %7s | %10s %10s %10s %10s %8s %9s\n",
		"", "input", "base", "comp+rts", "(oh)", "STINT", "(oh)",
		"hash oh", "treap oh", "hash ops", "treap ops", "#nodes", "#overlaps")
	sizes := fig8Sizes(s.scale())
	for _, name := range []string{"fft", "mmul", "sort"} {
		for _, f := range sizes[name] {
			base, err := Measure(f, stint.DetectorOff, s.reps(), false)
			if err != nil {
				return err
			}
			hash, err := Measure(f, stint.DetectorCompRTS, s.reps(), true)
			if err != nil {
				return err
			}
			treap, err := Measure(f, stint.DetectorSTINT, s.reps(), true)
			if err != nil {
				return err
			}
			nodesPerOp, overlapsPerOp := 0.0, 0.0
			if treap.Stats.TreapOps > 0 {
				nodesPerOp = float64(treap.Stats.TreapNodesVisited) / float64(treap.Stats.TreapOps)
				overlapsPerOp = float64(treap.Stats.TreapOverlaps) / float64(treap.Stats.TreapOps)
			}
			s.printf("%-6s %-22s %10v %12v %s %12v %s | %10v %10v %10.2e %10.2e %8.2f %9.2f\n",
				name, treap.Params,
				base.Wall.Round(time.Millisecond),
				hash.Wall.Round(time.Millisecond), overhead(hash.Wall, base.Wall),
				treap.Wall.Round(time.Millisecond), overhead(treap.Wall, base.Wall),
				hash.Stats.AccessHistoryTime.Round(time.Microsecond),
				treap.Stats.AccessHistoryTime.Round(time.Microsecond),
				float64(hash.Stats.HashOps), float64(treap.Stats.TreapOps),
				nodesPerOp, overlapsPerOp)
		}
	}
	return nil
}

// All regenerates every table in order.
func (s *Suite) All() error {
	for _, f := range []func() error{s.Fig1, s.Fig5, s.Fig6, s.Fig7, s.Fig8} {
		if err := f(); err != nil {
			return err
		}
		s.printf("\n")
	}
	return nil
}
