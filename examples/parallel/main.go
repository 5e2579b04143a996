// Parallel: the develop-check-deploy workflow.
//
// Options.ParallelDetect runs a Task-based program's spawns on goroutines.
// With a detector it checks the program online (the detector reconstructs
// the serial projection of the fork-join program behind a deterministic
// merge); with DetectorOff the same executor runs bare. This example checks
// a divide-and-conquer reduction under STINT, then deploys it with detection
// off and compares times and results.
//
//	go run ./examples/parallel
package main

import (
	"fmt"
	"log"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"stint"
)

const (
	size  = 1 << 22
	grain = 1 << 14
)

// sumRec reduces data[lo:hi) into out using atomic adds at the leaves.
// The instrumentation reports only the shared-array reads; the atomic
// accumulator is a synchronization device, not program data.
func sumRec(t *stint.Task, data []float64, buf *stint.Buffer, lo, hi int, out *atomic.Uint64) {
	if hi-lo <= grain {
		if t.Detecting() {
			t.LoadRange(buf, lo, hi-lo)
		}
		var s float64
		for _, v := range data[lo:hi] {
			s += v
		}
		addFloat(out, s)
		return
	}
	mid := (lo + hi) / 2
	t.Spawn(func(c *stint.Task) { sumRec(c, data, buf, lo, mid, out) })
	t.Spawn(func(c *stint.Task) { sumRec(c, data, buf, mid, hi, out) })
	t.Sync()
}

// addFloat accumulates a float64 into an atomic bit pattern.
func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		nw := math.Float64frombits(old) + v
		if a.CompareAndSwap(old, math.Float64bits(nw)) {
			return
		}
	}
}

func main() {
	data := make([]float64, size)
	for i := range data {
		data[i] = 1.0 / float64(i+1)
	}

	// Phase 1: certify race-freedom — same executor, detector on.
	rc, err := stint.NewRunner(stint.Options{Detector: stint.DetectorSTINT, ParallelDetect: true})
	if err != nil {
		log.Fatal(err)
	}
	buf := rc.Arena().AllocFloat64("data", size)
	var checkedSum atomic.Uint64
	start := time.Now()
	report, err := rc.Run(func(t *stint.Task) { sumRec(t, data, buf, 0, size, &checkedSum) })
	if err != nil {
		log.Fatal(err)
	}
	checkTime := time.Since(start)
	if report.Racy() {
		log.Fatalf("reduction races: %v", report.Races[0])
	}
	fmt.Printf("parallel + STINT: %v, 0 races across %d strands\n", checkTime.Round(time.Millisecond), report.Strands)

	// Phase 2: run the identical program with the detector off.
	rp, err := stint.NewRunner(stint.Options{ParallelDetect: true})
	if err != nil {
		log.Fatal(err)
	}
	var parallelSum atomic.Uint64
	start = time.Now()
	if _, err := rp.Run(func(t *stint.Task) { sumRec(t, data, buf, 0, size, &parallelSum) }); err != nil {
		log.Fatal(err)
	}
	parallelTime := time.Since(start)
	fmt.Printf("parallel, detector off (%d cores): %v\n", runtime.GOMAXPROCS(0), parallelTime.Round(time.Millisecond))

	a, b := math.Float64frombits(checkedSum.Load()), math.Float64frombits(parallelSum.Load())
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if diff > 1e-6*a {
		log.Fatalf("results diverge: %g vs %g", a, b)
	}
	fmt.Printf("sums agree: %.9f\n", a)
}
