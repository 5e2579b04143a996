// Race-set equivalence harness for ParallelDetect over the seven Fig5
// workloads (satellite of the parallel-execution PR). Lives in the
// external test package because equivalence_test.go is an internal test
// and the workloads package imports stint.
//
// The Fig5 kernels are deterministic, race-free real computations —
// exactly what ParallelDetect must be safe on: spawned siblings genuinely
// run concurrently here, so each leg also checks Verify() (the parallel
// schedule computed the right answer) and that no false race appears.
// Race-set equality on genuinely racy programs is covered by the acts
// programs in equivalence_test.go and the fuzz harness, which are
// parallel-safe by construction (every act reads immutable program data).
package stint_test

import (
	"fmt"
	"reflect"
	"testing"

	"stint"
	"stint/workloads"
)

// fig5Small lists the seven workloads at sizes small enough that the full
// shards × encoding grid stays inside a few seconds.
var fig5Small = []struct {
	name string
	f    workloads.Factory
}{
	{"chol", func() workloads.Workload { return workloads.NewChol(48, 8) }},
	{"fft", func() workloads.Workload { return workloads.NewFFT(1024, 64) }},
	{"heat", func() workloads.Workload { return workloads.NewHeat(32, 32, 4, 4) }},
	{"mmul", func() workloads.Workload { return workloads.NewMMul(32, 8) }},
	{"sort", func() workloads.Workload { return workloads.NewSort(4000, 512) }},
	{"stra", func() workloads.Workload { return workloads.NewStrassen(32, 8, false) }},
	{"straz", func() workloads.Workload { return workloads.NewStrassen(32, 8, true) }},
}

// pdNormStats zeroes the Stats fields that legitimately vary across
// execution modes and runs (timings, allocator traffic, pipeline-shape
// counters), mirroring the internal suite's normStats.
func pdNormStats(s stint.Stats) stint.Stats {
	s.AccessHistoryTime = 0
	s.AllocObjects = 0
	s.AllocBytes = 0
	s.PipelineDetectTime = 0
	s.BatchesSkipped = 0
	s.EventsStreamed = 0
	s.StreamBytes = 0
	s.HistoryBytesPeak = 0
	return s
}

// pdRunWorkload executes one fresh workload instance under opts, failing
// the test on a Verify error — under ParallelDetect that means the
// parallel schedule corrupted the computation itself.
func pdRunWorkload(t *testing.T, f workloads.Factory, opts stint.Options) *stint.Report {
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
		t.Fatalf("workload result corrupted: %v", err)
	}
	return rep
}

// TestFig5ParallelDetectEquivalence runs every Fig5 workload under
// ParallelDetect across shards {1, 2, 4} and asserts race-set equality with the synchronous run (trivially, the
// empty set — plus the stronger full-report identity the deterministic
// merge provides), then re-runs one configuration to pin run-to-run
// byte-identical reports.
func TestFig5ParallelDetectEquivalence(t *testing.T) {
	const maxRec = 1 << 16
	for _, tc := range fig5Small {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sync := pdRunWorkload(t, tc.f, stint.Options{
				Detector:         stint.DetectorSTINT,
				MaxRacesRecorded: maxRec,
			})
			if sync.RaceCount != 0 {
				t.Fatalf("sync found %d races in a race-free workload", sync.RaceCount)
			}
			for _, shards := range []int{1, 2, 4} {
				name := fmt.Sprintf("shards=%d", shards)
				rep := pdRunWorkload(t, tc.f, stint.Options{
					Detector:         stint.DetectorSTINT,
					MaxRacesRecorded: maxRec,
					ParallelDetect:   true,
					DetectShards:     shards,
				})
				if rep.RaceCount != sync.RaceCount {
					t.Fatalf("%s: RaceCount %d, sync %d", name, rep.RaceCount, sync.RaceCount)
				}
				if !reflect.DeepEqual(rep.Races, sync.Races) {
					t.Fatalf("%s: race set differs from sync\n got: %v\nsync: %v", name, rep.Races, sync.Races)
				}
				if rep.Strands != sync.Strands {
					t.Fatalf("%s: Strands %d, sync %d", name, rep.Strands, sync.Strands)
				}
				if ns, ng := pdNormStats(sync.Stats), pdNormStats(rep.Stats); ns != ng {
					t.Fatalf("%s: stats differ from sync\n got: %+v\nsync: %+v", name, ng, ns)
				}
			}
			// Run-to-run determinism on the middle configuration.
			a := pdRunWorkload(t, tc.f, stint.Options{
				Detector: stint.DetectorSTINT, MaxRacesRecorded: maxRec,
				ParallelDetect: true, DetectShards: 2,
			})
			b := pdRunWorkload(t, tc.f, stint.Options{
				Detector: stint.DetectorSTINT, MaxRacesRecorded: maxRec,
				ParallelDetect: true, DetectShards: 2,
			})
			if !reflect.DeepEqual(a.Races, b.Races) || a.RaceCount != b.RaceCount || a.Strands != b.Strands {
				t.Fatalf("repeated runs differ: %d/%d races, %d/%d strands", a.RaceCount, b.RaceCount, a.Strands, b.Strands)
			}
			if na, nb := pdNormStats(a.Stats), pdNormStats(b.Stats); na != nb {
				t.Fatalf("repeated runs differ in stats\n  a: %+v\n  b: %+v", na, nb)
			}
		})
	}
}
