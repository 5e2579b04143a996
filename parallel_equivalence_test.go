// Race-set equivalence harness for the pipelined modes — ParallelDetect
// above all — over the seven Fig5 workloads. Lives in the
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
	"testing"

	"stint"
	"stint/workloads"
)

// fig5Small lists the seven workloads at sizes small enough that the full
// mode table stays inside a few seconds.
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

// TestFig5ParallelDetectEquivalence runs every Fig5 workload under every
// pipelined mode of the table and asserts race-set equality with the
// synchronous run (trivially, the empty set — plus the stronger full-report
// identity the serial stream and the deterministic merge provide), then
// re-runs ParallelDetect to pin run-to-run byte-identical reports.
func TestFig5ParallelDetectEquivalence(t *testing.T) {
	base := stint.Options{Detector: stint.DetectorSTINT, MaxRacesRecorded: 1 << 16}
	for _, tc := range fig5Small {
		t.Run(tc.name, func(t *testing.T) {
			sync := pdRunWorkload(t, tc.f, base)
			if sync.RaceCount != 0 {
				t.Fatalf("sync found %d races in a race-free workload", sync.RaceCount)
			}
			var last *stint.Report
			for _, m := range stint.PipeModes {
				last = pdRunWorkload(t, tc.f, m.With(base))
				stint.AssertSameReport(t, m.Name, last, sync)
			}
			// Run-to-run determinism on the last (four-worker parallel) leg.
			m := stint.PipeModes[len(stint.PipeModes)-1]
			stint.AssertSameReport(t, "repeated "+m.Name, pdRunWorkload(t, tc.f, m.With(base)), last)
		})
	}
}

// TestFFTSortedRunsCountAlikeInEveryMode is the finger's leg of the table:
// fft at a size whose shuffle strands lay thousands of address-sorted
// sixteen-byte intervals over several shadow pages, so where each page's
// trees resume a strand's run decides most of TreapNodesVisited. The finger
// is per tree and a page's trees see the same interval sequence in every
// mode, so the count — with the rest of the report — is the synchronous
// run's; arming quiescing on this race-free program changes nothing either.
func TestFFTSortedRunsCountAlikeInEveryMode(t *testing.T) {
	fft := func() workloads.Workload { return workloads.NewFFT(8192, 64) }
	base := stint.Options{Detector: stint.DetectorSTINT, MaxRacesRecorded: 1 << 16}
	sync := pdRunWorkload(t, fft, base)
	if sync.Stats.TreapOps == 0 || sync.Stats.TreapNodesVisited == 0 {
		t.Fatalf("fft reported no treap work: %+v", sync.Stats)
	}
	// Walking every operation from the root costs this run 10.09 nodes per
	// operation; resuming at the finger, 5.47.
	if per := float64(sync.Stats.TreapNodesVisited) / float64(sync.Stats.TreapOps); per > 7.5 {
		t.Errorf("fft visits %.2f nodes per treap operation, want <= 7.5: sorted runs are not resuming at the finger", per)
	}
	quiet := base
	quiet.PageQuiesceThreshold = 4
	stint.AssertSameReport(t, "sync, quiescing armed", pdRunWorkload(t, fft, quiet), sync)
	for _, m := range stint.PipeModes {
		stint.AssertSameReport(t, m.Name, pdRunWorkload(t, fft, m.With(base)), sync)
		stint.AssertSameReport(t, m.Name+", quiescing armed", pdRunWorkload(t, fft, m.With(quiet)), sync)
	}
}

// triples is a racy program of hooks alone over 12-byte elements. The
// buffer is slot-aligned, so element i straddles two bitmap slots when 12i
// mod 256 is 248 or 252 (i mod 64 is 21 or 42): every strand sends most
// of its hooks down the slot arm and some down the general one. Nothing is
// computed, so ParallelDetect runs it safely.
type triples struct{ buf *stint.Buffer }

func (*triples) Name() string            { return "triples" }
func (*triples) Params() string          { return "n=2048 elem=12" }
func (w *triples) Setup(r *stint.Runner) { w.buf = r.Arena().Alloc("triples", 2048, 12) }
func (*triples) Verify() error           { return nil }
func (w *triples) Run(t *stint.Task) {
	for k := 0; k < 4; k++ {
		t.Spawn(func(c *stint.Task) {
			for i := k; i < w.buf.Len(); i += 5 {
				c.Store(w.buf, i)
			}
		})
		for i := k; i < w.buf.Len(); i += 7 {
			t.Load(w.buf, i)
		}
	}
	t.Sync()
}

// TestSlotArmMatchesGenericArm pins the hook dispatch's slot arm (a span
// inside one bitmap slot straight into the strand's BitSet) to the general
// dispatch it bypasses: a Tracer, even one that records nothing the detector
// sees, sends every hook down the general arm, and the report — races,
// strands and every counter — must not notice. Every mode of the table is
// held to the traced synchronous report, and the serial ones are traced too;
// ParallelDetect cannot trace, but each of its strands takes the general arm
// until its first hook borrows a Coalescer. The racy leg arms quiescing, so
// the serial slot arm closes mid-run and hooks go to the dead-page check (a
// drop no report can see; TestCoalescerRegistryDrop pins it); it skips
// ParallelDetect, which has no registry and would run the program's own
// races for real. The triples leg mixes both arms within each strand.
func TestSlotArmMatchesGenericArm(t *testing.T) {
	base := stint.Options{Detector: stint.DetectorSTINT, MaxRacesRecorded: 1 << 16}
	quiet := base
	quiet.PageQuiesceThreshold = 4
	racy := func() workloads.Workload { return workloads.NewRacyMMul(32, 8) }
	run := func(t *testing.T, f workloads.Factory, opts stint.Options, parallel bool) *stint.Report {
		traced := opts
		traced.Tracer = &ctlCounter{}
		generic := runWorkload(t, f, traced)
		if generic.Stats.ReadHookCalls == 0 {
			t.Fatal("workload made no read hooks")
		}
		stint.AssertSameReport(t, "sync", runWorkload(t, f, opts), generic)
		for _, m := range stint.PipeModes {
			if m.Opts.ParallelDetect && !parallel {
				continue
			}
			stint.AssertSameReport(t, m.Name, runWorkload(t, f, m.With(opts)), generic)
			if !m.Opts.ParallelDetect {
				traced.Tracer = &ctlCounter{}
				stint.AssertSameReport(t, m.Name+", traced", runWorkload(t, f, m.With(traced)), generic)
			}
		}
		return generic
	}
	t.Run("racy-mmul+quiesce", func(t *testing.T) {
		if s := run(t, racy, quiet, false).Stats; s.Races == 0 || s.PagesQuiesced == 0 {
			t.Fatalf("racy leg quiesced %d pages with %d races: the dead-page check never ran", s.PagesQuiesced, s.Races)
		}
	})
	t.Run("triples", func(t *testing.T) {
		if s := run(t, func() workloads.Workload { return &triples{} }, base, true).Stats; s.Races == 0 {
			t.Fatal("the triples leg found no race")
		}
	})
	for _, tc := range fig5Small {
		t.Run(tc.name, func(t *testing.T) { run(t, tc.f, base, true) })
	}
}
