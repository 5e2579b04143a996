// The harness's external legs (the workloads and trace packages import
// stint): the Fig5 workloads as a second program source, and the trace leg.
package stint_test

import (
	"bytes"
	"errors"
	"testing"

	"stint"
	"stint/trace"
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

// runVerified runs a fresh instance of f on r, its Arena reset so a reused
// Runner lays buffers out as a fresh one does, and requires a correct
// result: under ParallelDetect siblings really run concurrently.
func runVerified(t *testing.T, r *stint.Runner, f workloads.Factory) *stint.Report {
	t.Helper()
	w := f()
	r.Arena().Reset()
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

func newRunner(t *testing.T, opts stint.Options) *stint.Runner {
	t.Helper()
	r, err := stint.NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFig5ParallelDetectEquivalence: every mode, fresh and on a Runner
// reused across the workloads, reports what sync does.
func TestFig5ParallelDetectEquivalence(t *testing.T) {
	base := stint.Options{Detector: stint.DetectorSTINT, MaxRacesRecorded: 1 << 16}
	reused := map[string]*stint.Runner{}
	for _, m := range stint.PipeModes {
		reused[m.Name] = newRunner(t, m.With(base))
	}
	for _, tc := range fig5Small {
		t.Run(tc.name, func(t *testing.T) {
			sync := runVerified(t, newRunner(t, base), tc.f)
			if sync.RaceCount != 0 {
				t.Fatalf("sync found %d races in a race-free workload", sync.RaceCount)
			}
			for _, m := range stint.PipeModes {
				stint.AssertSameReport(t, m.Name, runVerified(t, newRunner(t, m.With(base)), tc.f), sync)
				stint.AssertSameReport(t, m.Name+" reused", runVerified(t, reused[m.Name], tc.f), sync)
			}
		})
	}
}

// TestFFTSortedRunsCountAlikeInEveryMode pins the finger's count: fft's
// sorted runs over several pages cost ≤ 7.5 nodes per treap operation, the
// same in every mode, quiescing armed or not.
func TestFFTSortedRunsCountAlikeInEveryMode(t *testing.T) {
	fft := func() workloads.Workload { return workloads.NewFFT(8192, 64) }
	base := stint.Options{Detector: stint.DetectorSTINT, MaxRacesRecorded: 1 << 16}
	sync := runVerified(t, newRunner(t, base), fft)
	if per := float64(sync.Stats.TreapNodesVisited) / float64(max(sync.Stats.TreapOps, 1)); sync.Stats.TreapOps == 0 || per > 7.5 {
		t.Fatalf("fft visits %.2f nodes per treap operation, want <= 7.5: sorted runs are not resuming at the finger", per)
	}
	quiet := base
	quiet.PageQuiesceThreshold = 4
	stint.AssertSameReport(t, "sync, quiescing armed", runVerified(t, newRunner(t, quiet), fft), sync)
	for _, m := range stint.PipeModes {
		stint.AssertSameReport(t, m.Name, runVerified(t, newRunner(t, m.With(base)), fft), sync)
		stint.AssertSameReport(t, m.Name+", quiescing armed", runVerified(t, newRunner(t, m.With(quiet)), fft), sync)
	}
}

// triples is a racy program of hooks over 12-byte elements: element i
// straddles two bitmap slots when i mod 64 is 21 or 42, so every strand
// takes both hook arms.
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

// TestSlotArmMatchesGenericArm: a Tracer sends every hook down the general
// arm, and every mode, traced where it can be, reports what the traced sync
// run does. The racy leg arms quiescing, which closes the serial slot arm
// mid-run; it skips ParallelDetect, which would run the races for real.
func TestSlotArmMatchesGenericArm(t *testing.T) {
	base := stint.Options{Detector: stint.DetectorSTINT, MaxRacesRecorded: 1 << 16}
	quiet := base
	quiet.PageQuiesceThreshold = 4
	run := func(t *testing.T, f workloads.Factory, opts stint.Options, parallel bool) *stint.Report {
		traced := opts
		traced.Tracer = &ctlCounter{}
		generic := runVerified(t, newRunner(t, traced), f)
		if generic.Stats.ReadHookCalls == 0 {
			t.Fatal("workload made no read hooks")
		}
		stint.AssertSameReport(t, "sync", runVerified(t, newRunner(t, opts), f), generic)
		for _, m := range stint.PipeModes {
			if m.Opts.ParallelDetect && !parallel {
				continue
			}
			stint.AssertSameReport(t, m.Name, runVerified(t, newRunner(t, m.With(opts)), f), generic)
			if !m.Opts.ParallelDetect {
				traced.Tracer = &ctlCounter{}
				stint.AssertSameReport(t, m.Name+", traced", runVerified(t, newRunner(t, m.With(traced)), f), generic)
			}
		}
		return generic
	}
	t.Run("racy-mmul+quiesce", func(t *testing.T) {
		racy := func() workloads.Workload { return workloads.NewRacyMMul(32, 8) }
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

// record runs the harness program data under opts with a trace.Recorder
// as its Tracer and returns the trace and the report.
func record(t *testing.T, opts stint.Options, data []byte) ([]byte, *stint.Report) {
	t.Helper()
	var out bytes.Buffer
	rec := trace.NewRecorder(&out)
	opts.Tracer = rec
	r := newRunner(t, opts)
	rep, err := r.Run(stint.ProgramBody(r, data))
	if err == nil {
		err = rec.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), rep
}

// TestContractTraceReplay is the harness's trace leg: each program's
// recording (its traced run reporting what the live one does) replays on a
// warm Runner in each serial mode to the live report, and a ParallelDetect
// Runner is refused with ErrParallelRunner.
func TestContractTraceReplay(t *testing.T) {
	base := stint.Options{Detector: stint.DetectorSTINT, MaxRacesRecorded: 1 << 20}
	warm := map[string]*stint.Runner{}
	for _, m := range stint.PipeModes[:2] {
		warm[m.Name] = newRunner(t, m.With(base))
	}
	warm["sync"] = newRunner(t, base)
	parallel := newRunner(t, stint.PipeModes[len(stint.PipeModes)-1].With(base))
	for seed := int64(0); seed < 40; seed++ {
		data := stint.GenProgram(seed)
		r := newRunner(t, base)
		live, err := r.Run(stint.ProgramBody(r, data))
		if err != nil {
			t.Fatal(err)
		}
		tr, rep := record(t, base, data)
		stint.AssertSameReport(t, "traced", rep, live)
		for name, r := range warm {
			rep, err := trace.Replay(bytes.NewReader(tr), trace.Options{Runner: r})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			stint.AssertSameReport(t, "replayed on "+name, rep, live)
		}
		if _, err := trace.Replay(bytes.NewReader(tr), trace.Options{Runner: parallel}); !errors.Is(err, trace.ErrParallelRunner) {
			t.Fatalf("replay on a ParallelDetect Runner: %v, want ErrParallelRunner", err)
		}
	}
}

// TestAsyncWithTracerRecordsReplayableTrace: an async run records the
// sync run's trace, and its replay reports what the async run did.
func TestAsyncWithTracerRecordsReplayableTrace(t *testing.T) {
	opts := stint.Options{Detector: stint.DetectorSTINT, MaxRacesRecorded: 1 << 20}
	for seed := int64(0); seed < 8; seed++ {
		data := stint.GenProgram(seed)
		syncTrace, _ := record(t, opts, data)
		asyncTrace, asyncRep := record(t, stint.PipeModes[0].With(opts), data)
		if !bytes.Equal(asyncTrace, syncTrace) {
			t.Fatalf("seed %d: async and sync runs recorded different traces", seed)
		}
		replayed, err := trace.Replay(bytes.NewReader(asyncTrace), trace.Options{Runner: newRunner(t, opts)})
		if err != nil {
			t.Fatal(err)
		}
		stint.AssertSameReport(t, "replay vs the async run", replayed, asyncRep)
	}
}
