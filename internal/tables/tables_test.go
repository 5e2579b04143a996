package tables

import (
	"bytes"
	"strings"
	"testing"

	"stint"
	"stint/workloads"
)

func TestMeasureVerifiesAndReports(t *testing.T) {
	f := func() workloads.Workload { return workloads.NewMMul(32, 8) }
	res, err := Measure(f, stint.DetectorSTINT, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "mmul" || res.Mode != stint.DetectorSTINT {
		t.Fatalf("unexpected result identity: %+v", res)
	}
	if res.Wall <= 0 {
		t.Fatal("no wall time measured")
	}
	if res.Stats.ReadAccesses == 0 {
		t.Fatal("no accesses recorded")
	}
}

func TestMeasureRejectsRacyPrograms(t *testing.T) {
	f := func() workloads.Workload { return &racyWorkload{} }
	if _, err := Measure(f, stint.DetectorSTINT, 1, false); err == nil {
		t.Fatal("Measure accepted a racy benchmark")
	}
}

// racyWorkload is a deliberately racing Workload for harness tests.
type racyWorkload struct {
	buf *stint.Buffer
}

func (w *racyWorkload) Name() string   { return "racy" }
func (w *racyWorkload) Params() string { return "n=1" }
func (w *racyWorkload) Setup(r *stint.Runner) {
	w.buf = r.Arena().AllocWords("racy", 8)
}
func (w *racyWorkload) Run(t *stint.Task) {
	t.Spawn(func(c *stint.Task) { c.Store(w.buf, 0) })
	t.Store(w.buf, 0)
	t.Sync()
}
func (w *racyWorkload) Verify() error { return nil }

func TestFig5SmokeOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full default-size benchmarks")
	}
	var buf bytes.Buffer
	s := &Suite{Out: &buf, Scale: 1, Reps: 1}
	if err := s.Fig5(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range workloads.Names() {
		if !strings.Contains(out, name) {
			t.Errorf("Fig5 output missing %q", name)
		}
	}
	if !strings.Contains(out, "geomean") {
		t.Error("Fig5 output missing geomean row")
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4}); g < 1.99 || g > 2.01 {
		t.Errorf("geomean(1,4) = %g, want 2", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %g, want 0", g)
	}
}

func TestMillionsFormatting(t *testing.T) {
	for _, c := range []struct {
		v    uint64
		want string
	}{
		{1500000, "1.5"},
		{250000000, "250"},
		{2500, "0.003"},
	} {
		got := strings.TrimSpace(millions(c.v))
		if got != c.want {
			t.Errorf("millions(%d) = %q, want %q", c.v, got, c.want)
		}
	}
}

// shape is the part of a STINT run's Stats that is an exact function of
// the program and of the treap's shape: the Fig 1/Fig 6 access, hook and
// interval counts and the Fig 8 treap traversal counts.
type shape struct {
	ReadAccesses, WriteAccesses                uint64
	ReadHookCalls, WriteHookCalls              uint64
	ReadIntervals, WriteIntervals              uint64
	ReadIntervalBytes, WriteIntervalBytes      uint64
	TreapOps, TreapNodesVisited, TreapOverlaps uint64
	AccessHistoryBytes                         uint64
}

func shapeOf(st stint.Stats) shape {
	return shape{
		st.ReadAccesses, st.WriteAccesses,
		st.ReadHookCalls, st.WriteHookCalls,
		st.ReadIntervals, st.WriteIntervals,
		st.ReadIntervalBytes, st.WriteIntervalBytes,
		st.TreapOps, st.TreapNodesVisited, st.TreapOverlaps,
		st.AccessHistoryBytes,
	}
}

// goldenShapes pins STINT's counters on the seven benchmarks at scale 1,
// in shape's field order.
var goldenShapes = map[string]shape{
	"chol":  {2483072, 54720, 28512, 2016, 2655, 772, 1057920, 213888, 6854, 36912, 7424, 20256},
	"fft":   {1499136, 1499136, 243967, 113405, 131588, 1028, 4456448, 4456448, 265232, 1173896, 380016, 384},
	"heat":  {1955680, 655360, 7600, 322600, 3240, 5080, 3972480, 2621440, 16640, 89538, 29159, 13776},
	"mmul":  {2064384, 147456, 897024, 6144, 12304, 3072, 1474560, 294912, 30752, 193229, 18062, 64560},
	"sort":  {10765893, 10650721, 9971782, 10650721, 18906, 4151, 3667360, 3599996, 46114, 268884, 81003, 61872},
	"stra":  {4032512, 415744, 1616416, 5600, 1292, 1221, 2605056, 1662976, 5026, 12497, 3511, 80664},
	"straz": {4032512, 415744, 1607456, 1680, 172, 101, 2605056, 1662976, 546, 787, 283, 5976},
}

// TestShapeGolden is the deterministic half of the evaluation: the counts
// Fig 1, 6 and 8 are built from. An instrumentation, coalescing or treap
// change that moves any of them fails here by name; a deliberate one
// regenerates the table from the failure's "got" line.
func TestShapeGolden(t *testing.T) {
	for _, name := range workloads.Names() {
		f, err := workloads.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Measure(f, stint.DetectorSTINT, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := shapeOf(res.Stats), goldenShapes[name]; got != want {
			t.Errorf("%s shape:\n got %+v\nwant %+v", name, got, want)
		}
	}
}
