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
