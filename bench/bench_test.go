package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"stint/workloads"
)

func TestQuantile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose: summarize sorts a copy
	d := summarize(xs)
	if d.Median != 25 || d.P25 != 17.5 || d.P75 != 32.5 || d.N != 4 {
		t.Errorf("summarize = %+v, want median 25, quartiles 17.5 and 32.5, n 4", d)
	}
	if xs[0] != 40 {
		t.Error("summarize reordered its input")
	}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.9, 37}, {1, 40}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := summarize(nil); got != (dist{}) {
		t.Errorf("summarize(nil) = %+v, want zero", got)
	}
	if got := summarize([]float64{7}); got.Median != 7 || got.P25 != 7 || got.P75 != 7 {
		t.Errorf("summarize of one sample = %+v, want 7 throughout", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "upload", Start: 10, End: 30, Parent: 0},
		{Name: "poll", Start: 25, End: 50, Parent: 0},  // overlaps upload by 5: counted once
		{Name: "poll", Start: 90, End: 120, Parent: 0}, // runs past its parent: clipped
		{Name: "decode", Start: 12, End: 20, Parent: 1},
	}
	want := []int64{100 - (20 + 20 + 10), 20 - 8, 25, 30, 8}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	rows := summarizeSpans(spans)
	if len(rows) != 4 || rows[2].Name != "poll" || rows[2].Count != 2 || math.Abs(rows[2].TotalMs-55e-6) > 1e-12 {
		t.Errorf("summary = %+v, want four rows with the two polls merged", rows)
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	var none *recorder
	none.end(none.begin("x", -1, 0)) // a nil recorder is usable
	r := newRecorder()
	r.enable(false)
	r.end(r.begin("dropped", -1, 0))
	r.enable(true)
	r.end(r.begin("kept", -1, 0))
	if len(r.spans) != 1 || r.spans[0].Name != "kept" || r.spans[0].End < r.spans[0].Start {
		t.Errorf("spans = %+v, want only a closed 'kept'", r.spans)
	}
}

// serveBinary builds stint-serve into a directory the test owns.
func serveBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "stint-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "stint/cmd/stint-serve").CombinedOutput(); err != nil {
		t.Fatalf("building stint-serve: %v\n%s", err, out)
	}
	return bin
}

var tinyWorkloads = []workload{
	{name: "tiny", liveShare: 0.5, new: func() workloads.Workload { return workloads.NewSort(3000, 64) }},
	{name: "tiny-racy", racy: true, liveShare: 0.5, new: func() workloads.Workload { return workloads.NewRacyMMul(32, 16) }},
}

// TestSmokeAndDeterminism runs both phases of a race-free and a racy
// workload at tiny sizes, traced, twice with one seed: nothing may fail the
// gate, every declared metric must be reported, the span file must be
// written, and the exact counts must repeat.
func TestSmokeAndDeterminism(t *testing.T) {
	cfg := config{seed: 7, rounds: 1, traced: true, procs: 2, serveBin: serveBinary(t), outDir: t.TempDir()}
	for _, wl := range tinyWorkloads {
		if wl.racy && raceEnabled {
			// pardetect really runs the racy program's tasks in parallel,
			// and the Go race detector rightly objects to the program.
			t.Logf("%s skipped under the Go race detector", wl.name)
			continue
		}
		var runs [2]*result
		for i := range runs {
			res, err := runWorkload(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s: %d of %d operations failed: %v", wl.name, res.Failed, res.Attempted, res.Failures)
			}
			runs[i] = res
		}
		res := runs[0]
		if len(res.EndToEnd) != len(endToEndDefs()) {
			t.Errorf("%s: %d end-to-end metrics reported, %d declared", wl.name, len(res.EndToEnd), len(endToEndDefs()))
		}
		reported := make(map[string]metric)
		for _, m := range res.metrics() {
			reported[m.Name] = m
		}
		for _, d := range perLayerDefs {
			if _, ok := reported[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not reported", wl.name, d.Name)
			}
		}
		for _, d := range endToEndDefs() {
			if reported[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl.name, d.Name, reported[d.Name].Value)
			}
		}
		if races := reported["detect.races"].Value; (races > 0) != wl.racy {
			t.Errorf("%s: %v races, racy=%v", wl.name, races, wl.racy)
		}
		for _, name := range []string{"stint.hook_calls", "coalesce.intervals", "core.treap_ops", "history_peak_kb", "evstream.events", "detect.races"} {
			if !reported[name].Exact {
				t.Errorf("%s is not declared exact", name)
			}
		}
		again := runs[1].metrics()
		for _, m := range again {
			if m.Exact && m.Value != reported[m.Name].Value {
				t.Errorf("%s: exact metric %s = %v, then %v with the same seed", wl.name, m.Name, reported[m.Name].Value, m.Value)
			}
		}

		var tf traceFile
		data, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+wl.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatal(err)
		}
		names := make(map[string]bool)
		for _, s := range tf.Spans {
			names[s.Name] = true
			if s.End < s.Start || s.Parent >= len(tf.Spans) {
				t.Fatalf("%s: malformed span %+v", wl.name, s)
			}
		}
		for _, want := range []string{"bench.setup", "stint.Runner.Run/sync", "stint.Runner.Run/vanilla", "isolated.detect.Engine", "serve.request", "serve.poll"} {
			if !names[want] {
				t.Errorf("%s: no %q span in the trace file", wl.name, want)
			}
		}
	}
}

// TestGateCountsFailures checks that a wrong report is counted, not lost.
func TestGateCountsFailures(t *testing.T) {
	b := &bench{wl: tinyWorkloads[0]}
	if !b.gate(nil, "ok") || b.gate(os.ErrInvalid, "bad") {
		t.Fatal("gate verdicts inverted")
	}
	if b.attempted != 2 || b.failed != 1 || len(b.failures) != 1 || !strings.Contains(b.failures[0], "bad") {
		t.Errorf("attempted %d failed %d failures %v, want 2, 1 and one naming the operation", b.attempted, b.failed, b.failures)
	}
}

// TestBenchmarkJSONMatchesTables keeps the declaration the driver reads in
// step with the tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var decl struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads declared, %d in the table", len(decl.Workloads), len(allWorkloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("workload %d declared as %q, table has %q", i, w.Name, allWorkloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []declared, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%d %s metrics declared, %d in the table", len(got), kind, len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s metric %d declared as %+v, table has %+v", kind, i, g, d)
			}
		}
	}
	check("end-to-end", decl.EndToEnd, endToEndDefs())
	check("per-layer", decl.PerLayer, perLayerDefs)
}

func TestAgree(t *testing.T) {
	file := func(seed int64, wall, peak float64) string {
		f := resultFile{Schema: schema, Seed: seed, Workloads: []*result{{
			Workload: "sort", Attempted: 10,
			EndToEnd: []metric{
				{Name: "wall_ms.sync", Unit: "ms", Better: "lower", Bound: 0.10, Value: wall},
				{Name: "history_peak_kb", Unit: "KiB", Better: "lower", Bound: 0.02, Exact: true, Value: peak},
			},
		}}}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file(1, 100, 640)
	for _, c := range []struct {
		name string
		path string
		want bool
	}{
		{"within the bound", file(1, 109, 640), true},
		{"beyond the bound", file(1, 111, 640), false},
		{"better by more than the bound still disagrees", file(1, 85, 640), false},
		{"exact count differs with the same seed", file(1, 100, 641), false},
		{"exact count within its bound on another seed", file(2, 100, 641), true},
	} {
		var out strings.Builder
		got, err := agreeFiles(&out, base, c.path)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: agree = %v, want %v\n%s", c.name, got, c.want, out.String())
		}
	}
}
