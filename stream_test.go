package stint_test

import (
	"fmt"
	"testing"

	"stint"
	"stint/workloads"
)

// ctlCounter is a Tracer counting a run's structure events.
type ctlCounter struct{ n uint64 }

func (c *ctlCounter) Spawn()                           { c.n++ }
func (c *ctlCounter) Restore()                         { c.n++ }
func (c *ctlCounter) Sync()                            { c.n++ }
func (*ctlCounter) Read(stint.Addr, uint64)            {}
func (*ctlCounter) Write(stint.Addr, uint64)           {}
func (*ctlCounter) ReadRange(stint.Addr, int, uint64)  {}
func (*ctlCounter) WriteRange(stint.Addr, int, uint64) {}

// runWorkload runs a fresh instance of the workload under opts.
func runWorkload(t *testing.T, f workloads.Factory, opts stint.Options) *stint.Report {
	t.Helper()
	r, err := stint.NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	w := f()
	w.Setup(r)
	rep, err := r.Run(w.Run)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestStreamCarriesIntervals pins what the pipelines put on the wire: on a
// race-free run without quiescing every pipelined mode streams exactly one
// event per flushed interval plus one per structure event — nothing per
// access — which on sort is more than two orders of magnitude below the
// hook-call count.
func TestStreamCarriesIntervals(t *testing.T) {
	progs := []struct {
		name string
		f    workloads.Factory
	}{
		{"sort", func() workloads.Workload { return workloads.NewSort(20000, 512) }},
		{"fft", func() workloads.Workload { return workloads.NewFFT(2048, 64) }},
		{"mmul", func() workloads.Workload { return workloads.NewMMul(48, 16) }},
	}
	for _, p := range progs {
		var ctl ctlCounter
		runWorkload(t, p.f, stint.Options{Tracer: &ctl})
		for _, m := range stint.PipeModes {
			t.Run(fmt.Sprintf("%s/%s", p.name, m.Name), func(t *testing.T) {
				rep := runWorkload(t, p.f, m.With(stint.Options{Detector: stint.DetectorSTINT}))
				if rep.Racy() {
					t.Fatalf("workload is not race-free: %d races", rep.RaceCount)
				}
				s := rep.Stats
				if want := s.ReadIntervals + s.WriteIntervals + ctl.n; s.EventsStreamed != want {
					t.Errorf("EventsStreamed = %d, want %d intervals + %d structure events = %d",
						s.EventsStreamed, s.ReadIntervals+s.WriteIntervals, ctl.n, want)
				}
				if hooks := s.ReadHookCalls + s.WriteHookCalls; p.name == "sort" && s.EventsStreamed*100 > hooks {
					t.Errorf("sort streamed %d events for %d hook calls: less than 100x below", s.EventsStreamed, hooks)
				}
			})
		}
	}
}
