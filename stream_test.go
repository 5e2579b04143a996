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

// TestStreamCarriesIntervals pins what the pipelines put on the wire: on a
// race-free run, where no page quiesces and so no worker drops a streamed
// interval uncounted, every pipelined mode streams exactly one event per
// flushed interval plus one per structure event — nothing per access —
// which on sort is more than two orders of magnitude below the hook-call
// count.
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
		runVerified(t, newRunner(t, stint.Options{Tracer: &ctl}), p.f)
		for _, m := range stint.PipeModes {
			t.Run(fmt.Sprintf("%s/%s", p.name, m.Name), func(t *testing.T) {
				rep := runVerified(t, newRunner(t, m.With(stint.Options{Detector: stint.DetectorSTINT})), p.f)
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

// TestAsyncStreamIsAFunctionOfTheProgram: with pages quiescing, every Async
// row streams the same events and bytes on every run and every shard count,
// and as many events as the ParallelDetect rows: no producer drops a dead
// page's access, the workers' histories drop its intervals. The
// ParallelDetect rows' count is what they stream on every program, the
// flushed intervals plus the structure events, read here off a traced sync
// run without quiescing (run for real, these programs race).
func TestAsyncStreamIsAFunctionOfTheProgram(t *testing.T) {
	for _, p := range []struct {
		name string
		f    workloads.Factory
	}{
		{"mmul-racy", func() workloads.Workload { return workloads.NewRacyMMul(48, 16) }},
		{"heat-racy", func() workloads.Workload { return workloads.NewRacyHeat(64, 64, 8, 4) }},
	} {
		var ctl ctlCounter
		s := runVerified(t, newRunner(t, stint.Options{Detector: stint.DetectorSTINT, Tracer: &ctl}), p.f).Stats
		events, bytes := s.ReadIntervals+s.WriteIntervals+ctl.n, uint64(0)
		for _, m := range stint.PipeModes {
			for run := 0; run < 4 && !m.Opts.ParallelDetect; run++ {
				opts := m.With(stint.Options{Detector: stint.DetectorSTINT, PageQuiesceThreshold: 4})
				s := runVerified(t, newRunner(t, opts), p.f).Stats
				if bytes == 0 {
					bytes = s.StreamBytes
				}
				if s.PagesQuiesced == 0 || s.EventsStreamed != events || s.StreamBytes != bytes {
					t.Errorf("%s/%s run %d: %d pages quiesced, %d events in %d bytes; want > 0, %d in %d",
						p.name, m.Name, run, s.PagesQuiesced, s.EventsStreamed, s.StreamBytes, events, bytes)
				}
			}
		}
	}
}
