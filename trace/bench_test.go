package trace

import (
	"bytes"
	"testing"

	"stint"
	"stint/workloads"
)

// buildTrace records a medium fork-join program once.
func buildTrace(b *testing.B) []byte {
	b.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	r, err := stint.NewRunner(stint.Options{Tracer: rec})
	if err != nil {
		b.Fatal(err)
	}
	data := r.Arena().AllocWords("data", 1<<16)
	var rec2 func(t *stint.Task, lo, hi int)
	rec2 = func(t *stint.Task, lo, hi int) {
		if hi-lo <= 1024 {
			t.LoadRange(data, lo, hi-lo)
			for i := lo; i < hi; i += 4 {
				t.Store(data, i)
			}
			return
		}
		mid := (lo + hi) / 2
		t.Spawn(func(c *stint.Task) { rec2(c, lo, mid) })
		t.Spawn(func(c *stint.Task) { rec2(c, mid, hi) })
		t.Sync()
	}
	if _, err := r.Run(func(t *stint.Task) { rec2(t, 0, 1<<16) }); err != nil {
		b.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// countingWriter counts the bytes written to it and keeps none.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// BenchmarkRecordOverhead records sequential word loads; B/event is the
// trace bytes per load.
func BenchmarkRecordOverhead(b *testing.B) {
	var out countingWriter
	rec := NewRecorder(&out)
	r, err := stint.NewRunner(stint.Options{Tracer: rec})
	if err != nil {
		b.Fatal(err)
	}
	data := r.Arena().AllocWords("data", 1<<16)
	if _, err := r.Run(func(t *stint.Task) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Load(data, i&(1<<16-1))
		}
		b.StopTimer()
	}); err != nil {
		b.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(out.n)/float64(b.N), "B/event")
}

// benchReplay replays the shared trace b.N times through one reused Runner
// (Run auto-resets between replays), so the loop measures steady-state
// replay over warm pools rather than Runner construction.
func benchReplay(b *testing.B, detector stint.Detector) {
	raw := buildTrace(b)
	r, err := stint.NewRunner(stint.Options{Detector: detector, MaxRacesRecorded: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Replay(bytes.NewReader(raw), Options{Runner: r}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplaySTINT(b *testing.B) { benchReplay(b, stint.DetectorSTINT) }

func BenchmarkReplayVanilla(b *testing.B) { benchReplay(b, stint.DetectorVanilla) }

// recordWorkload records one workload instance with detection off.
func recordWorkload(tb testing.TB, w workloads.Workload) []byte {
	tb.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	r, err := stint.NewRunner(stint.Options{Tracer: rec})
	if err != nil {
		tb.Fatal(err)
	}
	w.Setup(r)
	if _, err := r.Run(w.Run); err != nil {
		tb.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// benchPrograms are the repository benchmark's five programs at its sizes
// (serve-small and serve-racy are the traces its service replays).
var benchPrograms = []struct {
	name string
	new  func() workloads.Workload
}{
	{"sort", func() workloads.Workload { return workloads.NewSort(40000, 512) }},
	{"mmul", func() workloads.Workload { return workloads.NewMMul(112, 16) }},
	{"fft", func() workloads.Workload { return workloads.NewFFT(32768, 64) }},
	{"serve-small", func() workloads.Workload { return workloads.NewChol(192, 16) }},
	{"serve-racy", func() workloads.Workload { return workloads.NewRacyMMul(96, 16) }},
}

// BenchmarkReplayWorkload is the trace layer's own benchmark over
// benchPrograms (sort's trace is 3.6 MB): the off leg replays onto a
// DetectorOff Runner, so it is the decoder plus the hooks' bare dispatch; the
// stint leg adds detection. ns/event divides the time, and B/event the trace's
// length, by the events a replay charges against Options.MaxEvents: every
// event but restores and the end (recordings hold no empty range, the one
// such event that reaches no Tracer).
func BenchmarkReplayWorkload(b *testing.B) {
	for _, w := range benchPrograms {
		b.Run(w.name, func(b *testing.B) {
			raw := recordWorkload(b, w.new())
			var seen kinds
			counting, err := stint.NewRunner(stint.Options{Tracer: &seen})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Replay(bytes.NewReader(raw), Options{Runner: counting}); err != nil {
				b.Fatal(err)
			}
			events := uint64(len(seen))
			for _, leg := range []struct {
				name     string
				detector stint.Detector
			}{{"off", stint.DetectorOff}, {"stint", stint.DetectorSTINT}} {
				b.Run(leg.name, func(b *testing.B) {
					r, err := stint.NewRunner(stint.Options{Detector: leg.detector, MaxRacesRecorded: 64})
					if err != nil {
						b.Fatal(err)
					}
					b.SetBytes(int64(len(raw)))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := Replay(bytes.NewReader(raw), Options{Runner: r}); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*events), "ns/event")
					b.ReportMetric(float64(len(raw))/float64(events), "B/event")
				})
			}
		})
	}
}
