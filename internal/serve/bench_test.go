package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"stint"
)

// BenchmarkServeThroughput is the service headline: traces/sec through the
// warm Runner pool. One iteration is a full ingest round-trip — HTTP upload
// through the admission queue, replay on a worker, result ready.
func BenchmarkServeThroughput(b *testing.B) {
	raw := recordTrace(b, 512, 32)
	s, err := New(Config{
		Runners: 2,
		Opts:    stint.Options{Detector: stint.DetectorSTINT, MaxRacesRecorded: 1 << 10},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/traces", bytes.NewReader(raw))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 202 {
			b.Fatalf("upload: status %d", w.Code)
		}
		var body map[string]string
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			b.Fatal(err)
		}
		s.wait(body["id"])
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "traces/sec")
	}
}
