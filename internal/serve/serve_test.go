package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stint"
	"stint/trace"
)

// divide records a racy divide-and-conquer program: sibling halves overlap
// by one word at every split, so the trace carries a deterministic set of
// races at every granularity.
func divide(t *stint.Task, buf *stint.Buffer, lo, hi, leaf int) {
	if hi-lo <= leaf {
		t.LoadRange(buf, lo, hi-lo)
		t.StoreRange(buf, lo, hi-lo)
		return
	}
	mid := (lo + hi) / 2
	t.Spawn(func(c *stint.Task) { divide(c, buf, lo, mid+1, leaf) })
	t.Spawn(func(c *stint.Task) { divide(c, buf, mid, hi, leaf) })
	t.Sync()
}

// recordTrace runs the divide program under a Recorder (detector off) and
// returns the trace bytes.
func recordTrace(tb testing.TB, words, leaf int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	r, err := stint.NewRunner(stint.Options{Tracer: rec})
	if err != nil {
		tb.Fatal(err)
	}
	data := r.Arena().AllocWords("d", words)
	if _, err := r.Run(func(task *stint.Task) { divide(task, data, 0, words, leaf) }); err != nil {
		tb.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func postTrace(tb testing.TB, ts *httptest.Server, raw []byte) (string, int) {
	tb.Helper()
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		tb.Fatal(err)
	}
	return body["id"], resp.StatusCode
}

func pollResult(tb testing.TB, ts *httptest.Server, id string) Result {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/results/" + id)
		if err != nil {
			tb.Fatal(err)
		}
		var res Result
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil {
			tb.Fatal(err)
		}
		if res.Status == "done" || res.Status == "error" {
			return res
		}
		if time.Now().After(deadline) {
			tb.Fatalf("result %s stuck in status %q", id, res.Status)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeEndToEnd uploads a trace over HTTP, polls its result, and checks
// the race report against a direct fresh-Runner replay of the same bytes.
func TestServeEndToEnd(t *testing.T) {
	raw := recordTrace(t, 512, 64)
	want, err := trace.Replay(bytes.NewReader(raw), trace.Options{Detector: stint.DetectorSTINT})
	if err != nil {
		t.Fatal(err)
	}
	if want.RaceCount == 0 {
		t.Fatal("fixture trace should race")
	}

	s, err := New(Config{Runners: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id, code := postTrace(t, ts, raw)
	if code != http.StatusAccepted || id == "" {
		t.Fatalf("upload: status %d, id %q", code, id)
	}
	res := pollResult(t, ts, id)
	if res.Status != "done" {
		t.Fatalf("result: %+v", res)
	}
	if res.RaceCount != want.RaceCount || res.Strands != want.Strands {
		t.Fatalf("served result diverges: %d races / %d strands, fresh replay %d / %d",
			res.RaceCount, res.Strands, want.RaceCount, want.Strands)
	}
	wantRaces := make([]string, len(want.Races))
	for i, rc := range want.Races {
		wantRaces[i] = rc.String()
	}
	if !reflect.DeepEqual(res.Races, wantRaces) {
		t.Fatalf("served race list diverges\n got: %v\nwant: %v", res.Races, wantRaces)
	}

	var st Stats
	resp, err := http.Get(ts.URL + "/v1/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Runners != 2 || st.Admitted < 1 || st.Completed < 1 {
		t.Fatalf("statusz: %+v", st)
	}
}

// TestServeReusedMatchesFresh is the serve-level byte-identity invariant:
// the same trace replayed repeatedly through one warm Runner always yields
// the result a fresh Runner gives.
func TestServeReusedMatchesFresh(t *testing.T) {
	raw := recordTrace(t, 512, 64)
	fresh, err := trace.Replay(bytes.NewReader(raw), trace.Options{Detector: stint.DetectorSTINT})
	if err != nil {
		t.Fatal(err)
	}
	want := Result{Status: "done", RaceCount: fresh.RaceCount, Strands: fresh.Strands}
	for _, rc := range fresh.Races {
		want.Races = append(want.Races, rc.String())
	}
	s, err := New(Config{Runners: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ {
		id, code := postTrace(t, ts, raw)
		if code != http.StatusAccepted {
			t.Fatalf("upload %d: status %d", i, code)
		}
		res := pollResult(t, ts, id)
		res.ID, res.WallTime = "", "" // only the report content must match
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("warm replay %d diverges from a fresh Runner:\nwarm:  %+v\nfresh: %+v", i, res, want)
		}
	}
}

// TestServeQueueFullRejects exercises admission backpressure against a
// server whose workers never drain: the queue fills, further uploads get
// 429, and the rejection is counted.
func TestServeQueueFullRejects(t *testing.T) {
	s := &Server{
		cfg:     Config{Runners: 1, QueueDepth: 1}.withDefaults(),
		queue:   make(chan job, 1),
		quit:    make(chan struct{}),
		start:   time.Now(),
		results: make(map[string]*Result),
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	raw := recordTrace(t, 64, 16)
	if _, code := postTrace(t, ts, raw); code != http.StatusAccepted {
		t.Fatalf("first upload: status %d", code)
	}
	id, code := postTrace(t, ts, raw)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second upload: status %d, want 429", code)
	}
	if id != "" {
		t.Fatalf("rejected upload got id %q", id)
	}
	st := s.Stats()
	if st.Rejected != 1 || st.Admitted != 1 || st.QueueLen != 1 {
		t.Fatalf("stats after rejection: %+v", st)
	}
}

// TestServeRejectedUploadEvictsNothing: an upload answered 429 must leave the
// retained results alone. With the result set at capacity and the queue full
// behind a stopped worker, ten rejected uploads evict none of the four
// completed results.
func TestServeRejectedUploadEvictsNothing(t *testing.T) {
	s, err := New(Config{Runners: 1, QueueDepth: 1, MaxResults: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	raw := recordTrace(t, 64, 16)
	var ids []string
	for i := 0; i < 4; i++ {
		id, code := postTrace(t, ts, raw)
		if code != http.StatusAccepted {
			t.Fatalf("upload %d: status %d", i, code)
		}
		s.wait(id)
		ids = append(ids, id)
	}
	s.Close()        // the worker is gone: nothing drains the queue
	s.queue <- job{} // and the queue is full
	for i := 0; i < 10; i++ {
		if id, code := postTrace(t, ts, raw); code != http.StatusTooManyRequests || id != "" {
			t.Fatalf("upload %d into a full queue: status %d, id %q, want 429", i, code, id)
		}
	}
	for _, id := range ids {
		if res := pollResult(t, ts, id); res.Status != "done" {
			t.Fatalf("result %s after ten rejected uploads: %+v", id, res)
		}
	}
	if st := s.Stats(); st.Rejected != 10 || st.Admitted != 4 {
		t.Fatalf("stats: %+v, want 10 rejected, 4 admitted", st)
	}
}

// TestNewRejectsOptions: the service owns both ends of the replay and
// drives it through trace.Replay, so Options that hook into the run or make
// it parallel are refused before any Runner is built.
func TestNewRejectsOptions(t *testing.T) {
	for _, c := range []struct {
		name, want string
		opts       stint.Options
	}{
		{"tracer", "Tracer", stint.Options{Tracer: trace.NewRecorder(io.Discard)}},
		{"on-race", "OnRace", stint.Options{OnRace: func(stint.Race) {}}},
		{"parallel-detect", "ParallelDetect", stint.Options{ParallelDetect: true}},
	} {
		if _, err := New(Config{Opts: c.opts}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: New error = %v, want one naming %s", c.name, err, c.want)
		}
	}
}

// TestServeOversize exercises both memory caps: the byte cap rejects at
// the door with 413, and the event budget aborts mid-replay with the
// result surfaced as an error — both counted as oversized.
func TestServeOversize(t *testing.T) {
	raw := recordTrace(t, 512, 64)

	t.Run("bytes", func(t *testing.T) {
		s, err := New(Config{Runners: 1, MaxTraceBytes: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if _, code := postTrace(t, ts, raw); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized upload: status %d, want 413", code)
		}
		if st := s.Stats(); st.Oversized != 1 || st.Admitted != 0 {
			t.Fatalf("stats: %+v", st)
		}
	})

	t.Run("events", func(t *testing.T) {
		s, err := New(Config{Runners: 1, MaxEvents: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		id, code := postTrace(t, ts, raw)
		if code != http.StatusAccepted {
			t.Fatalf("upload: status %d", code)
		}
		res := pollResult(t, ts, id)
		if res.Status != "error" || !strings.Contains(res.Error, "event budget") {
			t.Fatalf("result: %+v", res)
		}
		if st := s.Stats(); st.Oversized != 1 || st.Failed != 0 {
			t.Fatalf("stats: %+v", st)
		}
	})
}

// TestServeOversizeHistoryCap exercises the third per-run cap: a replay
// whose access-history footprint trips Opts.MaxHistoryBytes surfaces as a
// result error counted under oversized, and the worker's Runner recovers —
// the next trace on the same (single-runner) pool replays normally.
func TestServeOversizeHistoryCap(t *testing.T) {
	raw := recordTrace(t, 512, 64)
	s, err := New(Config{Runners: 1, Opts: stint.Options{
		Detector: stint.DetectorSTINT, MaxHistoryBytes: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id, code := postTrace(t, ts, raw)
	if code != http.StatusAccepted {
		t.Fatalf("upload: status %d", code)
	}
	res := pollResult(t, ts, id)
	if res.Status != "error" || !strings.Contains(res.Error, "MaxHistoryBytes") {
		t.Fatalf("result: %+v", res)
	}
	if st := s.Stats(); st.Oversized != 1 || st.Failed != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// Same pool, same Runner: the cap abort must have left it reusable.
	id2, code := postTrace(t, ts, raw)
	if code != http.StatusAccepted {
		t.Fatalf("second upload: status %d", code)
	}
	res2 := pollResult(t, ts, id2)
	if res2.Status != "error" || !strings.Contains(res2.Error, "MaxHistoryBytes") {
		t.Fatalf("second result: %+v", res2)
	}
	if st := s.Stats(); st.Oversized != 2 || st.Failed != 0 {
		t.Fatalf("stats after second: %+v", st)
	}
}

// TestServeEvictionResolvesPending pins the eviction fix: when the FIFO
// evicts a result whose trace has not finished, anything blocked on that
// result unblocks with a terminal "error" status instead of hanging on a
// done channel nobody will ever close.
func TestServeEvictionResolvesPending(t *testing.T) {
	// No workers: jobs stay queued forever, so the first result is still
	// non-terminal when the second upload evicts it.
	s := &Server{
		cfg:     Config{Runners: 1, QueueDepth: 4, MaxResults: 1}.withDefaults(),
		queue:   make(chan job, 4),
		quit:    make(chan struct{}),
		start:   time.Now(),
		results: make(map[string]*Result),
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	raw := recordTrace(t, 64, 16)
	first, code := postTrace(t, ts, raw)
	if code != http.StatusAccepted {
		t.Fatalf("first upload: status %d", code)
	}
	// Grab the live record the way a concurrent waiter would, before the
	// second upload evicts it.
	s.mu.Lock()
	res := s.results[first]
	s.mu.Unlock()
	if res == nil {
		t.Fatalf("first result missing before eviction")
	}
	if _, code := postTrace(t, ts, raw); code != http.StatusAccepted {
		t.Fatalf("second upload: status %d", code)
	}
	select {
	case <-res.done:
	case <-time.After(5 * time.Second):
		t.Fatal("evicted result's done channel never closed")
	}
	s.mu.Lock()
	status, errMsg := res.Status, res.Error
	s.mu.Unlock()
	if status != "error" || !strings.Contains(errMsg, "evicted") {
		t.Fatalf("evicted result: status %q, error %q", status, errMsg)
	}
	// wait() on the evicted id returns promptly too (nil lookup path).
	s.wait(first)
}

// TestServeUnknownResult covers the 404 path and result eviction.
func TestServeUnknownResult(t *testing.T) {
	s, err := New(Config{Runners: 1, MaxResults: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/results/t-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", resp.StatusCode)
	}

	raw := recordTrace(t, 64, 16)
	first, code := postTrace(t, ts, raw)
	if code != http.StatusAccepted {
		t.Fatalf("upload: status %d", code)
	}
	s.wait(first)
	second, code := postTrace(t, ts, raw)
	if code != http.StatusAccepted {
		t.Fatalf("upload: status %d", code)
	}
	s.wait(second)
	resp, err = http.Get(ts.URL + "/v1/results/" + first)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted id: status %d, want 404", resp.StatusCode)
	}
}

// TestServeShardedPool runs the service over the sharded pipeline
// configuration and checks it against a fresh sharded replay.
func TestServeShardedPool(t *testing.T) {
	raw := recordTrace(t, 512, 64)
	opts := stint.Options{Detector: stint.DetectorSTINT, Async: true, DetectShards: 2}
	fresh, err := stint.NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := trace.Replay(bytes.NewReader(raw), trace.Options{Runner: fresh})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Runners: 2, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id, code := postTrace(t, ts, raw)
	if code != http.StatusAccepted {
		t.Fatalf("upload: status %d", code)
	}
	res := pollResult(t, ts, id)
	if res.Status != "done" || res.RaceCount != want.RaceCount {
		t.Fatalf("sharded serve diverges: %+v, want %d races", res, want.RaceCount)
	}
}

// TestServePanickingReplayIsQuarantined is the regression test for a replay
// that panics: it used to take the whole process down (workers had no
// recover, and a stage-graph failure is re-raised on the replaying
// goroutine). Now that upload alone fails — status "error", counted as
// failed — the worker rebuilds its Runner, and the next upload on the same
// server gets the correct race set. One worker, so the second upload
// provably runs on the rebuilt Runner; sync and sharded, so the panic is
// raised both on the worker goroutine and inside the stage graph.
func TestServePanickingReplayIsQuarantined(t *testing.T) {
	raw := recordTrace(t, 512, 64)
	want, err := trace.Replay(bytes.NewReader(raw), trace.Options{Detector: stint.DetectorSTINT})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Racy() {
		t.Fatal("fixture trace is race-free; the panic would never fire")
	}
	for _, mode := range []struct {
		name string
		opts stint.Options
	}{
		{"sync", stint.Options{Detector: stint.DetectorSTINT}},
		{"shards2", stint.Options{Detector: stint.DetectorSTINT, Async: true, DetectShards: 2}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var armed atomic.Bool
			armed.Store(true)
			opts := mode.opts
			opts.OnRace = func(stint.Race) {
				if armed.Load() {
					panic("OnRace blew up")
				}
			}
			s, err := start(Config{Runners: 1, Opts: opts}.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			id, code := postTrace(t, ts, raw)
			if code != http.StatusAccepted {
				t.Fatalf("first upload: status %d", code)
			}
			res := pollResult(t, ts, id)
			if res.Status != "error" || !strings.Contains(res.Error, "OnRace blew up") {
				t.Fatalf("panicking replay: got %+v, want status error naming the panic", res)
			}
			if st := s.Stats(); st.Failed != 1 || st.Completed != 0 {
				t.Fatalf("after the panic: %+v, want failed=1 completed=0", st)
			}

			armed.Store(false)
			id, code = postTrace(t, ts, raw)
			if code != http.StatusAccepted {
				t.Fatalf("second upload: status %d", code)
			}
			res = pollResult(t, ts, id)
			races := make([]string, len(want.Races))
			for i, rc := range want.Races {
				races[i] = rc.String()
			}
			if res.Status != "done" || res.RaceCount != want.RaceCount || res.Strands != want.Strands ||
				!reflect.DeepEqual(res.Races, races) {
				t.Fatalf("upload after the panic diverges: %+v, want %d races/%d strands",
					res, want.RaceCount, want.Strands)
			}
		})
	}
}
