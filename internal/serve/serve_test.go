package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
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

// postChunked uploads raw with no declared length: the client sends it
// chunked, and the server sees ContentLength -1.
func postChunked(tb testing.TB, ts *httptest.Server, raw []byte) (string, int) {
	tb.Helper()
	// A MultiReader hides the body's length from the client.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/traces", io.MultiReader(bytes.NewReader(raw)))
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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

// postDeclared writes an upload by hand over a raw connection, declaring
// length bytes and sending raw, then half-closes: an HTTP client will not
// send a Content-Length its body does not match.
func postDeclared(tb testing.TB, ts *httptest.Server, raw []byte, length int) int {
	tb.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/traces HTTP/1.1\r\nHost: stint\r\nContent-Length: %d\r\n\r\n", length)
	if _, err := conn.Write(raw); err != nil {
		tb.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		tb.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestServeUploadLengths covers the sized read: an upload is admitted
// whether or not it declares its length, a body exactly at MaxTraceBytes is
// admitted, one byte over is refused with 413 (before a byte is read when
// the length is declared, by the capped reader when it is not), and a
// Content-Length larger than the body that follows is a 400. Every refusal
// moves exactly one counter and admits nothing.
func TestServeUploadLengths(t *testing.T) {
	raw := recordTrace(t, 512, 64)
	fresh, err := trace.Replay(bytes.NewReader(raw), trace.Options{Detector: stint.DetectorSTINT})
	if err != nil {
		t.Fatal(err)
	}
	want := Result{Status: "done", RaceCount: fresh.RaceCount, Strands: fresh.Strands}
	for _, rc := range fresh.Races {
		want.Races = append(want.Races, rc.String())
	}
	post := map[string]func(*httptest.Server, []byte) (string, int){
		"declared": func(ts *httptest.Server, b []byte) (string, int) { return postTrace(t, ts, b) },
		"chunked":  func(ts *httptest.Server, b []byte) (string, int) { return postChunked(t, ts, b) },
	}
	for _, c := range []struct {
		name, post string
		limit      int64
		code       int
		oversized  uint64
	}{
		{"honest", "declared", 0, http.StatusAccepted, 0},
		{"chunked", "chunked", 0, http.StatusAccepted, 0},
		{"at-limit", "declared", int64(len(raw)), http.StatusAccepted, 0},
		{"chunked-at-limit", "chunked", int64(len(raw)), http.StatusAccepted, 0},
		{"over-limit", "declared", int64(len(raw)) - 1, http.StatusRequestEntityTooLarge, 1},
		{"chunked-over-limit", "chunked", int64(len(raw)) - 1, http.StatusRequestEntityTooLarge, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(Config{Runners: 1, MaxTraceBytes: c.limit})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			id, code := post[c.post](ts, raw)
			if code != c.code {
				t.Fatalf("status %d, want %d", code, c.code)
			}
			admitted := uint64(0)
			if code == http.StatusAccepted {
				admitted = 1
				res := pollResult(t, ts, id)
				res.ID, res.WallTime = "", ""
				if !reflect.DeepEqual(res, want) {
					t.Fatalf("served result diverges from a fresh replay:\n got: %+v\nwant: %+v", res, want)
				}
			}
			if st := s.Stats(); st.Admitted != admitted || st.Oversized != c.oversized ||
				st.Rejected != 0 || st.Failed != 0 {
				t.Fatalf("stats: %+v, want %d admitted, %d oversized", st, admitted, c.oversized)
			}
		})
	}

	t.Run("lying-length", func(t *testing.T) {
		s, err := New(Config{Runners: 1, MaxTraceBytes: int64(len(raw)) + 100})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if code := postDeclared(t, ts, raw, len(raw)+100); code != http.StatusBadRequest {
			t.Fatalf("Content-Length past the body: status %d, want 400", code)
		}
		// Declared past the cap: refused at the door, body unread.
		if code := postDeclared(t, ts, raw, len(raw)+101); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("Content-Length past the cap: status %d, want 413", code)
		}
		if st := s.Stats(); st.Admitted != 0 || st.Oversized != 1 || st.Rejected != 0 || st.Failed != 0 || st.Completed != 0 {
			t.Fatalf("stats: %+v, want only the one oversized", st)
		}
	})
}

// TestReadUploadAllocatesOnce: a declared length sizes the one buffer the
// body is read into while a presize token is free (the race detector adds
// up to two allocations of its own); with no length, or no token, the
// buffer doubles as the body arrives, a dozen times for 1 MiB.
func TestReadUploadAllocatesOnce(t *testing.T) {
	raw := bytes.Repeat([]byte("STNTTRC1"), 1<<17) // 1 MiB
	src := bytes.NewReader(raw)
	server := func(limit int64) *Server {
		return &Server{cfg: Config{MaxTraceBytes: limit}, presize: make(chan struct{}, 1)}
	}
	read := func(s *Server, declared int64) float64 {
		return testing.AllocsPerRun(5, func() {
			src.Reset(raw)
			data, err := s.readUpload(src, declared)
			if err != nil || !bytes.Equal(data, raw) {
				t.Fatalf("declared %d: read %d bytes, err %v", declared, len(data), err)
			}
		})
	}
	busy := server(64 << 20)
	busy.presize <- struct{}{}
	sized, uncapped := read(server(64<<20), int64(len(raw))), read(server(-1), int64(len(raw)))
	chunked, tokenless := read(server(64<<20), -1), read(busy, int64(len(raw)))
	if sized > 3 || uncapped > 3 || chunked < 8 || tokenless < 8 {
		t.Errorf("allocations: %v declared, %v declared without a cap, %v chunked, %v with no token free; want at most 3, 3 and two regrowing reads",
			sized, uncapped, chunked, tokenless)
	}
	// A declared length is trusted only up to the cap, or the default cap
	// when there is none; the token is returned once the body is read.
	for _, c := range []struct{ limit, trusted int64 }{{4096, 4096}, {-1, defaultMaxTraceBytes}} {
		s := server(c.limit)
		data, err := s.readUpload(bytes.NewReader(raw[:10]), 1<<40)
		if err != nil || len(data) != 10 || int64(cap(data)) > 2*c.trusted || len(s.presize) != 0 {
			t.Fatalf("huge declared length, cap %d: %d bytes, cap %d, err %v, %d tokens held",
				c.limit, len(data), cap(data), err, len(s.presize))
		}
	}
}

// TestServeStalledUploadsDoNotPresize: clients that declare the maximum
// length and then send nothing hold at most QueueDepth+Runners buffers of
// that size; past that a stalled upload holds only what it has sent, and an
// honest upload arriving meanwhile is still read and served.
func TestServeStalledUploadsDoNotPresize(t *testing.T) {
	const limit = 1 << 20
	s, err := New(Config{Runners: 1, QueueDepth: 1, MaxTraceBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var stalled []net.Conn
	for range 2 * cap(s.presize) {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST /v1/traces HTTP/1.1\r\nHost: stint\r\nContent-Length: %d\r\n\r\n", limit)
		stalled = append(stalled, conn)
	}
	waitTokens := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); len(s.presize) != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d presize tokens held, want %d", len(s.presize), want)
			}
		}
	}
	waitTokens(cap(s.presize))

	raw := recordTrace(t, 512, 64)
	id, code := postTrace(t, ts, raw)
	if code != http.StatusAccepted {
		t.Fatalf("upload beside stalled ones: status %d", code)
	}
	if res := pollResult(t, ts, id); res.Status != "done" {
		t.Fatalf("upload beside stalled ones: %+v", res)
	}
	for _, conn := range stalled {
		conn.Close()
	}
	waitTokens(0)
	if st := s.Stats(); st.Admitted != 1 || st.Oversized != 0 || st.Rejected != 0 {
		t.Fatalf("stats: %+v, want the one honest upload admitted", st)
	}
}
