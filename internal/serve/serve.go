// Package serve implements a long-lived trace-ingest service: an HTTP
// server that accepts recorded execution traces, replays each through a
// bounded fleet of pre-warmed, reused Runners, and exposes the resulting
// race reports over a small JSON API.
//
// The service is the payoff of the reset-and-reuse Runner lifecycle: every
// worker owns one Runner whose slab pools, page directories, and pipeline
// state are allocated once and rewound between traces, so steady-state
// ingest performs no per-trace heap growth. Reports are byte-identical to
// fresh-Runner replays — the reuse-exactness contract is load-bearing
// here, not an optimization footnote.
//
// API:
//
//	POST /v1/traces      body: raw trace bytes → {"id": "t-000001"} (202)
//	GET  /v1/results/ID  → result JSON (status queued|running|done|error)
//	GET  /v1/statusz     → pool utilization and admission counters
//
// Admission is backpressured: a bounded queue sits in front of the worker
// fleet and a full queue rejects uploads with 429 instead of buffering
// without bound. Per-run caps bound each replay's memory: uploads larger
// than MaxTraceBytes are rejected with 413 before queuing, and traces
// exceeding the MaxEvents budget are aborted mid-replay (the worker's
// Runner resets and stays in the pool). Both show up in Stats.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"stint"
	"stint/trace"
)

// Config configures a Server. The zero value serves with two warm Runners
// running the STINT detector.
type Config struct {
	// Runners is the worker-fleet size: that many Runners are built and
	// warmed at startup, and at most that many traces replay concurrently.
	// Default 2.
	Runners int
	// QueueDepth bounds the admission queue in front of the fleet; a full
	// queue rejects uploads with 429. Default 2×Runners.
	QueueDepth int
	// MaxTraceBytes rejects uploads larger than this with 413 before they
	// reach the queue. Default 64 MiB; negative disables the cap.
	MaxTraceBytes int64
	// MaxEvents bounds the events one replay may consume
	// (trace.Options.MaxEvents); an oversized trace aborts with its result
	// status "error" and counts as oversized in Stats. 0 = unbounded.
	MaxEvents uint64
	// Opts configures every pooled Runner (detector, pipeline mode, race
	// recording bounds, and the per-run resource caps PageQuiesceThreshold
	// and MaxHistoryBytes — a replay tripping the history cap aborts with
	// its result status "error" and counts as oversized, and the worker's
	// Runner resets and stays in the pool). Detector defaults to
	// DetectorSTINT; Tracer and OnRace must be unset — the service owns
	// both ends of the replay — and so must ParallelDetect, which
	// trace.Replay cannot drive (trace.ErrParallelRunner).
	Opts stint.Options
	// MaxResults bounds the retained result set; the oldest results are
	// evicted first. Default 256.
	MaxResults int
}

const defaultMaxTraceBytes = 64 << 20

func (c Config) withDefaults() Config {
	if c.Runners <= 0 {
		c.Runners = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Runners
	}
	if c.MaxTraceBytes == 0 {
		c.MaxTraceBytes = defaultMaxTraceBytes
	}
	if c.MaxResults <= 0 {
		c.MaxResults = 256
	}
	if c.Opts.Detector == stint.DetectorOff {
		c.Opts.Detector = stint.DetectorSTINT
	}
	if c.Opts.MaxRacesRecorded == 0 {
		c.Opts.MaxRacesRecorded = stint.DefaultMaxRacesRecorded
	}
	return c
}

// Result is the JSON-visible state of one submitted trace.
type Result struct {
	ID     string `json:"id"`
	Status string `json:"status"` // queued | running | done | error
	Error  string `json:"error,omitempty"`
	// Filled in when Status == "done".
	RaceCount uint64   `json:"race_count"`
	Strands   int      `json:"strands"`
	Races     []string `json:"races,omitempty"` // canonical order, Race.String() form
	WallTime  string   `json:"wall_time,omitempty"`

	done chan struct{}
}

// Stats is the /v1/statusz payload: pool utilization and admission
// counters since the server started.
type Stats struct {
	Runners      int     `json:"runners"`
	Busy         int     `json:"busy"`
	Idle         int     `json:"idle"`
	QueueLen     int     `json:"queue_len"`
	QueueCap     int     `json:"queue_cap"`
	Admitted     uint64  `json:"admitted"`
	Rejected     uint64  `json:"rejected"`  // 429s: queue full
	Oversized    uint64  `json:"oversized"` // 413s + MaxEvents/MaxHistoryBytes aborts
	Failed       uint64  `json:"failed"`    // replay errors other than oversize, panics included
	Completed    uint64  `json:"completed"`
	UptimeSec    float64 `json:"uptime_sec"`
	TracesPerSec float64 `json:"traces_per_sec"` // completed / uptime
}

type job struct {
	id   string
	data []byte
}

// Server is a trace-ingest service instance. Create with New, serve its
// Handler, and Close it to stop the worker fleet.
type Server struct {
	cfg   Config
	queue chan job
	// presize holds one token per upload read into a buffer sized from its
	// declared length before the bytes arrive (readUpload).
	presize chan struct{}
	quit    chan struct{}
	wg      sync.WaitGroup
	start   time.Time

	busy      atomic.Int64
	admitted  atomic.Uint64
	rejected  atomic.Uint64
	oversized atomic.Uint64
	failed    atomic.Uint64
	completed atomic.Uint64

	mu      sync.Mutex
	nextID  uint64
	results map[string]*Result
	order   []string
}

// New builds the Runner fleet, warms every Runner, and starts the workers.
func New(cfg Config) (*Server, error) {
	if cfg.Opts.Tracer != nil || cfg.Opts.OnRace != nil {
		return nil, errors.New("serve: Opts.Tracer and Opts.OnRace must be unset")
	}
	if cfg.Opts.ParallelDetect {
		return nil, fmt.Errorf("serve: Opts.ParallelDetect must be unset: %w", trace.ErrParallelRunner)
	}
	return start(cfg.withDefaults())
}

// start is New past validation; tests call it directly to run the fleet
// with a misbehaving OnRace.
func start(cfg Config) (*Server, error) {
	runners := make([]*stint.Runner, cfg.Runners)
	for i := range runners {
		r, err := warmRunner(cfg.Opts)
		if err != nil {
			return nil, fmt.Errorf("serve: building runner fleet: %w", err)
		}
		runners[i] = r
	}
	s := &Server{
		cfg:     cfg,
		queue:   make(chan job, cfg.QueueDepth),
		presize: make(chan struct{}, cfg.QueueDepth+cfg.Runners),
		quit:    make(chan struct{}),
		start:   time.Now(),
		results: make(map[string]*Result),
	}
	for _, r := range runners {
		s.wg.Add(1)
		go s.worker(r)
	}
	return s, nil
}

// warmRunner builds one pooled Runner and runs the full pipeline (stage
// graph, channels, engines) once, empty, so ingest latency never pays
// first-run construction.
func warmRunner(opts stint.Options) (*stint.Runner, error) {
	r, err := stint.NewRunner(opts)
	if err != nil {
		return nil, err
	}
	if _, err := r.Run(func(*stint.Task) {}); err != nil {
		return nil, err
	}
	return r, nil
}

// Close stops accepting work and waits for in-flight replays to finish.
// Queued-but-unstarted traces finish too: the queue is drained, not
// dropped.
func (s *Server) Close() {
	close(s.quit)
	s.wg.Wait()
}

func (s *Server) worker(r *stint.Runner) {
	defer s.wg.Done()
	for {
		// Drain the queue even while shutting down, but prefer quit when
		// the queue is empty.
		select {
		case j := <-s.queue:
			r = s.replay(r, j)
		case <-s.quit:
			select {
			case j := <-s.queue:
				r = s.replay(r, j)
			default:
				return
			}
		}
	}
}

// replay runs one trace on the worker's Runner and returns the Runner the
// worker continues with: r itself, or a rebuilt one after a panic. A panic
// anywhere under the replay — on this goroutine, or in a pipeline stage,
// whose failure stage.Graph re-raises here once every stage has exited —
// fails that trace alone: its result becomes "error", and the Runner, whose
// state the unwind may have left half-updated, is discarded rather than
// trusted to Reset.
func (s *Server) replay(r *stint.Runner, j job) (next *stint.Runner) {
	s.busy.Add(1)
	defer s.busy.Add(-1)
	s.setStatus(j.id, "running")
	next = r
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		s.finishErr(j.id, fmt.Errorf("serve: replay panicked: %v", p))
		// The same Options built the original fleet, so the rebuild cannot
		// fail; were it to, the worker keeps r and Run's auto-reset.
		if fresh, err := warmRunner(s.cfg.Opts); err == nil {
			next = fresh
		}
	}()

	rep, err := trace.Replay(bytes.NewReader(j.data), trace.Options{Runner: r, MaxEvents: s.cfg.MaxEvents})
	if err != nil {
		s.finishErr(j.id, err)
		return
	}
	s.completed.Add(1)
	races := make([]string, len(rep.Races))
	for i, rc := range rep.Races {
		races[i] = rc.String()
	}
	s.finish(j.id, func(res *Result) {
		res.Status = "done"
		res.RaceCount = rep.RaceCount
		res.Strands = rep.Strands
		res.Races = races
		res.WallTime = rep.WallTime.String()
	})
	return
}

// finishErr records a failed replay. Each failure increments exactly one
// counter: the per-run resource caps (event budget, history cap) count as
// oversized, everything else as failed. A 413 body rejection also counts
// as oversized but never reaches admit, so no upload can be counted twice.
func (s *Server) finishErr(id string, err error) {
	if errors.Is(err, trace.ErrTooManyEvents) || errors.Is(err, stint.ErrHistoryCap) {
		s.oversized.Add(1)
	} else {
		s.failed.Add(1)
	}
	s.finish(id, func(res *Result) {
		res.Status = "error"
		res.Error = err.Error()
	})
}

func (s *Server) setStatus(id, status string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if res := s.results[id]; res != nil {
		res.Status = status
	}
}

func (s *Server) finish(id string, fill func(*Result)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := s.results[id]
	if res == nil {
		return // evicted while running
	}
	fill(res)
	close(res.done)
}

// admit enqueues the trace and, only once the queue has taken it, registers
// its result record and evicts beyond MaxResults — a rejected upload (false)
// changes nothing but the counter. The non-blocking send happens under s.mu,
// so the worker's setStatus cannot run before the record exists.
func (s *Server) admit(data []byte) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := fmt.Sprintf("t-%06d", s.nextID+1)
	select {
	case s.queue <- job{id: id, data: data}:
	default:
		s.rejected.Add(1)
		return "", false
	}
	s.admitted.Add(1)
	s.nextID++
	s.results[id] = &Result{ID: id, Status: "queued", done: make(chan struct{})}
	s.order = append(s.order, id)
	for len(s.order) > s.cfg.MaxResults {
		evict := s.order[0]
		s.order = s.order[1:]
		// A non-terminal record can be evicted while its trace is still
		// queued or replaying. Resolve it before it disappears: anything
		// blocked in wait() unblocks, and the worker's later finish() finds
		// no record and leaves the closed channel alone (no double close).
		if old := s.results[evict]; old != nil && old.Status != "done" && old.Status != "error" {
			old.Status = "error"
			old.Error = "evicted before completion"
			close(old.done)
		}
		delete(s.results, evict)
	}
	return id, true
}

// result looks up a result record by id.
func (s *Server) result(id string) (*Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.results[id]
	if !ok {
		return nil, false
	}
	// Copy under the lock: workers mutate the record in place.
	cp := *res
	cp.done = nil
	return &cp, true
}

// wait blocks until the result with the given id reaches a terminal
// status. Test and benchmark plumbing.
func (s *Server) wait(id string) {
	s.mu.Lock()
	res := s.results[id]
	s.mu.Unlock()
	if res != nil {
		<-res.done
	}
}

// Stats snapshots the pool and admission counters.
func (s *Server) Stats() Stats {
	busy := int(s.busy.Load())
	up := time.Since(s.start).Seconds()
	st := Stats{
		Runners:   s.cfg.Runners,
		Busy:      busy,
		Idle:      s.cfg.Runners - busy,
		QueueLen:  len(s.queue),
		QueueCap:  cap(s.queue),
		Admitted:  s.admitted.Load(),
		Rejected:  s.rejected.Load(),
		Oversized: s.oversized.Load(),
		Failed:    s.failed.Load(),
		Completed: s.completed.Load(),
		UptimeSec: up,
	}
	if up > 0 {
		st.TracesPerSec = float64(st.Completed) / up
	}
	return st
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/traces", s.handleUpload)
	mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	mux.HandleFunc("GET /v1/statusz", s.handleStatusz)
	return mux
}

func (s *Server) handleUpload(w http.ResponseWriter, req *http.Request) {
	limit := s.cfg.MaxTraceBytes
	if limit > 0 && req.ContentLength > limit {
		s.tooBig(w, limit)
		return
	}
	body := req.Body
	if limit > 0 {
		body = http.MaxBytesReader(w, body, limit)
	}
	data, err := s.readUpload(body, req.ContentLength)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.tooBig(w, tooBig.Limit)
			return
		}
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	id, ok := s.admit(data)
	if !ok {
		writeJSON(w, http.StatusTooManyRequests,
			map[string]string{"error": "admission queue full"})
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

// tooBig answers 413 and counts the upload as oversized.
func (s *Server) tooBig(w http.ResponseWriter, limit int64) {
	s.oversized.Add(1)
	writeJSON(w, http.StatusRequestEntityTooLarge,
		map[string]string{"error": fmt.Sprintf("trace exceeds %d bytes", limit)})
}

// readUpload reads a whole upload into one buffer. If a presize token is
// free, a declared length, trusted up to MaxTraceBytes (or the default cap
// when it is disabled), sizes the buffer up front, plus bytes.MinRead for
// the read that meets EOF; otherwise the buffer doubles as bytes arrive.
// The tokens, one per queue slot and Runner, bound the declared-size
// buffers that clients who stall can pin before sending their bytes.
func (s *Server) readUpload(body io.Reader, declared int64) ([]byte, error) {
	var buf bytes.Buffer
	if declared > 0 {
		select {
		case s.presize <- struct{}{}:
			defer func() { <-s.presize }()
			limit := s.cfg.MaxTraceBytes
			if limit <= 0 {
				limit = defaultMaxTraceBytes
			}
			buf.Grow(int(min(declared, limit)) + bytes.MinRead)
		default:
		}
	}
	_, err := buf.ReadFrom(body)
	return buf.Bytes(), err
}

func (s *Server) handleResult(w http.ResponseWriter, req *http.Request) {
	res, ok := s.result(req.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown or evicted result id"})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleStatusz(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
