package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	pollInterval   = 500 * time.Microsecond // fixed wait between result polls
	requestTimeout = 10 * time.Second       // an upload without a verdict by then has failed
	statuszEvery   = 20 * time.Millisecond  // traced runs sample /v1/statusz this often
)

// server is a running stint-serve child.
type server struct {
	cmd  *exec.Cmd
	base string  // http://127.0.0.1:port
	hwm  float64 // VmHWM in MiB, read when stopped
	done bool
}

// startServer launches stint-serve on a kernel-chosen port with one Runner
// per processor and waits for it to announce its address.
func startServer(bin string, procs int) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-runners", strconv.Itoa(procs))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	// A server that never announces itself must not hang the benchmark.
	watchdog := time.AfterFunc(requestTimeout, func() { _ = cmd.Process.Kill() })
	line, err := bufio.NewReader(out).ReadString('\n')
	watchdog.Stop()
	_, rest, ok := strings.Cut(line, "listening on ")
	if err != nil || !ok {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("%s did not announce its address (got %q): %v", bin, line, err)
	}
	addr, _, _ := strings.Cut(rest, " ")
	return &server{cmd: cmd, base: "http://" + addr}, nil
}

// stop reads the child's peak resident set, kills it and waits for it to
// end. Stopping twice is harmless.
func (s *server) stop() (float64, error) {
	if s.done {
		return s.hwm, nil
	}
	s.done = true
	hwm, err := peakRSSMiB(s.cmd.Process.Pid)
	s.hwm = hwm
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait() // "signal: killed" is the expected outcome
	return hwm, err
}

// servedResult mirrors the JSON of GET /v1/results/{id}.
type servedResult struct {
	Status    string   `json:"status"`
	Error     string   `json:"error"`
	RaceCount uint64   `json:"race_count"`
	Strands   int      `json:"strands"`
	Races     []string `json:"races"`
	WallTime  string   `json:"wall_time"`
}

// request is the client-side timing of one upload-to-verdict round trip.
type request struct {
	latency time.Duration // first byte of the POST to the poll that saw the verdict
	upload  time.Duration // the POST
	replay  time.Duration // the server's Result.WallTime
	fetch   time.Duration // the poll that saw the verdict
	polls   int
	done    time.Time // when the verdict was seen
}

// served is what the service phase measured.
type served struct {
	samples    []request // timed requests with a correct verdict
	perSec     float64   // those, per second of the clients' whole timed windows
	busyShare  float64   // mean busy/runners over the statusz samples (traced runs)
	rejected   float64
	oversized  float64
	uploadSecs float64 // summed upload time of the samples
}

// servePhase drives the server with a closed loop of one client per
// processor — CI jobs that each wait for their verdict before sending the
// next trace — for the budget, after warm-up uploads per client.
func (b *bench) servePhase(budget time.Duration) (*served, error) {
	srv := b.env.srv
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: b.cfg.procs}}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(budget)

	var (
		mu  sync.Mutex
		res served
		wg  sync.WaitGroup
	)
	for c := 0; c < b.cfg.procs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []request
			var start time.Time
			for i := 0; ; i++ {
				timed := i >= warmupRounds
				if i == warmupRounds {
					start = time.Now()
				}
				if timed {
					n := i - warmupRounds
					if b.cfg.rounds > 0 && n >= b.cfg.rounds {
						break
					}
					if b.cfg.rounds == 0 && n >= minTimedRounds && time.Now().After(deadline) {
						break
					}
				}
				req, err := b.oneRequest(client, srv.base, c*1_000_000+i)
				if b.gate(err, "served trace") && timed {
					mine = append(mine, req)
				}
			}
			window := time.Since(start).Seconds()
			mu.Lock()
			res.samples = append(res.samples, mine...)
			res.perSec += float64(len(mine)) / window
			mu.Unlock()
		}(c)
	}

	// Traced runs sample pool utilisation from outside while the load runs.
	stopSampler := func() {}
	if b.cfg.traced {
		stopSampler = sampleBusyShare(client, srv.base, &res.busyShare)
	}
	wg.Wait()
	stopSampler()

	st, err := statusz(client, srv.base)
	if err != nil {
		return nil, fmt.Errorf("statusz: %w", err)
	}
	res.rejected, res.oversized = float64(st.Rejected), float64(st.Oversized)
	for _, r := range res.samples {
		res.uploadSecs += r.upload.Seconds()
	}
	return &res, nil
}

// sampleBusyShare polls /v1/statusz until the returned stop function is
// called, which stores the mean busy/runners share it saw in *share.
func sampleBusyShare(client *http.Client, base string, share *float64) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		var busy, n float64
		tick := time.NewTicker(statuszEvery)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				*share = ratio(busy, n)
				return
			case <-tick.C:
				if st, err := statusz(client, base); err == nil && st.Runners > 0 {
					busy += float64(st.Busy) / float64(st.Runners)
					n++
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

// oneRequest uploads the trace, polls for the verdict at the fixed
// interval, and checks the verdict against the offline reference.
func (b *bench) oneRequest(client *http.Client, base string, id int) (request, error) {
	var req request
	root := b.rec.begin("serve.request", -1, id)
	defer b.rec.end(root)

	sp := b.rec.begin("serve.upload", root, id)
	t0 := time.Now()
	var ticket struct {
		ID string `json:"id"`
	}
	code, err := doJSON(client, http.MethodPost, base+"/v1/traces", b.env.trace, &ticket)
	req.upload = time.Since(t0)
	b.rec.end(sp)
	if err != nil {
		return req, err
	}
	if code != http.StatusAccepted {
		return req, fmt.Errorf("upload answered %d, want 202", code)
	}

	var got servedResult
	for {
		if time.Since(t0) > requestTimeout {
			return req, fmt.Errorf("no verdict for %s within %v", ticket.ID, requestTimeout)
		}
		sp := b.rec.begin("serve.poll", root, id)
		p0 := time.Now()
		code, err := doJSON(client, http.MethodGet, base+"/v1/results/"+ticket.ID, nil, &got)
		req.fetch = time.Since(p0)
		b.rec.end(sp)
		req.polls++
		if err != nil {
			return req, err
		}
		if code != http.StatusOK {
			return req, fmt.Errorf("result %s answered %d", ticket.ID, code)
		}
		if got.Status == "done" || got.Status == "error" {
			break
		}
		time.Sleep(pollInterval)
	}
	req.done = time.Now()
	req.latency = req.done.Sub(t0)

	ref := b.env.ref
	switch {
	case got.Status != "done":
		return req, fmt.Errorf("result %s: status %s: %s", ticket.ID, got.Status, got.Error)
	case got.RaceCount != ref.RaceCount:
		return req, fmt.Errorf("result %s: %d races, offline replay has %d", ticket.ID, got.RaceCount, ref.RaceCount)
	case got.Strands != ref.Strands:
		return req, fmt.Errorf("result %s: %d strands, offline replay has %d", ticket.ID, got.Strands, ref.Strands)
	case !slices.Equal(got.Races, b.env.refRaces):
		return req, fmt.Errorf("result %s: race set differs from the offline replay", ticket.ID)
	}
	if req.replay, err = time.ParseDuration(got.WallTime); err != nil {
		return req, fmt.Errorf("result %s: wall_time: %w", ticket.ID, err)
	}
	return req, nil
}

// doJSON performs one request and decodes the JSON answer into out.
func doJSON(client *http.Client, method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, url, err)
	}
	return resp.StatusCode, nil
}

// poolStatus is the part of /v1/statusz the ledger reads.
type poolStatus struct {
	Runners   int    `json:"runners"`
	Busy      int    `json:"busy"`
	Rejected  uint64 `json:"rejected"`
	Oversized uint64 `json:"oversized"`
}

func statusz(client *http.Client, base string) (poolStatus, error) {
	var st poolStatus
	_, err := doJSON(client, http.MethodGet, base+"/v1/statusz", nil, &st)
	return st, err
}

// endToEnd fills in the service phase's end-to-end metric — what a verdict
// costs through the service as a multiple of its replay, request by request
// — and the absolute throughput and latency behind it.
func (s *served) endToEnd(vals values) error {
	if len(s.samples) < 2 {
		return fmt.Errorf("%d served traces passed the correctness gate, need at least 2", len(s.samples))
	}
	n := len(s.samples)
	vals["serve_latency_x"] = summarize(mapF(s.samples, func(r request) float64 { return ratio(ms(r.latency), ms(r.replay)) }))
	lat := mapF(s.samples, func(r request) float64 { return ms(r.latency) })
	vals["traces_per_s"] = stat(s.bestQuarterRate(), n)
	vals["latency_ms"] = timing(lat)
	vals["latency_ms_p50"] = stat(percentile(lat, 0.5), n)
	vals["latency_ms_p90"] = stat(percentile(lat, 0.9), n)
	return nil
}

// bestQuarterRate returns the throughput over the fastest contiguous
// stretch holding a quarter of the timed verdicts: a rate that was really
// sustained, and — like the fast-quarter mean of a timing — the one least
// disturbed by whatever else loaded the box during the phase.
func (s *served) bestQuarterRate() float64 {
	done := make([]time.Time, len(s.samples))
	for i, r := range s.samples {
		done[i] = r.done
	}
	slices.SortFunc(done, func(a, b time.Time) int { return a.Compare(b) })
	k := max(2, len(done)/4)
	best := 0.0
	for i := 0; i+k <= len(done); i++ {
		// k verdicts span k-1 inter-arrival gaps.
		best = max(best, float64(k-1)/done[i+k-1].Sub(done[i]).Seconds())
	}
	return best
}

// ledger fills in the per-layer metrics of the service path from the
// client-side request timings and /v1/statusz.
func (s *served) ledger(vals values, traceBytes int) {
	col := func(f func(request) float64) dist { return summarize(mapF(s.samples, f)) }
	vals["serve.upload_ms_p50"] = col(func(r request) float64 { return ms(r.upload) })
	vals["serve.replay_ms_p50"] = col(func(r request) float64 { return ms(r.replay) })
	vals["serve.result_fetch_ms_p50"] = col(func(r request) float64 { return ms(r.fetch) })
	vals["serve.queue_wait_ms_p50"] = col(func(r request) float64 {
		return ms(r.latency - r.upload - r.replay - r.fetch)
	})
	n := len(s.samples)
	polls := 0
	for _, r := range s.samples {
		polls += r.polls
	}
	vals["serve.polls_per_trace"] = stat(float64(polls)/float64(n), n)
	lat := mapF(s.samples, func(r request) float64 { return ms(r.latency) })
	vals["serve.traces_per_s_mean"] = stat(s.perSec, n)
	vals["serve.latency_ms_p99"] = stat(percentile(lat, 0.99), n)
	vals["serve.latency_ms_max"] = stat(percentile(lat, 1), n)
	vals["serve.upload_mb_per_s"] = stat(ratio(float64(traceBytes)*float64(n)/1e6, s.uploadSecs), n)
	vals["serve.busy_share"] = point(s.busyShare)
	vals["serve.rejected_429"] = point(s.rejected)
	vals["serve.oversized"] = point(s.oversized)
}
