package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"stint"
	"stint/trace"
	"stint/workloads"
)

// config is one invocation's settings, shared by every workload it runs.
type config struct {
	seed    int64
	seconds float64 // time budget of the measured phases of one workload
	// rounds > 0 replaces the time budget with fixed work: that many timed
	// live rounds and that many timed uploads per client.
	rounds   int
	traced   bool
	procs    int    // GOMAXPROCS of this process and of the stint-serve child
	serveBin string // built stint-serve binary
	outDir   string // where a traced run writes trace-<workload>.json
}

const (
	warmupRounds   = 2 // live rounds and per-client uploads discarded before timing
	minTimedRounds = 3 // a time budget never cuts a phase below this
	setupReps      = 5 // set-ups per run; setup_s is their median
)

// metric is one reported value: the headline (for a timing, the
// fast-quarter mean; see stats.go) with the median, quartiles and size of
// its sample. Exact counts and peaks are single points.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Exact  bool    `json:"exact,omitempty"`
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	N      int     `json:"n"`
}

// result is one workload's outcome.
type result struct {
	Workload     string   `json:"workload"`
	Params       string   `json:"params"`
	PadBytes     int      `json:"seed_pad_bytes"`
	LiveRounds   int      `json:"live_rounds_timed"`
	ServeUploads int      `json:"serve_uploads_timed"`
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	Failures     []string `json:"failures,omitempty"`
	EndToEnd     []metric `json:"end_to_end"`
	PerLayer     []metric `json:"per_layer"` // all of them in a traced run, else those measured anyway
}

// metrics returns the end-to-end metrics followed by the per-layer ones.
func (r *result) metrics() []metric {
	return append(slices.Clone(r.EndToEnd), r.PerLayer...)
}

// env is what set-up produces: warm Runners, the seeded trace, the offline
// reference every served and live report is held against, and the server.
type env struct {
	runners  map[string]*stint.Runner // by mode name
	trace    []byte
	ref      *stint.Report
	refRaces []string // ref.Races in the service's string form
	srv      *server
}

// bench is the state of one workload's run.
type bench struct {
	cfg   config
	wl    workload
	modes []mode     // liveModes, plus ladderModes in a traced run
	pad   int        // seed-derived pad, bytes
	rng   *rand.Rand // per-round mode order
	rec   *recorder  // nil unless traced
	env   *env

	mu        sync.Mutex // service clients gate results concurrently
	attempted int
	failed    int
	failures  []string
}

// runWorkload sets up, measures and gates one workload.
func runWorkload(cfg config, wl workload) (*result, error) {
	resetPeakRSS()
	rng := rand.New(rand.NewSource(cfg.seed))
	b := &bench{cfg: cfg, wl: wl, modes: liveModes, rng: rng}
	// The pad shifts every buffer against the 64 KiB shadow-page, shard-hash
	// and bitmap-word boundaries the detector's behaviour depends on.
	b.pad = rng.Intn(64<<10) &^ 3
	reps := setupReps
	if cfg.traced {
		// The ladder's modes run in the same rounds as the live modes, so
		// the walls the ledger subtracts were taken side by side.
		b.modes = append(slices.Clone(liveModes), ladderModes...)
		b.rec = newRecorder()
		reps = 1
	}

	var setups []float64
	for i := 0; i < reps; i++ {
		if b.env != nil {
			if _, err := b.env.srv.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		e, err := b.setUp(i)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b.env = e
	}
	defer b.env.srv.stop() // error paths; the normal path stops it below and this becomes a no-op

	budget := time.Duration(cfg.seconds * float64(time.Second))
	liveBudget := time.Duration(float64(budget) * wl.liveShare)
	serveBudget := budget - liveBudget

	vals := values{"setup_s": summarize(setups)}
	deadline := time.Now().Add(liveBudget)
	live := b.runRounds(func(timed int) bool {
		if cfg.rounds > 0 {
			return timed < cfg.rounds
		}
		return timed < minTimedRounds || time.Now().Before(deadline)
	})
	if err := live.endToEnd(vals); err != nil {
		return nil, err
	}
	if cfg.traced {
		if err := b.ledger(live, vals); err != nil {
			return nil, err
		}
	}
	serve, err := b.servePhase(serveBudget)
	if err != nil {
		return nil, err
	}
	hwm, err := b.env.srv.stop()
	if err != nil {
		return nil, err
	}
	vals["serve.rss_peak_mb"] = point(hwm)
	if err := serve.endToEnd(vals); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	if cfg.traced {
		serve.ledger(vals, len(b.env.trace))
	}
	vals["failed_share"] = point(ratio(float64(b.failed), float64(b.attempted)))

	w := wl.new()
	res := &result{
		Workload:     wl.name,
		Params:       w.Name() + " " + w.Params(),
		PadBytes:     b.pad,
		LiveRounds:   live.timed,
		ServeUploads: len(serve.samples),
		Attempted:    b.attempted,
		Failed:       b.failed,
		Failures:     b.failures,
		EndToEnd:     vals.collect(endToEndDefs()),
		PerLayer:     vals.collect(perLayerDefs),
	}
	if cfg.traced {
		tf := traceFile{Workload: wl.name, Seed: cfg.seed, Summary: summarizeSpans(b.rec.spans), Spans: b.rec.spans}
		if err := writeJSON(filepath.Join(cfg.outDir, "trace-"+wl.name+".json"), tf); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// values holds measured metrics by name until they are put in table order.
type values map[string]dist

// collect returns the measured metrics among defs, in defs order.
func (v values) collect(defs []metricDef) []metric {
	var out []metric
	for _, d := range defs {
		if x, ok := v[d.Name]; ok {
			out = append(out, metric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound, Exact: d.Exact,
				Value: x.Value, Median: x.Median, P25: x.P25, P75: x.P75, N: x.N})
		}
	}
	return out
}

// setUp does everything a run needs before its first measurement: warm
// Runners for every live mode, the trace of the seeded run, its offline
// reference, and a started server.
func (b *bench) setUp(rep int) (*env, error) {
	root := b.rec.begin("bench.setup", -1, rep)
	defer b.rec.end(root)
	e := &env{runners: make(map[string]*stint.Runner)}

	sp := b.rec.begin("setup.runners", root, rep)
	for _, m := range b.modes {
		r, err := newWarmRunner(m.opts)
		if err != nil {
			return nil, fmt.Errorf("mode %s: %w", m.name, err)
		}
		e.runners[m.name] = r
	}
	b.rec.end(sp)

	sp = b.rec.begin("setup.record", root, rep)
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	err := b.runWithTracer(rec)
	if err == nil {
		err = rec.Flush()
	}
	if err != nil {
		return nil, fmt.Errorf("recording run: %w", err)
	}
	e.trace = buf.Bytes()
	b.rec.end(sp)

	sp = b.rec.begin("setup.reference", root, rep)
	e.ref, err = trace.Replay(bytes.NewReader(e.trace), trace.Options{Detector: stint.DetectorSTINT})
	if err != nil {
		return nil, fmt.Errorf("offline reference: %w", err)
	}
	if e.ref.Racy() != b.wl.racy {
		return nil, fmt.Errorf("offline reference found %d races, workload racy=%v", e.ref.RaceCount, b.wl.racy)
	}
	for _, rc := range e.ref.Races {
		e.refRaces = append(e.refRaces, rc.String())
	}
	b.rec.end(sp)

	sp = b.rec.begin("setup.server", root, rep)
	e.srv, err = startServer(b.cfg.serveBin, b.cfg.procs)
	b.rec.end(sp)
	return e, err
}

// newWarmRunner builds a Runner and its detector pipeline (an empty Run),
// so no timed Run pays first-run construction.
func newWarmRunner(opts stint.Options) (*stint.Runner, error) {
	r, err := stint.NewRunner(opts)
	if err != nil {
		return nil, err
	}
	if _, err := r.Run(func(*stint.Task) {}); err != nil {
		return nil, err
	}
	return r, nil
}

// runWithTracer runs the seeded workload once on a fresh Runner with
// detection off, handing every event to t, and verifies what it computed.
func (b *bench) runWithTracer(t stint.Tracer) error {
	r, err := stint.NewRunner(stint.Options{Tracer: t})
	if err != nil {
		return err
	}
	w := b.instance(r)
	if _, err := r.Run(w.Run); err != nil {
		return err
	}
	return w.Verify()
}

// instance allocates the seed pad and sets a fresh workload instance up on
// r, whose arena must be empty.
func (b *bench) instance(r *stint.Runner) workloads.Workload {
	r.Arena().AllocWords("bench.pad", b.pad/4)
	w := b.wl.new()
	w.Setup(r)
	return w
}

// rounds is what the live rounds measured. The slices of one mode are
// parallel to those of every other: index i is the i-th timed round, so
// two modes' walls of one round can be paired.
type rounds struct {
	walls   map[string][]float64 // ms
	reports map[string][]*stint.Report
	// spansOn tells, per timed round of a traced run, whether span
	// recording was on (it alternates, for the overhead).
	spansOn []bool
	timed   int
}

// runRounds runs rounds of one timed leg per mode, in a seeded order per
// round, discarding the warm-up rounds, while more(rounds run since the
// warm-up) holds. Every leg, timed or not, passes the correctness gate; a round in
// which one failed it is not timed.
func (b *bench) runRounds(more func(timed int) bool) *rounds {
	res := &rounds{walls: make(map[string][]float64), reports: make(map[string][]*stint.Report)}
	for round := 0; round < warmupRounds || more(round-warmupRounds); round++ {
		on := round%2 == 0
		b.rec.enable(on)
		rs := b.rec.begin("bench.round", -1, round)
		walls := make(map[string]float64)
		reports := make(map[string]*stint.Report)
		for _, i := range b.rng.Perm(len(b.modes)) {
			m := b.modes[i]
			if rep, wall := b.runOnce(m, b.env.runners[m.name], rs, round); rep != nil {
				walls[m.name], reports[m.name] = ms(wall), rep
			}
		}
		b.rec.end(rs)
		if round < warmupRounds || len(walls) < len(b.modes) {
			continue
		}
		for name, w := range walls {
			res.walls[name] = append(res.walls[name], w)
			res.reports[name] = append(res.reports[name], reports[name])
		}
		res.spansOn = append(res.spansOn, on)
		res.timed++
	}
	b.rec.enable(true)
	return res
}

// runOnce times one leg on a warm Runner — Runner.Run of a fresh workload
// instance, or trace.Replay of the set-up trace — and only that, then gates
// the outcome. It returns a nil report when the gate failed.
func (b *bench) runOnce(m mode, r *stint.Runner, parent, id int) (*stint.Report, time.Duration) {
	sp := b.rec.begin("stint.Runner.Reset", parent, id)
	r.Reset()
	r.Arena().Reset()
	b.rec.end(sp)
	var w workloads.Workload
	if !m.replay {
		sp = b.rec.begin("workloads.Setup", parent, id)
		w = b.instance(r)
		b.rec.end(sp)
	}
	sp = b.rec.begin("runtime.GC", parent, id)
	runtime.GC()
	b.rec.end(sp)

	var rep *stint.Report
	var err error
	sp = b.rec.begin("stint.Runner.Run/"+m.name, parent, id)
	t0 := time.Now()
	if m.replay {
		rep, err = trace.Replay(bytes.NewReader(b.env.trace), trace.Options{Runner: r})
	} else {
		rep, err = r.Run(w.Run)
	}
	wall := time.Since(t0)
	b.rec.end(sp)

	sp = b.rec.begin("bench.gate", parent, id)
	if err == nil {
		err = b.checkLive(m, w, rep)
	}
	b.rec.end(sp)
	if !b.gate(err, "live leg "+m.name) {
		return nil, wall
	}
	return rep, wall
}

// checkLive holds one live Run to its expected outcome: a verified result,
// and detection identical to the offline reference.
func (b *bench) checkLive(m mode, w workloads.Workload, rep *stint.Report) error {
	// A replay computes nothing to verify. A racy program executed in
	// parallel computes nondeterministic data (Options.ParallelDetect says
	// so); its detection is still exact.
	if !m.replay && !(b.wl.racy && m.opts.ParallelDetect) {
		if err := w.Verify(); err != nil {
			return err
		}
	}
	switch m.opts.Detector {
	case stint.DetectorOff:
		return nil
	case stint.DetectorReachOnly:
		if rep.Strands != b.env.ref.Strands {
			return fmt.Errorf("%d strands, reference has %d", rep.Strands, b.env.ref.Strands)
		}
		return nil
	case stint.DetectorSTINT:
		return sameDetection(rep, b.env.ref)
	default:
		// The hashmap detectors report at word granularity: their counts
		// differ from STINT's, their verdict may not.
		if rep.Racy() != b.wl.racy {
			return fmt.Errorf("%d races, workload racy=%v", rep.RaceCount, b.wl.racy)
		}
		return nil
	}
}

// gate counts one operation and, when err is non-nil, one failure.
func (b *bench) gate(err error, what string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err == nil {
		return true
	}
	b.failed++
	if len(b.failures) < 8 {
		b.failures = append(b.failures, fmt.Sprintf("%s: %s: %v", b.wl.name, what, err))
	}
	return false
}

// counts are the Stats fields that are a function of the program and the
// seed alone: equal in every mode, and in a replay of the recorded trace.
type counts struct {
	reads, writes, readHooks, writeHooks         uint64
	readIvals, writeIvals, readBytes, writeBytes uint64
	treapOps, treapNodes, treapOverlaps, races   uint64
}

func countsOf(s *stint.Stats) counts {
	return counts{
		s.ReadAccesses, s.WriteAccesses, s.ReadHookCalls, s.WriteHookCalls,
		s.ReadIntervals, s.WriteIntervals, s.ReadIntervalBytes, s.WriteIntervalBytes,
		s.TreapOps, s.TreapNodesVisited, s.TreapOverlaps, s.Races,
	}
}

// sameDetection reports how got differs from the reference report, if it
// does: race count and set, strands, and the interval and treap counts.
func sameDetection(got, ref *stint.Report) error {
	switch {
	case got.RaceCount != ref.RaceCount:
		return fmt.Errorf("%d races, reference has %d", got.RaceCount, ref.RaceCount)
	case !slices.Equal(got.Races, ref.Races):
		return fmt.Errorf("recorded race set differs from the reference")
	case got.Strands != ref.Strands:
		return fmt.Errorf("%d strands, reference has %d", got.Strands, ref.Strands)
	case countsOf(&got.Stats) != countsOf(&ref.Stats):
		return fmt.Errorf("stats %+v, reference has %+v", countsOf(&got.Stats), countsOf(&ref.Stats))
	}
	return nil
}

// endToEnd fills in the live phase's end-to-end metrics — each mode's wall
// over its reference mode's wall, paired round by round — and the absolute
// walls behind them.
func (l *rounds) endToEnd(vals values) error {
	if l.timed == 0 {
		return fmt.Errorf("no timed round passed the correctness gate")
	}
	for _, m := range liveModes {
		if m.ratio == "" {
			continue
		}
		num, den := l.walls[m.name], l.walls[m.against]
		ratios := make([]float64, len(num))
		for i := range num {
			ratios[i] = num[i] / den[i]
		}
		vals[m.ratio] = summarize(ratios)
		vals["wall_ms."+m.name] = timing(num)
	}
	reps := l.reports[modeSync]
	vals["history_peak_kb"] = point(float64(reps[len(reps)-1].Stats.HistoryBytesPeak) / 1024)
	rss, err := peakRSSMiB(0)
	if err != nil {
		return err
	}
	vals["rss_peak_mb"] = point(rss)
	return nil
}
