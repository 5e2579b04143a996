package stint

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"stint/internal/detect"
	"stint/internal/oracle"
)

// The contract harness: every mode's report is byte-identical to the
// synchronous run's at the same limits, fresh or reused, and with no limits
// flags exactly the words the brute-force oracle says race (Feng–Leiserson:
// a sound and complete detector flags a word iff it races). One program
// format, generator, mode table and checker serve every program source —
// math/rand seeds, corpus and fuzzer inputs (one byte code, decodeProgram)
// and the named regression programs. DESIGN.md, "The contract and its
// checker", has the axes and the legs.

// act is one step of a program-as-data; pos is its preorder index, where an
// injected abort lands.
type act struct {
	kind byte // 'S' spawn, 'Y' sync, 'l' load, 's' store, 'L' load-range, 'W' store-range
	buf  int
	idx  int
	n    int
	pos  int
	body []act
}

// injected is the value an abort run panics with at its chosen act.
const injected = "injected abort"

// runActs executes acts on t, panicking at the act whose pos is abortAt
// (-1: never).
func runActs(t *Task, bufs []*Buffer, acts []act, abortAt int) {
	for _, a := range acts {
		if a.pos == abortAt {
			panic(injected)
		}
		switch a.kind {
		case 'S':
			body := a.body
			t.Spawn(func(c *Task) { runActs(c, bufs, body, abortAt) })
		case 'Y':
			t.Sync()
		case 'l':
			t.Load(bufs[a.buf], a.idx)
		case 's':
			t.Store(bufs[a.buf], a.idx)
		case 'L':
			t.LoadRange(bufs[a.buf], a.idx, a.n)
		case 'W':
			t.StoreRange(bufs[a.buf], a.idx, a.n)
		}
	}
}

// Act constructors for the named programs, on buffer 0 unless moved by on.
func spawn(body ...act) act  { return act{kind: 'S', body: body} }
func load(i int) act         { return act{kind: 'l', idx: i} }
func store(i int) act        { return act{kind: 's', idx: i} }
func loadN(i, n int) act     { return act{kind: 'L', idx: i, n: n} }
func storeN(i, n int) act    { return act{kind: 'W', idx: i, n: n} }
func (a act) on(buf int) act { a.buf = buf; return a }

var syncAct = act{kind: 'Y'}

// bufSpec is one buffer of a program: its element count and words per
// element.
type bufSpec struct{ elems, words int }

// harnessBufs are the byte code's buffers: three small ones (the last of
// two-word elements) and a 128 KiB one straddling shadow-page boundaries.
var harnessBufs = []bufSpec{{48, 1}, {96, 1}, {24, 2}, {32768, 1}}

// program is a decoded harness program: its act tree, its buffers, the
// pipeline geometry of its fresh runs, and phase, which picks its cells.
type program struct {
	acts                   []act
	bufs                   []bufSpec
	batchEvents, ringDepth int
	phase                  int
	size                   int   // acts in the tree
	spawned                []int // pos of every act inside a spawned body
}

// newProgram numbers acts into a program over bufs with a small geometry
// (8-event batches, ring depth 2): even short streams cross batches.
func newProgram(bufs []bufSpec, acts []act) *program {
	p := &program{acts: acts, bufs: bufs, batchEvents: 8, ringDepth: 2}
	var number func(acts []act, inSpawn bool)
	number = func(acts []act, inSpawn bool) {
		for i := range acts {
			acts[i].pos = p.size
			if inSpawn {
				p.spawned = append(p.spawned, p.size)
			}
			p.size++
			number(acts[i].body, inSpawn || acts[i].kind == 'S')
		}
	}
	number(acts, false)
	return p
}

func (p *program) alloc(r *Runner) []*Buffer {
	bufs := make([]*Buffer, len(p.bufs))
	for i, s := range p.bufs {
		bufs[i] = r.Arena().Alloc(fmt.Sprint("b", i), s.elems, s.words*4)
	}
	return bufs
}

// decodeProgram turns bytes into a program over harnessBufs. Byte 0 picks
// the batch capacity (1-16 events), byte 1 the ring depth (1-4), bytes 2
// and 3 the phase; the rest is act byte code, op = b%8:
//
//	0 spawn (the nested body follows)   1 end of this body   2 sync
//	3/4 word load/store: buffer, index byte
//	5/6 range load/store: buffer, 16-bit index, 16-bit count
//	7 no-op
//
// Every input decodes to a valid program (open bodies close at the end,
// spawns nest at most six deep, a body holds at most 64 acts). Corpus
// inputs keep their bytes, so the format only grows.
func decodeProgram(data []byte) *program {
	header := [4]byte{}
	data = data[copy(header[:], data):]
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	var parse func(depth int) []act
	parse = func(depth int) []act {
		var acts []act
		for len(acts) < 64 && pos < len(data) {
			switch b := next(); b % 8 {
			case 0:
				if depth < 6 {
					acts = append(acts, act{kind: 'S', body: parse(depth + 1)})
				}
			case 1:
				return acts
			case 2:
				acts = append(acts, act{kind: 'Y'})
			case 3, 4:
				buf := int(next()) % len(harnessBufs)
				acts = append(acts, act{kind: "...ls"[b%8], buf: buf, idx: int(next()) % harnessBufs[buf].elems})
			case 5, 6:
				buf := int(next()) % len(harnessBufs)
				idx := (int(next())<<8 | int(next())) % harnessBufs[buf].elems
				n := (int(next())<<8|int(next()))%(harnessBufs[buf].elems-idx) + 1
				acts = append(acts, act{kind: " .....LW"[b%8], buf: buf, idx: idx, n: n})
			}
		}
		return acts
	}
	p := newProgram(harnessBufs, parse(0))
	p.batchEvents, p.ringDepth = int(header[0]%16)+1, int(header[1]%4)+1
	p.phase = int(header[2]) + int(header[3]>>3)
	return p
}

// shape bounds a generated program: spawns nest depth levels, a body holds
// up to width acts, and an act is a spawn with probability spawn/10.
type shape struct{ depth, width, spawn int }

var (
	shapeRandom = shape{5, 8, 3}
	shapeDeep   = shape{4, 9, 6} // bushy: more strands, more overlap churn
	shapeSoak   = shape{6, 8, 3}
)

// genProgram draws a program from seed in decodeProgram's byte code; the
// phase byte is the seed, so consecutive seeds rotate through the grid.
// Ranges stay under 256 words so the oracle stays cheap, and half the
// programs stay on one shadow page, which a fresh hash engine fills.
func genProgram(seed int64, sh shape) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := []byte{byte(rng.Intn(16)), byte(rng.Intn(4)), byte(seed), 0}
	bufs := len(harnessBufs) - rng.Intn(2) // half the programs leave the wide buffer alone
	access := func() {
		b := rng.Intn(bufs)
		elems := harnessBufs[b].elems
		idx := rng.Intn(elems)
		if op := 3 + rng.Intn(4); op < 5 && b < 3 {
			out = append(out, byte(op), byte(b), byte(idx))
		} else {
			n := rng.Intn(min(elems-idx, 256))
			out = append(out, byte(5+op%2), byte(b), byte(idx>>8), byte(idx), byte(n>>8), byte(n))
		}
	}
	var body func(depth int)
	body = func(depth int) {
		for i := rng.Intn(sh.width + 1); i > 0; i-- {
			switch k := rng.Intn(10); {
			case k < sh.spawn && depth > 0:
				out = append(out, 0)
				body(depth - 1)
				out = append(out, 1)
			case k == sh.spawn:
				out = append(out, 2)
			default:
				access()
			}
		}
	}
	body(sh.depth)
	return out
}

// pipeMode is one pipelined execution mode: a name and the Options fields
// that select it (Async, ParallelDetect, DetectShards — nothing else set).
type pipeMode struct {
	Name string
	Opts Options
}

// pipeModes is the one table of pipelined modes (Async with DetectShards 0
// and 1 are one code path, so there is no shards=1 row).
var pipeModes = []pipeMode{
	{"async", Options{Async: true}},
	{"shards=2", Options{Async: true, DetectShards: 2}},
	{"shards=4", Options{Async: true, DetectShards: 4}},
	{"parallel-detect=1", Options{ParallelDetect: true, DetectShards: 1}},
	{"parallel-detect", Options{ParallelDetect: true, DetectShards: 2}},
	{"parallel-detect=4", Options{ParallelDetect: true, DetectShards: 4}},
}

// With returns base switched to the mode.
func (m pipeMode) With(base Options) Options {
	base.Async, base.ParallelDetect, base.DetectShards = m.Opts.Async, m.Opts.ParallelDetect, m.Opts.DetectShards
	return base
}

// modeNamed looks a row up for the tests that pin a single one.
func modeNamed(name string) pipeMode {
	for _, m := range pipeModes {
		if m.Name == name {
			return m
		}
	}
	panic("no pipelined mode named " + name)
}

// allDetectors are the engines with an access history, and
// shardTestDetectors the coalescing ones every pipeline can stream to.
var (
	allDetectors       = []Detector{DetectorVanilla, DetectorCompiler, DetectorCompRTS, DetectorSTINT, DetectorSTINTUnbalanced}
	shardTestDetectors = []Detector{DetectorCompRTS, DetectorSTINT, DetectorSTINTUnbalanced}
)

// limit is the third axis: none, per-page quiescing at threshold 2, or a
// history cap small enough that most programs trip it on some engine.
type limit int

const (
	noLimit limit = iota
	quiesceLimit
	historyCap
)

const capBytes = 512

// cell is one point of the grid: a detector, a mode (the zero pipeMode is
// the synchronous run) and a limit.
type cell struct {
	d    Detector
	mode pipeMode
	lim  limit
}

func (c cell) pipelined() bool { return c.mode.Name != "" }

func (c cell) String() string {
	return fmt.Sprintf("%v/%s/%s", c.d, c.mode.Name, [...]string{"none", "quiesce", "cap"}[c.lim])
}

// opts is the cell's Options, recording every race.
func (c cell) opts() Options {
	o := c.mode.With(Options{Detector: c.d, MaxRacesRecorded: 1 << 20})
	switch c.lim {
	case quiesceLimit:
		o.PageQuiesceThreshold = 2
	case historyCap:
		o.MaxHistoryBytes = capBytes
	}
	return o
}

// grid is every cell: sync under every detector, every pipelined row under
// every coalescing detector, each under every limit (69 cells). It is
// ordered limit, then mode, then detector, so any stride through it mixes
// all three axes.
var grid = func() []cell {
	var g []cell
	for lim := noLimit; lim <= historyCap; lim++ {
		for _, d := range allDetectors {
			g = append(g, cell{d: d, lim: lim})
		}
		for _, m := range pipeModes {
			for _, d := range shardTestDetectors {
				g = append(g, cell{d, m, lim})
			}
		}
	}
	return g
}()

// cellsWhere is the grid's subset keep accepts.
func cellsWhere(keep func(c cell) bool) []cell {
	var cs []cell
	for _, c := range grid {
		if keep(c) {
			cs = append(cs, c)
		}
	}
	return cs
}

// normStats zeroes what legitimately differs across modes: timing,
// allocation, the stream's transport totals, and HistoryBytesPeak (N
// sharded engines peak higher than one).
func normStats(s Stats) Stats {
	s.AccessHistoryTime = 0
	s.AllocObjects = 0
	s.AllocBytes = 0
	s.PipelineDetectTime = 0
	s.EventsStreamed = 0
	s.StreamBytes = 0
	s.HistoryBytesPeak = 0
	return s
}

// assertSameReport fails the test unless got agrees with want on every
// deterministic field: the counts, the race list byte for byte, and the
// normalized stats. It is the one statement of "byte-identical reports".
func assertSameReport(t testing.TB, label string, got, want *Report) {
	t.Helper()
	if got.RaceCount != want.RaceCount || got.Strands != want.Strands {
		t.Fatalf("%s: RaceCount/Strands %d/%d, want %d/%d",
			label, got.RaceCount, got.Strands, want.RaceCount, want.Strands)
	}
	if !reflect.DeepEqual(got.Races, want.Races) {
		t.Fatalf("%s: race list diverges\n got: %v\nwant: %v", label, got.Races, want.Races)
	}
	if g, w := normStats(got.Stats), normStats(want.Stats); g != w {
		t.Fatalf("%s: stats diverge\n got: %+v\nwant: %+v", label, g, w)
	}
}

// outcome is one run's result: a report or an error, and the words its
// OnRace calls named.
type outcome struct {
	rep   *Report
	err   error
	words map[Addr]bool
	calls uint64
}

// harness checks programs over a slice of the grid. Its pooled Runners (per
// cell and buffer layout) carry warm state from program to program, and
// their node pools move the slab on every allocation (core.Pool.moveSlab),
// so a *node held across newNode writes into a dead copy.
type harness struct {
	t     *testing.T
	cells []cell
	per   int  // cells per program
	abort bool // inject an abort on every cell (else on one cell per program)
	child bool // land injected aborts inside a spawned task
	pool  map[string]*pooled
	sink  struct {
		sync.Mutex
		outcome
	}
	base int // goroutines before the first run
}

type pooled struct {
	r    *Runner
	bufs []*Buffer
}

func newHarness(t *testing.T, cells []cell, per int) *harness {
	return &harness{t: t, cells: cells, per: per, pool: map[string]*pooled{}, base: runtime.NumGoroutine()}
}

// newRunner builds a Runner under o with p's buffers and geometry; its
// OnRace feeds the harness's sink.
func (h *harness) newRunner(o Options, p *program) (*Runner, []*Buffer) {
	o.OnRace = func(rc Race) {
		h.sink.Lock()
		defer h.sink.Unlock()
		h.sink.calls++
		for a := rc.Addr &^ 3; a < rc.Addr+rc.Size; a += 4 {
			h.sink.words[a] = true
		}
	}
	r, err := NewRunner(o)
	if err != nil {
		h.t.Fatal(err)
	}
	r.asyncBatchEvents, r.asyncRingDepth = p.batchEvents, p.ringDepth
	return r, p.alloc(r)
}

// run executes p on r, panicking out at act abortAt (-1: none).
func (h *harness) run(r *Runner, bufs []*Buffer, p *program, abortAt int) outcome {
	h.sink.outcome = outcome{words: map[Addr]bool{}}
	rep, err := r.Run(func(t *Task) { runActs(t, bufs, p.acts, abortAt) })
	h.sink.Lock()
	defer h.sink.Unlock()
	out := h.sink.outcome
	out.rep, out.err = rep, err
	if err == nil && out.calls != rep.RaceCount {
		h.t.Fatalf("OnRace called %d times, RaceCount %d", out.calls, rep.RaceCount)
	}
	return out
}

// fresh runs p on a new Runner for c.
func (h *harness) fresh(c cell, p *program) outcome { return h.runOpts(c.opts(), p) }

// runOpts runs p on a new Runner under o.
func (h *harness) runOpts(o Options, p *program) outcome {
	r, bufs := h.newRunner(o, p)
	return h.run(r, bufs, p, -1)
}

// pooled returns c's warm Runner for p's buffer layout.
func (h *harness) pooled(c cell, p *program) *pooled {
	key := fmt.Sprint(c, p.bufs)
	if pr := h.pool[key]; pr != nil {
		return pr
	}
	r, bufs := h.newRunner(c.opts(), p)
	r.Run(func(*Task) {}) // builds the engines
	eachPool(r, func(pool reflect.Value) { setField(pool, "moveSlab", true) })
	h.pool[key] = &pooled{r, bufs}
	return h.pool[key]
}

// same fails unless got and want are the same outcome: equal reports, or
// both history-cap errors.
func (h *harness) same(label string, got, want outcome) {
	h.t.Helper()
	switch {
	case got.err != nil || want.err != nil:
		if !errors.Is(got.err, ErrHistoryCap) || !errors.Is(want.err, ErrHistoryCap) {
			h.t.Fatalf("%s: error %v, want %v", label, got.err, want.err)
		}
	default:
		assertSameReport(h.t, label, got.rep, want.rep)
	}
}

// oracleWords runs p under the brute-force oracle engine.
func (h *harness) oracleWords(p *program) map[Addr]bool {
	r, err := NewRunner(Options{Detector: DetectorVanilla})
	if err != nil {
		h.t.Fatal(err)
	}
	var det *oracle.Detector
	r.newEngine = func(cfg detect.Config, reach detect.Reach) detect.Engine {
		det = oracle.New(reach)
		return det
	}
	bufs := p.alloc(r)
	if _, err := r.Run(func(t *Task) { runActs(t, bufs, p.acts, -1) }); err != nil {
		h.t.Fatal(err)
	}
	return det.RacingWords()
}

// check runs p on its cells (a rotating subset of h.cells picked by
// p.phase) and asserts the contract:
//   - a pipelined run's outcome is the synchronous one at the same limits;
//   - with no limits, the racing words are the oracle's, and every detector
//     counts the same accesses and strands (the coalescing ones the same
//     intervals);
//   - under a cap, a run returns the uncapped report or an ErrHistoryCap;
//   - a pooled Runner, after whatever it ran last, matches the fresh run;
//   - on one cell per program (every cell if h.abort) an abort injected at
//     an act re-raises on Run's caller, the aborted Runner's next run
//     matches the fresh one, so does a repeat after an explicit Reset, and
//     the footprint does not grow on the repeat;
//   - goroutines return to their baseline.
func (h *harness) check(p *program) {
	t := h.t
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("program (batch %d, depth %d): %+v", p.batchEvents, p.ringDepth, p.acts)
		}
	}()
	stride := (len(h.cells) + h.per - 1) / h.per
	var cells []cell
	for i := p.phase % stride; i < len(h.cells); i += stride {
		cells = append(cells, h.cells[i])
	}
	type syncCell struct {
		d   Detector
		lim limit
	}
	refs := map[syncCell]outcome{}
	var oracleWords map[Addr]bool
	ref := func(d Detector, lim limit) outcome {
		c := cell{d: d, lim: lim}
		if out, ok := refs[syncCell{d, lim}]; ok {
			return out
		}
		out := h.fresh(c, p)
		if lim != historyCap && out.err != nil {
			t.Fatalf("%v: %v", c, out.err)
		}
		if lim == noLimit && d != DetectorOff {
			if oracleWords == nil {
				oracleWords = h.oracleWords(p)
			}
			if !reflect.DeepEqual(out.words, oracleWords) {
				t.Fatalf("%v: racing words diverge from the oracle's: %s", c, wordSetDiff(out.words, oracleWords))
			}
		}
		refs[syncCell{d, lim}] = out
		return out
	}
	for i, c := range cells {
		out := ref(c.d, c.lim)
		if c.pipelined() {
			out = h.fresh(c, p)
			if c.lim != historyCap {
				h.same(c.String(), out, ref(c.d, c.lim))
			}
		}
		if c.lim == historyCap && out.err == nil {
			h.same(c.String()+" under the cap", out, ref(c.d, noLimit))
		}
		pr := h.pooled(c, p)
		if !h.abort && i != p.phase/stride%len(cells) {
			h.same(c.String()+" reused", h.run(pr.r, pr.bufs, p, -1), out)
			continue
		}
		// One cell per program also aborts a run and repeats one.
		h.abortRun(c, pr, p)
		h.same(c.String()+" reused after an abort", h.run(pr.r, pr.bufs, p, -1), out)
		warm := stableFootprint(pr.r)
		pr.r.Reset()
		h.same(c.String()+" reused after Reset", h.run(pr.r, pr.bufs, p, -1), out)
		if got := stableFootprint(pr.r); got != warm {
			t.Fatalf("%v: footprint grew on a repeat: %+v, then %+v", c, warm, got)
		}
	}
	var first *Report
	for c, out := range refs {
		if s := out.rep; c.lim == noLimit && out.err == nil {
			if first == nil {
				first = s
			}
			if s.Strands != first.Strands || s.Stats.ReadAccesses != first.Stats.ReadAccesses ||
				s.Stats.WriteAccesses != first.Stats.WriteAccesses {
				t.Fatalf("%v: strands/accesses %d/%d/%d, another detector %d/%d/%d", c, s.Strands,
					s.Stats.ReadAccesses, s.Stats.WriteAccesses, first.Strands, first.Stats.ReadAccesses, first.Stats.WriteAccesses)
			}
			if o, ok := refs[syncCell{DetectorSTINT, noLimit}]; ok && coalescingDetector(c.d) &&
				(s.Stats.ReadIntervals != o.rep.Stats.ReadIntervals || s.Stats.WriteIntervals != o.rep.Stats.WriteIntervals) {
				t.Fatalf("%v: interval counts diverge from stint's", c)
			}
		}
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > h.base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the checks, %d before", runtime.NumGoroutine(), h.base)
		}
	}
}

// abortRun panics at one act of p (inside a spawned task if h.child) on
// c's pooled Runner and requires Run to re-raise it.
func (h *harness) abortRun(c cell, pr *pooled, p *program) {
	if p.size == 0 {
		return
	}
	pick := p.phase * 7919 // a prime stride spreads consecutive phases over the program
	at := pick % p.size
	if h.child && len(p.spawned) > 0 {
		at = p.spawned[pick%len(p.spawned)]
	}
	defer func() {
		if got := recover(); got != injected {
			h.t.Fatalf("%v: an abort at act %d recovered %v, want the injected panic", c, at, got)
		}
	}()
	h.run(pr.r, pr.bufs, p, at)
}

// stableFootprint is r's footprint less, under ParallelDetect, the bit
// pages, which depend on how many strands the scheduler overlapped.
func stableFootprint(r *Runner) detect.Footprint {
	f := r.footprint()
	if r.opts.ParallelDetect {
		f.BitPages = 0
	}
	return f
}

// eachPool calls f on the core.Pool of every warm engine of r that has one,
// for reflection on the pool's unexported test seams.
func eachPool(r *Runner, f func(pool reflect.Value)) {
	var engines []any
	if rp := r.warm.rp; rp != nil {
		engines = append(engines, rp.engine)
	}
	if as := r.warm.as; as != nil {
		for _, w := range as.workers {
			engines = append(engines, w.engine)
		}
	}
	for _, e := range engines {
		v := reflect.ValueOf(e).Elem()
		if h := v.FieldByName("hist"); h.IsValid() {
			v = h.Elem().Elem()
		}
		if pool := v.FieldByName("pool"); pool.IsValid() {
			f(pool.Elem())
		}
	}
}

// setField sets an unexported field of an addressable struct value.
func setField(v reflect.Value, name string, x any) {
	f := v.FieldByName(name)
	reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Set(reflect.ValueOf(x).Convert(f.Type()))
}

// wordSetDiff names the words only one of a and b holds.
func wordSetDiff(a, b map[Addr]bool) string {
	var only [2][]Addr
	for i, m := range [2]map[Addr]bool{a, b} {
		for w := range m {
			if !a[w] || !b[w] {
				only[i] = append(only[i], w)
			}
		}
		slices.Sort(only[i])
	}
	return fmt.Sprintf("only-first=%#x only-second=%#x", only[0], only[1])
}

// verdict checks a named program over one 1024-word buffer on every cell
// with no limits — every detector and mode, fresh and reused, against the
// oracle — and requires the oracle to find it racy or not.
func verdict(t *testing.T, racy bool, acts ...act) {
	t.Helper()
	checkVerdict(t, racy, newProgram([]bufSpec{{1024, 1}}, acts))
}

func checkVerdict(t *testing.T, racy bool, p *program) {
	t.Helper()
	h := newHarness(t, cellsWhere(func(c cell) bool { return c.lim == noLimit }), len(grid))
	if got := len(h.oracleWords(p)) > 0; got != racy {
		t.Fatalf("the oracle finds the program racy=%v, want %v", got, racy)
	}
	h.check(p)
}

// checkSeeds checks the programs genProgram draws from seeds [from, to).
func (h *harness) checkSeeds(from, to int64, sh shape) {
	for seed := from; seed < to; seed++ {
		h.check(decodeProgram(genProgram(seed, sh)))
	}
}

// TestDetectorEquivalenceRandomPrograms: 150 seeds, nine cells each.
func TestDetectorEquivalenceRandomPrograms(t *testing.T) {
	newHarness(t, grid, 9).checkSeeds(0, 150, shapeRandom)
}

func TestDetectorEquivalenceDeepPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short mode")
	}
	newHarness(t, grid, 9).checkSeeds(1000, 1030, shapeDeep)
}

func TestParallelDetectRunToRunDeterminism(t *testing.T) {
	parallel := cellsWhere(func(c cell) bool { return c.mode.Opts.ParallelDetect && c.lim == noLimit })
	newHarness(t, parallel, len(parallel)).checkSeeds(7000, 7010, shapeRandom)
}

// The soak legs run deeper, wider programs over one slice of the grid each.

func TestSoakDeterminismAcrossRuns(t *testing.T) {
	newHarness(t, cellsWhere(func(c cell) bool { return !c.pipelined() }), 5).checkSeeds(0, 6, shapeSoak)
}

func TestSoakAsyncDeterminismAndSyncAgreement(t *testing.T) {
	newHarness(t, cellsWhere(func(c cell) bool { return c.mode.Name == "async" }), 5).checkSeeds(20, 26, shapeSoak)
}

func TestSoakShardedDeterminismAndSyncAgreement(t *testing.T) {
	sharded := cellsWhere(func(c cell) bool { return c.mode.Opts.Async && c.mode.Opts.DetectShards > 1 })
	newHarness(t, sharded, 6).checkSeeds(30, 34, shapeSoak)
}

// TestSoakParallelDetectDeterminism varies GOMAXPROCS per program, so the
// merge sees chunks in a different order each time.
func TestSoakParallelDetectDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	h := newHarness(t, cellsWhere(func(c cell) bool { return c.mode.Opts.ParallelDetect }), 6)
	for seed := int64(40); seed < 50; seed++ {
		runtime.GOMAXPROCS(1 + int(seed%4))
		h.check(decodeProgram(genProgram(seed, shapeSoak)))
	}
}

func TestSoakAggregateAgreement(t *testing.T) {
	newHarness(t, cellsWhere(func(c cell) bool { return !c.pipelined() && c.lim == noLimit }), 5).checkSeeds(10, 16, shapeSoak)
}

// reuseModes name the reuse legs: sync and one row per topology.
var reuseModes = []struct {
	name string
	mode pipeMode
}{{"sync", pipeMode{}}, {"async", modeNamed("async")}, {"shards4", modeNamed("shards=4")}, {"parallel", modeNamed("parallel-detect")}}

func TestReuseByteIdenticalReports(t *testing.T) {
	for _, m := range reuseModes {
		t.Run(m.name, func(t *testing.T) {
			cells := cellsWhere(func(c cell) bool { return c.d == DetectorSTINT && c.mode.Name == m.mode.Name })
			newHarness(t, cells, len(cells)).checkSeeds(0, 5, shapeSoak)
		})
	}
}

// TestReuseFootprintStopsGrowing: the quiesce legs park pages mid-run and
// take them back for other pages, reusing the directory capacity their
// retired keys held.
func TestReuseFootprintStopsGrowing(t *testing.T) {
	for _, m := range reuseModes {
		for _, lim := range []limit{noLimit, quiesceLimit} {
			name := map[limit]string{noLimit: "", quiesceLimit: "quiesce/"}[lim] + m.name
			t.Run(name, func(t *testing.T) {
				c := cell{DetectorSTINT, m.mode, lim}
				h := newHarness(t, []cell{c}, 1)
				p := quiesceRacyProgram(4)
				h.check(p)
				h.checkSeeds(0, 4, shapeSoak)
				if f := h.pooled(c, p).r.footprint(); f.HistPages == 0 || f.BitPages == 0 {
					t.Fatalf("footprint misses a side after a detecting run: %+v", f)
				}
			})
		}
	}
}

// TestBodyPanicUnwindsPipeline is the abort leg on every program; the
// child-panic legs land it in a spawned ParallelDetect task.
func TestBodyPanicUnwindsPipeline(t *testing.T) {
	legs := map[string]cell{
		"child-panic/off":   {DetectorOff, modeNamed("parallel-detect"), noLimit},
		"child-panic/stint": {DetectorSTINT, modeNamed("parallel-detect"), noLimit},
	}
	for _, m := range pipeModes {
		legs[m.Name] = cell{DetectorSTINT, m, noLimit}
	}
	for name, c := range legs {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, []cell{c}, 1)
			h.abort, h.child = true, strings.HasPrefix(name, "child")
			h.checkSeeds(0, 10, shapeRandom)
		})
	}
}

// FuzzAsyncAgainstSync is the checker applied to its input, decoded by
// decodeProgram. Its seeds are generator programs; testdata/fuzz holds the
// hand-made corpus, one file per shape it was saved for: 1-event batches
// and 1-deep rings (every handoff a stall), flushes cut mid-strand, a drain
// with a strand still open, racing spans over one page, across a page
// boundary and over all three pages of the wide buffer. Any phase's nine
// cells take in every limit and a ParallelDetect row.
func FuzzAsyncAgainstSync(f *testing.F) {
	for seed := int64(0); seed < 17; seed++ {
		f.Add(genProgram(seed, shapeRandom))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return // keep individual executions fast
		}
		newHarness(t, grid, 9).check(decodeProgram(data))
	})
}
