package stint

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"stint/internal/coalesce"
	"stint/internal/core"
	"stint/internal/evstream"
)

// Named regression programs through the contract checker, and the pinned
// tests: what the checker cannot see (DESIGN.md, "The contract and its
// checker").

// qPageWords is the word count of one 64 KiB shadow page.
const qPageWords = 1 << 14

// quiesceRacyProgram races parallel overlapping writes on each of pages
// shadow pages, plus ranges straddling each page boundary.
func quiesceRacyProgram(pages int) *program {
	var acts []act
	for p := 0; p < pages; p++ {
		base := p * qPageWords
		acts = append(acts, spawn(storeN(base, 96)), spawn(storeN(base+48, 96)), spawn(loadN(base, 144)))
	}
	for p := 0; p+1 < pages; p++ {
		acts = append(acts, spawn(storeN(p*qPageWords, qPageWords+64)))
	}
	return newProgram([]bufSpec{{pages * qPageWords, 1}}, append(acts, syncAct))
}

// partitionProgram is race-free by construction: every level splits its
// range between two spawned halves, syncs, then reads the whole range.
func partitionProgram(words, depth int) *program {
	var mk func(lo, hi, depth int) []act
	mk = func(lo, hi, depth int) []act {
		if depth == 0 || hi-lo < 4 {
			return []act{loadN(lo, hi-lo), storeN(lo, hi-lo)}
		}
		mid := (lo + hi) / 2
		return []act{spawn(mk(lo, mid, depth-1)...), spawn(mk(mid, hi, depth-1)...), syncAct, loadN(lo, hi-lo)}
	}
	return newProgram([]bufSpec{{words, 1}}, mk(0, words, depth))
}

// shardProgram races four strands on a small buffer and spreads their
// page-straddling ranges and scattered words over a 256 KiB one.
func shardProgram() *program {
	const pageStride = 16 << 10
	var acts []act
	for i := 0; i < 4; i++ {
		body := []act{storeN(i*64, 128), storeN(i*pageStride, 9000).on(1), load(i)}
		for j := 0; j < 40; j++ {
			body = append(body, store(i*pageStride+j*77).on(1))
		}
		acts = append(acts, spawn(body...))
	}
	acts = append(acts, syncAct, loadN(0, 3*pageStride).on(1))
	return newProgram([]bufSpec{{512, 1}, {64 << 10, 1}}, acts)
}

// mustRun runs p on a new Runner under o and fails on an error.
func (h *harness) mustRun(o Options, p *program) *Report {
	h.t.Helper()
	out := h.runOpts(o, p)
	if out.err != nil {
		h.t.Fatal(out.err)
	}
	return out.rep
}

func TestDetectorEquivalenceRaceFreePrograms(t *testing.T) {
	p := partitionProgram(48, 4)
	h := newHarness(t, cellsWhere(func(c cell) bool { return c.lim == noLimit }), len(grid))
	if w := h.oracleWords(p); len(w) != 0 {
		t.Fatalf("oracle found races in a race-free program: %v", w)
	}
	h.check(p)
}

// TestQuiesceDifferentialModes: pages quiesce, and every mode's report,
// pages quiesced and hook counters included, is the synchronous one.
func TestQuiesceDifferentialModes(t *testing.T) {
	p := quiesceRacyProgram(5)
	for _, d := range shardTestDetectors {
		t.Run(d.String(), func(t *testing.T) {
			cells := cellsWhere(func(c cell) bool { return c.d == d && c.lim == quiesceLimit })
			h := newHarness(t, cells, len(cells))
			if s := h.fresh(cells[0], p).rep; s.Stats.PagesQuiesced == 0 || s.RaceCount == 0 {
				t.Fatalf("%d pages quiesced, %d races: the differential is vacuous", s.Stats.PagesQuiesced, s.RaceCount)
			}
			h.check(p)
		})
	}
}

// TestQuiesceMidSortedRun retires pages in the middle of a sorted run
// (fft's stride): the reader's second read is the page's second race, so
// both trees drop while their fingers point into them.
func TestQuiesceMidSortedRun(t *testing.T) {
	const pages, perPage = 4, 64
	var acts []act
	for p := 0; p < pages; p++ {
		var wr, rd []act
		for i := 0; i < perPage; i++ {
			wr = append(wr, storeN(p*qPageWords+i*8, 4))
			rd = append(rd, loadN(p*qPageWords+i*8, 4))
		}
		// The reader also covers the next page's first half before that
		// page's own strands run, so a reused shell starts mid-history.
		rd = append(rd, loadN((p+1)%pages*qPageWords, qPageWords/2))
		acts = append(acts, spawn(wr...), spawn(rd...))
	}
	p := newProgram([]bufSpec{{pages * qPageWords, 1}}, append(acts, syncAct))
	cells := cellsWhere(func(c cell) bool { return coalescingDetector(c.d) && c.lim == quiesceLimit })
	h := newHarness(t, cells, len(cells))
	for _, d := range shardTestDetectors {
		s := h.fresh(cell{d: d, lim: quiesceLimit}, p).rep.Stats
		if s.PagesQuiesced == 0 || s.ReadIntervals >= pages*(perPage+1) {
			t.Fatalf("%v: %d pages quiesced, %d read intervals kept: none was dropped behind a retired page", d, s.PagesQuiesced, s.ReadIntervals)
		}
	}
	h.check(p)
}

// TestQuiescePastRegistryCapacity retires 2 100 pages: the synchronous run
// drops dead-page hooks at its Coalescer, the pipelines drop dead-page
// intervals only at their workers' histories, so agreement across every
// mode shows the hook-side drop never decides anything. The pipelines' drop
// is engine-independent, so the modes run under STINT only (CompRTS takes
// 2 s a run under -race).
func TestQuiescePastRegistryCapacity(t *testing.T) {
	const pages = 2100
	var acts []act
	for p := 0; p < pages; p++ { // two parallel writes retire page p at once
		acts = append(acts, spawn(store(p*qPageWords)), spawn(store(p*qPageWords)))
	}
	acts = append(acts, syncAct)
	for p := 0; p < pages; p++ { // every page is dead now; the last ~50 unlisted
		acts = append(acts, spawn(storeN(p*qPageWords+16, 8), load(p*qPageWords)), spawn(loadN(p*qPageWords+16, 8)))
	}
	acts = append(acts, storeN(2040*qPageWords, 20*qPageWords), syncAct)
	p := newProgram([]bufSpec{{pages * qPageWords, 1}}, acts)
	h := newHarness(t, nil, 1)
	var sync *Report
	for _, d := range []Detector{DetectorCompRTS, DetectorSTINT} { // STINT last: the modes compare with it
		sync = h.mustRun(Options{Detector: d, PageQuiesceThreshold: 1}, p)
		if sync.Stats.PagesQuiesced != pages || sync.RaceCount != pages {
			t.Fatalf("%v: %d pages quiesced, %d races; want %d of each", d, sync.Stats.PagesQuiesced, sync.RaceCount, pages)
		}
		if iv := sync.Stats.ReadIntervals + sync.Stats.WriteIntervals; iv != 2*pages {
			t.Fatalf("%v: %d intervals survived; only the %d that retired the pages should", d, iv, 2*pages)
		}
	}
	for _, m := range pipeModes {
		assertSameReport(t, m.Name, h.mustRun(m.With(Options{Detector: DetectorSTINT, PageQuiesceThreshold: 1}), p), sync)
	}
}

// TestQuiesceSubsetOfFullReport: quiescing only drops races (a multiset
// subset), and an unreachable threshold changes no byte.
func TestQuiesceSubsetOfFullReport(t *testing.T) {
	p := quiesceRacyProgram(4)
	for _, d := range shardTestDetectors {
		t.Run(d.String(), func(t *testing.T) {
			h := newHarness(t, nil, 1)
			off, on := h.fresh(cell{d: d}, p).rep, h.fresh(cell{d: d, lim: quiesceLimit}, p).rep
			if on.Stats.PagesQuiesced == 0 || on.RaceCount >= off.RaceCount {
				t.Fatalf("quiescing dropped no races: %d pages quiesced, on %d, off %d", on.Stats.PagesQuiesced, on.RaceCount, off.RaceCount)
			}
			remaining := make(map[Race]int, len(off.Races))
			for _, rc := range off.Races {
				remaining[rc]++
			}
			for _, rc := range on.Races {
				if remaining[rc] == 0 {
					t.Fatalf("quiesce-on reported a race absent from quiesce-off: %+v", rc)
				}
				remaining[rc]--
			}
			high := h.mustRun(Options{Detector: d, MaxRacesRecorded: 1 << 20, PageQuiesceThreshold: 1 << 30}, p)
			assertSameReport(t, "unreachable threshold", high, off)
			if high.Stats.HistoryBytesPeak != off.Stats.HistoryBytesPeak {
				t.Fatalf("unreachable threshold moved the history peak: %d, off %d", high.Stats.HistoryBytesPeak, off.Stats.HistoryBytesPeak)
			}
		})
	}
}

// TestQuiesceRaceFreeZeroDelta: on a race-free program arming quiescing
// changes no byte, history peak included.
func TestQuiesceRaceFreeZeroDelta(t *testing.T) {
	p := partitionProgram(3*qPageWords, 6)
	h := newHarness(t, nil, 1)
	for _, c := range cellsWhere(func(c cell) bool {
		return c.lim == quiesceLimit && coalescingDetector(c.d) && !c.mode.Opts.ParallelDetect
	}) {
		on, off := h.fresh(c, p).rep, h.fresh(cell{c.d, c.mode, noLimit}, p).rep
		assertSameReport(t, c.String(), on, off)
		if off.RaceCount != 0 || on.Stats.PagesQuiesced != 0 || on.Stats.HistoryBytesPeak != off.Stats.HistoryBytesPeak {
			t.Fatalf("%v: %d races, %d pages quiesced, history peak %d vs %d", c, off.RaceCount,
				on.Stats.PagesQuiesced, on.Stats.HistoryBytesPeak, off.Stats.HistoryBytesPeak)
		}
	}
}

// TestHistoryCapStructuredError pins the error's shape: no report, a
// *HistoryCapError over its limit; the Runner recovers and trips again.
func TestHistoryCapStructuredError(t *testing.T) {
	p := quiesceRacyProgram(4)
	h := newHarness(t, nil, 1)
	for _, c := range []cell{{d: DetectorSTINT}, {d: DetectorCompRTS}, {DetectorSTINT, modeNamed("async"), noLimit},
		{DetectorSTINT, modeNamed("shards=2"), noLimit}, {DetectorSTINT, modeNamed("parallel-detect"), noLimit}} {
		o := c.opts()
		o.MaxHistoryBytes = 1
		r, bufs := h.newRunner(o, p)
		out := h.run(r, bufs, p, -1)
		var capErr *HistoryCapError
		if out.rep != nil || !errors.Is(out.err, ErrHistoryCap) || !errors.As(out.err, &capErr) || capErr.Bytes <= capErr.Limit {
			t.Fatalf("%v: report %v, error %v; want a HistoryCapError over its limit", c, out.rep, out.err)
		}
		if out := h.run(r, bufs, newProgram(nil, []act{spawn(), syncAct}), -1); out.err != nil {
			t.Fatalf("%v: Runner did not recover after the cap error: %v", c, out.err)
		}
		if out := h.run(r, bufs, p, -1); !errors.Is(out.err, ErrHistoryCap) {
			t.Fatalf("%v: second over-cap run: %v", c, out.err)
		}
	}
}

// TestRefSpaceExhaustionIsAHistoryCap: a node pool out of 32-bit refs (the
// test shrinks core.Pool.limit) is the MaxHistoryBytes error, and the
// Runner then matches a fresh one.
func TestRefSpaceExhaustionIsAHistoryCap(t *testing.T) {
	const (
		headroom = 1<<14 + 2 // nodes the engine wants free before any interval
		limit    = 1 + headroom + 50
	)
	small := quiesceRacyProgram(2)
	var stores []act // alternating words never coalesce: one node per store
	for i := 0; i < 400; i += 2 {
		stores = append(stores, store(i))
	}
	big := newProgram(small.bufs, stores)
	h := newHarness(t, nil, 1)
	for _, c := range []cell{{d: DetectorSTINT}, {DetectorSTINT, modeNamed("shards=2"), noLimit}} {
		want := h.fresh(c, small)
		r, bufs := h.newRunner(c.opts(), small)
		h.run(r, bufs, small, -1) // builds the warm engines
		eachPool(r, func(pool reflect.Value) { setField(pool, "limit", limit) })
		out := h.run(r, bufs, big, -1)
		var capErr *HistoryCapError
		if out.rep != nil || !errors.As(out.err, &capErr) || capErr.Limit != limit*core.NodeBytes || capErr.Bytes <= capErr.Limit {
			t.Fatalf("%v: over the ref space: report %v, error %v; want a HistoryCapError at the %d-node limit", c, out.rep, out.err, limit)
		}
		h.same(c.String()+" after the ref-space error", h.run(r, bufs, small, -1), want)
	}
}

// TestMaxRacesDefaultUnified: zero MaxRacesRecorded records exactly
// DefaultMaxRacesRecorded races while RaceCount keeps counting.
func TestMaxRacesDefaultUnified(t *testing.T) {
	var acts []act
	for i := 0; i < 2*DefaultMaxRacesRecorded; i++ { // one independent race per pair
		acts = append(acts, spawn(storeN(2*i, 1)), spawn(storeN(2*i, 1)))
	}
	p := newProgram([]bufSpec{{4 * DefaultMaxRacesRecorded, 1}}, append(acts, syncAct))
	rep := newHarness(t, nil, 1).mustRun(Options{Detector: DetectorSTINT}, p)
	if rep.RaceCount <= DefaultMaxRacesRecorded || len(rep.Races) != DefaultMaxRacesRecorded {
		t.Fatalf("%d races, %d recorded; want more than, and exactly, %d", rep.RaceCount, len(rep.Races), DefaultMaxRacesRecorded)
	}
}

// TestReuseBitPoolStopsGrowing: k siblings held mid-strand by a barrier
// need exactly k pooled Coalescer pairs, and later laps borrow them back.
func TestReuseBitPoolStopsGrowing(t *testing.T) {
	const k = 6
	r, err := NewRunner(Options{Detector: DetectorSTINT, ParallelDetect: true, DetectShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	buf := r.Arena().AllocWords("b", k*64)
	lap := func() {
		var hooked sync.WaitGroup
		hooked.Add(k)
		_, err := r.Run(func(task *Task) {
			for i := 0; i < k; i++ {
				task.Spawn(func(c *Task) {
					c.Store(buf, i*64)
					hooked.Done()
					hooked.Wait()
					c.Load(buf, i*64+1)
				})
			}
			task.Sync()
			task.LoadRange(buf, 0, k*64)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	lap()
	as := r.warm.as
	if got := len(as.bitsAll); got != k {
		t.Fatalf("pool grew to %d pairs for %d overlapping strands", got, k)
	}
	warm := r.footprint()
	if warm.BitPages < k {
		t.Fatalf("footprint counts %d bit pages for %d pooled pairs", warm.BitPages, k)
	}
	for i := 0; i < 3; i++ {
		lap()
		if got := r.footprint(); got != warm || len(as.bitsAll) != k || len(as.bitsFree) != k {
			t.Fatalf("lap %d: footprint %+v (warm %+v), %d pairs, %d free", i+1, got, warm, len(as.bitsAll), len(as.bitsFree))
		}
	}
}

// TestResetSteadyStateAllocatesNothing: resetting a warm, dirty Runner
// allocates nothing.
func TestResetSteadyStateAllocatesNothing(t *testing.T) {
	p := decodeProgram(genProgram(1, shapeSoak))
	h := newHarness(t, nil, 1)
	r, bufs := h.newRunner(Options{Detector: DetectorSTINT}, p)
	h.run(r, bufs, p, -1)
	r.Reset()
	h.run(r, bufs, p, -1) // dirty again, with every structure already at peak capacity
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.Reset()
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("Reset allocated %d objects; want 0", n)
	}
}

// TestResetClearsCountersAndOrdering: the pooled Runner's repeat runs.
func TestResetClearsCountersAndOrdering(t *testing.T) {
	newHarness(t, []cell{{d: DetectorSTINT}}, 1).check(newProgram([]bufSpec{{64, 1}}, []act{spawn(storeN(0, 32)), storeN(16, 32), syncAct}))
}

func TestShardedByteIdenticalReports(t *testing.T) {
	p := shardProgram()
	cells := cellsWhere(func(c cell) bool { return coalescingDetector(c.d) && c.lim == noLimit })
	h := newHarness(t, cells, len(cells))
	if out := h.fresh(cell{d: DetectorSTINT}, p); out.rep.RaceCount == 0 {
		t.Fatal("the program produced no races; the test is vacuous")
	}
	h.check(p)
}

// TestShardedTinyBatchGeometries: the fresh runs take the geometry.
func TestShardedTinyBatchGeometries(t *testing.T) {
	h := newHarness(t, []cell{{DetectorSTINT, modeNamed("shards=4"), noLimit}}, 1)
	for _, geom := range [][2]int{{1, 1}, {3, 2}, {7, 3}} {
		p := shardProgram()
		p.batchEvents, p.ringDepth = geom[0], geom[1]
		h.check(p)
	}
}

// TestShardedUtilizationReadout: one busy figure per worker, summing to
// PipelineDetectTime; merge busy time under ParallelDetect only.
func TestShardedUtilizationReadout(t *testing.T) {
	h := newHarness(t, nil, 1)
	for _, m := range pipeModes {
		rep := h.mustRun(m.With(Options{Detector: DetectorSTINT}), shardProgram())
		if want := max(m.Opts.DetectShards, 1); len(rep.ShardLoad) != want {
			t.Fatalf("%s: ShardLoad has %d entries, want %d", m.Name, len(rep.ShardLoad), want)
		}
		var sum time.Duration
		for _, l := range rep.ShardLoad {
			sum += l.Busy
		}
		if sum != rep.Stats.PipelineDetectTime {
			t.Errorf("%s: sum(ShardLoad.Busy) = %v, PipelineDetectTime = %v", m.Name, sum, rep.Stats.PipelineDetectTime)
		}
		if (rep.SequencerBusy > 0) != m.Opts.ParallelDetect || rep.LabelViewSnapshots != 0 {
			t.Errorf("%s: SequencerBusy %v, LabelViewSnapshots %d; want merge busy time under ParallelDetect only, never a snapshot",
				m.Name, rep.SequencerBusy, rep.LabelViewSnapshots)
		}
	}
}

// TestShardedOnRaceDelivered: the checker counts OnRace calls.
func TestShardedOnRaceDelivered(t *testing.T) {
	sharded := cellsWhere(func(c cell) bool { return c.mode.Opts.Async && c.mode.Opts.DetectShards > 1 && c.lim == noLimit })
	newHarness(t, sharded, len(sharded)).check(shardProgram())
}

// TestShardedIgnoredForReachOnlyAndOff: ReachOnly workers only replay the
// structure; under Off nothing is built.
func TestShardedIgnoredForReachOnlyAndOff(t *testing.T) {
	p := newProgram(nil, []act{spawn(), syncAct})
	h := newHarness(t, nil, 1)
	rep := h.mustRun(Options{Detector: DetectorReachOnly, Async: true, DetectShards: 4}, p)
	if rep.Strands != 4 || len(rep.ShardLoad) != 4 || rep.Racy() {
		t.Errorf("ReachOnly with 4 workers: %d strands, %d ShardLoad entries, %d races", rep.Strands, len(rep.ShardLoad), rep.RaceCount)
	}
	rep = h.mustRun(Options{Detector: DetectorOff, Async: true, DetectShards: 4}, p)
	if rep.Racy() || rep.ShardLoad != nil {
		t.Errorf("DetectorOff reported %d races, ShardLoad %v", rep.RaceCount, rep.ShardLoad)
	}
}

// TestShardedSkewOneOwner: on one hot page, one of four workers owns every
// interval (the synchronous counters; the others zero), yet each scans every
// batch and event, fresh and reused.
func TestShardedSkewOneOwner(t *testing.T) {
	const shards = 4
	h := newHarness(t, nil, 1)
	layout := newProgram([]bufSpec{{48 << 10, 1}}, nil)
	r, bufs := h.newRunner(Options{Detector: DetectorSTINT, Async: true, DetectShards: shards, MaxRacesRecorded: 1 << 20}, layout)
	r.asyncBatchEvents, r.asyncRingDepth = 16, 4 // the few thousand events span ~100 batches
	// Every index below stays on the buffer's first whole page.
	pageSize := Addr(1) << coalesce.PageBytesBits
	start := int((pageSize - bufs[0].Base()%pageSize) % pageSize / 4)
	owner := evstream.PickShard(uint64(bufs[0].Addr(start))>>coalesce.PageBytesBits, shards)
	var acts []act
	for i := 0; i < 16; i++ { // overlapping writes race; scattered words are an interval each
		body := []act{storeN(start+i*512, 1024)}
		for j := 0; j < 200; j++ {
			body = append(body, load(start+(i*389+j*7)%8192))
		}
		acts = append(acts, spawn(body...))
	}
	p := newProgram(layout.bufs, append(acts, syncAct, loadN(start, 4096)))
	sync := h.mustRun(Options{Detector: DetectorSTINT, MaxRacesRecorded: 1 << 20}, p)
	if sync.RaceCount == 0 {
		t.Fatal("skew program produced no races; test is vacuous")
	}
	for _, name := range []string{"fresh", "reused"} {
		rep := h.run(r, bufs, p, -1).rep
		assertSameReport(t, name, rep, sync)
		as := r.warm.as
		batches := as.bcast.Stats().BatchesPublished
		if batches < 50 {
			t.Errorf("%s: the run spans only %d batches", name, batches)
		}
		for i, l := range rep.ShardLoad {
			if l.BatchesScanned != batches || l.BatchesSkipped != 0 || l.EventsScanned != rep.Stats.EventsStreamed {
				t.Errorf("%s: shard %d scanned %d of %d batches (%d skipped) and %d of %d events",
					name, i, l.BatchesScanned, batches, l.BatchesSkipped, l.EventsScanned, rep.Stats.EventsStreamed)
			}
			ws, want := as.workers[i].stats, Stats{}
			if i == owner {
				want = sync.Stats
			}
			if ws.ReadIntervals != want.ReadIntervals || ws.WriteIntervals != want.WriteIntervals ||
				ws.TreapOps != want.TreapOps || ws.Races != want.Races {
				t.Errorf("%s: shard %d (owner is %d) has %d/%d intervals, %d treap ops, %d races; want %d/%d, %d, %d", name, i, owner,
					ws.ReadIntervals, ws.WriteIntervals, ws.TreapOps, ws.Races,
					want.ReadIntervals, want.WriteIntervals, want.TreapOps, want.Races)
			}
		}
	}
}

func TestShardedOnRacePanicPropagates(t *testing.T) { onRacePanics(t, 2) }

// TestAsyncZeroAndOneShardIdentical: DetectShards 0 and 1 are one code
// path, stream totals and the one-entry ShardLoad included.
func TestAsyncZeroAndOneShardIdentical(t *testing.T) {
	p := shardProgram()
	h := newHarness(t, nil, 1)
	var reps [2][2]*Report // [DetectShards][lap]
	for n := range reps {
		r, bufs := h.newRunner(Options{Detector: DetectorSTINT, Async: true, DetectShards: n, MaxRacesRecorded: 1 << 20}, p)
		r.asyncBatchEvents, r.asyncRingDepth = 0, 0 // the default geometry
		for lap := range reps[n] {
			reps[n][lap] = h.run(r, bufs, p, -1).rep
		}
	}
	for lap, zero := range reps[0] {
		one := reps[1][lap]
		assertSameReport(t, fmt.Sprintf("lap %d: DetectShards 1 vs 0", lap), one, zero)
		if len(zero.ShardLoad) != 1 || len(one.ShardLoad) != 1 || zero.Stats.EventsStreamed == 0 ||
			zero.Stats.EventsStreamed != one.Stats.EventsStreamed || zero.Stats.StreamBytes != one.Stats.StreamBytes {
			t.Errorf("lap %d: %d and %d ShardLoad entries, stream totals %d events / %d bytes vs %d / %d", lap,
				len(zero.ShardLoad), len(one.ShardLoad), zero.Stats.EventsStreamed, zero.Stats.StreamBytes,
				one.Stats.EventsStreamed, one.Stats.StreamBytes)
		}
	}
}

// TestWorkersReplayTheSameSPOrder: every worker's private SP-Order has the
// synchronous strands and ranks, so no reachability is shipped.
func TestWorkersReplayTheSameSPOrder(t *testing.T) {
	h := newHarness(t, nil, 1)
	for seed := int64(9000); seed < 9010; seed++ {
		p := decodeProgram(genProgram(seed, shape{5, 5, 0}))
		syncR, bufs := h.newRunner(Options{Detector: DetectorSTINT}, p)
		sync := h.run(syncR, bufs, p, -1).rep
		for _, name := range []string{"shards=4", "parallel-detect=4"} {
			r, bufs := h.newRunner(modeNamed(name).With(Options{Detector: DetectorSTINT}), p)
			if rep := h.run(r, bufs, p, -1).rep; rep.Strands != sync.Strands {
				t.Fatalf("seed %d %s: Strands %d, sync %d", seed, name, rep.Strands, sync.Strands)
			}
			for i, w := range r.warm.as.workers {
				if w.sp.StrandCount() != sync.Strands {
					t.Fatalf("seed %d %s: worker %d replayed %d strands, sync has %d", seed, name, i, w.sp.StrandCount(), sync.Strands)
				}
				for id := int32(0); int(id) < sync.Strands; id++ {
					if got, want := w.sp.SeqRank(id), syncR.warm.rp.sp.SeqRank(id); got != want {
						t.Fatalf("seed %d %s: worker %d ranks strand %d at %d, sync at %d", seed, name, i, id, got, want)
					}
				}
			}
		}
	}
}
