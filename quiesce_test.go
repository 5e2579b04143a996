package stint

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"stint/internal/core"
)

// The quiesce suite pins the per-page quiescing contract: quiesce decisions
// are page-local and taken at deterministic points in the serial order, so
// the race report with quiescing on is identical across every execution
// mode, a strict subset of the quiesce-off report, and byte-identical to
// the quiesce-off report on programs that never trip the threshold. The
// MaxHistoryBytes hard cap layers on top: a structured error, never a
// panic, with the Runner recovering on its next Run.

// qPageWords is the word count of one 64 KiB shadow page.
const qPageWords = 1 << 14

// quiesceRacyActs builds a program whose parallel overlapping writes spread
// races over several shadow pages, including ranges that straddle page
// boundaries — flushed as one interval per page, each for a different
// worker.
func quiesceRacyActs(pages int) []act {
	var acts []act
	for p := 0; p < pages; p++ {
		base := p * qPageWords
		acts = append(acts,
			act{kind: 'S', body: []act{{kind: 'W', buf: 0, idx: base, n: 96}}},
			act{kind: 'S', body: []act{{kind: 'W', buf: 0, idx: base + 48, n: 96}}},
			act{kind: 'S', body: []act{{kind: 'L', buf: 0, idx: base, n: 144}}},
		)
	}
	// Page-straddling racy ranges: each spans a full page plus change, so
	// wherever the buffer lands in the address space the span crosses at
	// least one 64 KiB boundary while its pages quiesce around it.
	for p := 0; p+1 < pages; p++ {
		start := p * qPageWords
		acts = append(acts,
			act{kind: 'S', body: []act{{kind: 'W', buf: 0, idx: start, n: qPageWords + 64}}},
		)
	}
	acts = append(acts, act{kind: 'Y'})
	return acts
}

// quiesceRun executes acts over one multi-page buffer under opts, with the
// tiny pipeline geometry the equivalence suite uses so quiescing triggers
// mid-batch.
func quiesceRun(t *testing.T, opts Options, words int, acts []act) *Report {
	t.Helper()
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Async || opts.ParallelDetect {
		r.asyncBatchEvents, r.asyncRingDepth = 8, 2
	}
	buf := r.Arena().AllocWords("q", words)
	rep, err := r.Run(func(task *Task) { runActs(task, []*Buffer{buf}, acts) })
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestQuiesceDifferentialModes is the tentpole equivalence check: with a
// small PageQuiesceThreshold on a racy multi-page program, the races, race
// count, strand count, and every deterministic counter (pages quiesced
// included) are identical across sync and every pipelined mode — the hook
// counters too: a hook the producer drops for a
// dead page is still counted, on the mutator side.
func TestQuiesceDifferentialModes(t *testing.T) {
	const pages = 5
	acts := quiesceRacyActs(pages)
	for _, d := range shardTestDetectors {
		t.Run(fmt.Sprintf("%v", d), func(t *testing.T) {
			base := Options{Detector: d, MaxRacesRecorded: 1 << 20, PageQuiesceThreshold: 2}
			sync := quiesceRun(t, base, pages*qPageWords, acts)
			if sync.Stats.PagesQuiesced == 0 {
				t.Fatalf("%v: no pages quiesced; the differential is vacuous", d)
			}
			if sync.RaceCount == 0 {
				t.Fatalf("%v: fixture program found no races", d)
			}
			for _, m := range pipeModes {
				assertSameReport(t, m.Name, quiesceRun(t, m.With(base), pages*qPageWords, acts), sync)
			}
		})
	}
}

// TestQuiesceMidSortedRun retires pages in the middle of a strand's sorted
// run. Each page takes a strand of sixteen-byte writes at a 32-byte stride —
// fft's shape — then a parallel strand re-reading them in order: its third
// read is the page's third race, so quiescePage drops both trees while the
// finger of each points into them and the rest of the run on that page is
// discarded; the parked shells are what the next page's first touch gets.
// A finger that outlived the Drop would start the next walk at a freed node.
// Every mode must agree with sync, counters (TreapNodesVisited) included.
func TestQuiesceMidSortedRun(t *testing.T) {
	const pages, perPage = 4, 64
	var acts []act
	for p := 0; p < pages; p++ {
		var wr, rd []act
		for i := 0; i < perPage; i++ {
			wr = append(wr, act{kind: 'W', idx: p*qPageWords + i*8, n: 4})
			rd = append(rd, act{kind: 'L', idx: p*qPageWords + i*8, n: 4})
		}
		// The reader also covers the next page's first half before that
		// page's own strands run, so a reused shell starts mid-history.
		rd = append(rd, act{kind: 'L', idx: ((p + 1) % pages) * qPageWords, n: qPageWords / 2})
		acts = append(acts, act{kind: 'S', body: wr}, act{kind: 'S', body: rd})
	}
	acts = append(acts, act{kind: 'Y'})
	for _, d := range shardTestDetectors {
		base := Options{Detector: d, MaxRacesRecorded: 1 << 20, PageQuiesceThreshold: 3}
		sync := quiesceRun(t, base, pages*qPageWords, acts)
		if sync.Stats.PagesQuiesced == 0 {
			t.Fatalf("%v: no page quiesced mid-run; the test is vacuous", d)
		}
		if iv := sync.Stats.ReadIntervals; iv >= pages*(perPage+1) {
			t.Fatalf("%v: all %d read intervals survived; none was dropped behind a retired page", d, iv)
		}
		for _, m := range pipeModes {
			assertSameReport(t, fmt.Sprintf("%v/%s", d, m.Name), quiesceRun(t, m.With(base), pages*qPageWords, acts), sync)
		}
	}
}

// TestQuiescePastRegistryCapacity races on more pages than the quiesce
// registry absorbs (it stops at 2 048): sync and the serial pipelines drop
// dead-page accesses at the hook only for pages the registry lists and fall
// back to setting bits their histories drop page-locally for the rest, and
// ParallelDetect has no registry at all — so the reports agreeing across the
// table is the check that the hook-side drop never decides anything.
func TestQuiescePastRegistryCapacity(t *testing.T) {
	const pages = 2100
	var acts []act
	for p := 0; p < pages; p++ { // two parallel writes retire page p at once
		acts = append(acts,
			act{kind: 'S', body: []act{{kind: 's', idx: p * qPageWords}}},
			act{kind: 'S', body: []act{{kind: 's', idx: p * qPageWords}}})
	}
	acts = append(acts, act{kind: 'Y'})
	for p := 0; p < pages; p++ { // every page is dead now; the last ~50 unlisted
		acts = append(acts,
			act{kind: 'S', body: []act{{kind: 'W', idx: p*qPageWords + 16, n: 8}, {kind: 'l', idx: p * qPageWords}}},
			act{kind: 'S', body: []act{{kind: 'L', idx: p*qPageWords + 16, n: 8}}})
	}
	acts = append(acts, act{kind: 'W', idx: 2040 * qPageWords, n: 20 * qPageWords}, act{kind: 'Y'})
	for _, d := range []Detector{DetectorCompRTS, DetectorSTINT} {
		base := Options{Detector: d, PageQuiesceThreshold: 1}
		sync := quiesceRun(t, base, pages*qPageWords, acts)
		if sync.Stats.PagesQuiesced != pages || sync.RaceCount != pages {
			t.Fatalf("%v: %d pages quiesced, %d races; want %d of each", d, sync.Stats.PagesQuiesced, sync.RaceCount, pages)
		}
		if iv := sync.Stats.ReadIntervals + sync.Stats.WriteIntervals; iv != 2*pages {
			t.Fatalf("%v: %d intervals survived; only the %d that retired the pages should", d, iv, 2*pages)
		}
		for _, m := range pipeModes {
			assertSameReport(t, fmt.Sprintf("%v/%s", d, m.Name), quiesceRun(t, m.With(base), pages*qPageWords, acts), sync)
		}
	}
}

// TestQuiesceSubsetOfFullReport pins the two threshold semantics: the
// quiesce-on race list is a multiset subset of the quiesce-off list (a page
// only ever stops reporting, never invents), and a threshold the program
// never reaches reproduces the quiesce-off report byte for byte.
func TestQuiesceSubsetOfFullReport(t *testing.T) {
	const pages = 4
	acts := quiesceRacyActs(pages)
	for _, d := range shardTestDetectors {
		t.Run(fmt.Sprintf("%v", d), func(t *testing.T) {
			off := quiesceRun(t, Options{Detector: d, MaxRacesRecorded: 1 << 20}, pages*qPageWords, acts)
			on := quiesceRun(t, Options{Detector: d, MaxRacesRecorded: 1 << 20, PageQuiesceThreshold: 2},
				pages*qPageWords, acts)
			if on.Stats.PagesQuiesced == 0 {
				t.Fatal("threshold 2 quiesced nothing")
			}
			if on.RaceCount >= off.RaceCount {
				t.Fatalf("quiescing dropped no races: on %d, off %d", on.RaceCount, off.RaceCount)
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
			// A threshold above the per-page race count is a no-op: the full
			// report, stats included, is byte-identical to quiescing off.
			high := quiesceRun(t, Options{Detector: d, MaxRacesRecorded: 1 << 20, PageQuiesceThreshold: 1 << 30},
				pages*qPageWords, acts)
			if high.Stats.PagesQuiesced != 0 {
				t.Fatalf("unreachable threshold quiesced %d pages", high.Stats.PagesQuiesced)
			}
			if !reflect.DeepEqual(high.Races, off.Races) ||
				normStats(high.Stats) != normStats(off.Stats) ||
				high.Stats.HistoryBytesPeak != off.Stats.HistoryBytesPeak {
				t.Fatalf("unreachable threshold changed the report\n got: %+v\n off: %+v",
					normStats(high.Stats), normStats(off.Stats))
			}
		})
	}
}

// TestQuiesceRaceFreeZeroDelta: on a race-free program quiescing can never
// trigger, so enabling it must not change a byte of the report — races,
// stats, and footprint peak included — in any execution mode.
func TestQuiesceRaceFreeZeroDelta(t *testing.T) {
	var mk func(lo, hi, depth int) []act
	mk = func(lo, hi, depth int) []act {
		if depth == 0 || hi-lo < 4 {
			return []act{
				{kind: 'L', buf: 0, idx: lo, n: hi - lo},
				{kind: 'W', buf: 0, idx: lo, n: hi - lo},
			}
		}
		mid := (lo + hi) / 2
		return []act{
			{kind: 'S', body: mk(lo, mid, depth-1)},
			{kind: 'S', body: mk(mid, hi, depth-1)},
			{kind: 'Y'},
			{kind: 'L', buf: 0, idx: lo, n: hi - lo},
		}
	}
	const words = 3 * qPageWords
	acts := mk(0, words, 6)
	modes := []Options{
		{Detector: DetectorSTINT},
		{Detector: DetectorSTINT, Async: true},
		{Detector: DetectorSTINT, Async: true, DetectShards: 2},
		{Detector: DetectorCompRTS, Async: true},
	}
	for _, opts := range modes {
		name := fmt.Sprintf("%v-async=%v-shards=%d", opts.Detector, opts.Async, opts.DetectShards)
		off := quiesceRun(t, opts, words, acts)
		if off.RaceCount != 0 {
			t.Fatalf("%s: fixture program races", name)
		}
		on := opts
		on.PageQuiesceThreshold = 2
		got := quiesceRun(t, on, words, acts)
		if !reflect.DeepEqual(got.Races, off.Races) ||
			got.Strands != off.Strands ||
			normStats(got.Stats) != normStats(off.Stats) ||
			got.Stats.HistoryBytesPeak != off.Stats.HistoryBytesPeak ||
			got.Stats.PagesQuiesced != 0 {
			t.Fatalf("%s: quiescing changed a race-free report\n on: %+v\noff: %+v",
				name, got.Stats, off.Stats)
		}
	}
}

// TestHistoryCapStructuredError pins the MaxHistoryBytes contract: a run
// whose retained footprint crosses the cap returns a structured error (no
// report, no panic) that errors.Is-matches ErrHistoryCap and errors.As-
// exposes the budget and the tripping estimate; the Runner stays valid and
// its next Run auto-resets, exactly like the ErrTooManyEvents recovery.
func TestHistoryCapStructuredError(t *testing.T) {
	const pages = 4
	acts := quiesceRacyActs(pages)
	modes := []Options{
		{Detector: DetectorSTINT, MaxHistoryBytes: 1},
		{Detector: DetectorCompRTS, MaxHistoryBytes: 1},
		{Detector: DetectorSTINT, Async: true, MaxHistoryBytes: 1},
		{Detector: DetectorSTINT, Async: true, DetectShards: 2, MaxHistoryBytes: 1},
		{Detector: DetectorSTINT, ParallelDetect: true, DetectShards: 2, MaxHistoryBytes: 1},
	}
	for _, opts := range modes {
		name := fmt.Sprintf("%v-async=%v-par=%v-shards=%d",
			opts.Detector, opts.Async, opts.ParallelDetect, opts.DetectShards)
		opts.MaxRacesRecorded = 1 << 20
		r, err := NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		if opts.Async || opts.ParallelDetect {
			r.asyncBatchEvents, r.asyncRingDepth = 8, 2
		}
		buf := r.Arena().AllocWords("q", pages*qPageWords)
		rep, err := r.Run(func(task *Task) { runActs(task, []*Buffer{buf}, acts) })
		if err == nil {
			t.Fatalf("%s: expected a history-cap error, got a report (%d races)", name, rep.RaceCount)
		}
		if rep != nil {
			t.Fatalf("%s: got a report alongside the error", name)
		}
		if !errors.Is(err, ErrHistoryCap) {
			t.Fatalf("%s: error does not match ErrHistoryCap: %v", name, err)
		}
		var capErr *HistoryCapError
		if !errors.As(err, &capErr) {
			t.Fatalf("%s: error is not a *HistoryCapError: %v", name, err)
		}
		if capErr.Bytes == 0 || capErr.Bytes <= capErr.Limit {
			t.Fatalf("%s: implausible cap error %+v", name, capErr)
		}
		// Recovery: the next Run auto-resets. A program with no accesses
		// retains no history, so it completes under even this 1-byte cap.
		if _, err := r.Run(func(task *Task) {
			task.Spawn(func(*Task) {})
			task.Sync()
		}); err != nil {
			t.Fatalf("%s: Runner did not recover after the cap error: %v", name, err)
		}
		// And a second over-cap run trips again rather than misbehaving.
		if _, err := r.Run(func(task *Task) { runActs(task, []*Buffer{buf}, acts) }); !errors.Is(err, ErrHistoryCap) {
			t.Fatalf("%s: second over-cap run: %v", name, err)
		}
	}
}

// setPoolLimit sets the ref space, in nodes, of the node pool of every warm
// engine r holds. Exhausting the real one takes 4 GiB of history, so the
// test reaches the unexported core.Pool.limit by reflection: the inline
// engine wraps its history, a pipeline worker holds one directly.
func setPoolLimit(r *Runner, nodes int) {
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
		limit := v.FieldByName("pool").Elem().FieldByName("limit")
		reflect.NewAt(limit.Type(), unsafe.Pointer(limit.UnsafeAddr())).Elem().SetInt(int64(nodes))
	}
}

// TestRefSpaceExhaustionIsAHistoryCap: an engine whose node pool is about to
// run out of 32-bit refs stops with the MaxHistoryBytes error — before the
// interval that might not fit, no wrapped ref, no panic — and the same
// Runner, auto-reset, then reports an in-budget program exactly as a fresh
// one does.
func TestRefSpaceExhaustionIsAHistoryCap(t *testing.T) {
	const (
		pages    = 2
		headroom = 1<<14 + 2 // nodes the engine wants free before any interval
		limit    = 1 + headroom + 50
	)
	small := quiesceRacyActs(pages)
	var big []act // alternating words never coalesce: one node per store
	for i := 0; i < 400; i += 2 {
		big = append(big, act{kind: 's', idx: i})
	}
	for _, opts := range []Options{{}, modeNamed("shards=2").Opts} {
		opts.Detector, opts.MaxRacesRecorded = DetectorSTINT, 1<<20
		name := fmt.Sprintf("async=%v-shards=%d", opts.Async, opts.DetectShards)
		want := quiesceRun(t, opts, pages*qPageWords, small)
		if want.RaceCount == 0 {
			t.Fatalf("%s: the in-budget program should race", name)
		}
		r, err := NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		if opts.Async {
			r.asyncBatchEvents, r.asyncRingDepth = 8, 2
		}
		buf := r.Arena().AllocWords("q", pages*qPageWords)
		run := func(acts []act) (*Report, error) {
			return r.Run(func(task *Task) { runActs(task, []*Buffer{buf}, acts) })
		}
		if _, err := run(small); err != nil { // builds the warm engines
			t.Fatal(err)
		}
		setPoolLimit(r, limit)
		rep, err := run(big)
		var capErr *HistoryCapError
		if rep != nil || !errors.Is(err, ErrHistoryCap) || !errors.As(err, &capErr) {
			t.Fatalf("%s: over the ref space: report %v, error %v; want a HistoryCapError", name, rep, err)
		}
		if capErr.Limit != limit*core.NodeBytes || capErr.Bytes <= capErr.Limit {
			t.Fatalf("%s: cap error %+v, want the %d-node ref space as its limit", name, capErr, limit)
		}
		got, err := run(small)
		if err != nil {
			t.Fatalf("%s: Runner did not recover after the ref-space error: %v", name, err)
		}
		assertSameReport(t, name+"/after ref-space error", got, want)
	}
}

// TestQuiesceResetClearsState: a quiesce-heavy run followed by Reset must
// not bleed into the next run — same races, same PagesQuiesced, with the
// pages revived from their directory tombstones.
func TestQuiesceResetClearsState(t *testing.T) {
	const pages = 4
	acts := quiesceRacyActs(pages)
	for _, d := range shardTestDetectors {
		opts := Options{Detector: d, MaxRacesRecorded: 1 << 20, PageQuiesceThreshold: 2}
		r, err := NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		buf := r.Arena().AllocWords("q", pages*qPageWords)
		run := func() *Report {
			rep, err := r.Run(func(task *Task) { runActs(task, []*Buffer{buf}, acts) })
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		first := run()
		if first.Stats.PagesQuiesced == 0 {
			t.Fatalf("%v: no pages quiesced", d)
		}
		for i := 0; i < 3; i++ {
			got := run() // Run auto-resets the dirty Runner
			if !reflect.DeepEqual(got.Races, first.Races) ||
				got.Stats.PagesQuiesced != first.Stats.PagesQuiesced ||
				normStats(got.Stats) != normStats(first.Stats) {
				t.Fatalf("%v run %d: quiesce state bled across Reset\nfirst: %+v\n got: %+v",
					d, i+1, normStats(first.Stats), normStats(got.Stats))
			}
		}
	}
}

// TestMaxRacesDefaultUnified is the defaulting regression test: a zero
// MaxRacesRecorded means DefaultMaxRacesRecorded at every entry point, so a
// program with more races than the default gets exactly the default number
// recorded while RaceCount keeps counting.
func TestMaxRacesDefaultUnified(t *testing.T) {
	// One pair of parallel single-word writes per word: each pair is an
	// independent race, so the program's race count is well above the
	// default recording cap.
	var acts []act
	for i := 0; i < 2*DefaultMaxRacesRecorded; i++ {
		acts = append(acts,
			act{kind: 'S', body: []act{{kind: 'W', buf: 0, idx: 2 * i, n: 1}}},
			act{kind: 'S', body: []act{{kind: 'W', buf: 0, idx: 2 * i, n: 1}}},
		)
	}
	acts = append(acts, act{kind: 'Y'})
	rep := quiesceRun(t, Options{Detector: DetectorSTINT}, 4*DefaultMaxRacesRecorded, acts)
	if rep.RaceCount <= DefaultMaxRacesRecorded {
		t.Fatalf("fixture program found only %d races; want > %d", rep.RaceCount, DefaultMaxRacesRecorded)
	}
	if len(rep.Races) != DefaultMaxRacesRecorded {
		t.Fatalf("zero MaxRacesRecorded recorded %d races; want the default %d",
			len(rep.Races), DefaultMaxRacesRecorded)
	}
}
