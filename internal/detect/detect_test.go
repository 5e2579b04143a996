package detect

import (
	"strings"
	"testing"

	"stint/internal/core"
	"stint/internal/spord"
)

// allModes are the real engines (not Off/ReachOnly).
var allModes = []Mode{Vanilla, Compiler, CompRTS, STINT}

// script drives an engine through a minimal fork-join execution at the
// spord level: the parent writes before the spawn (series with everything),
// the child and the continuation then perform the given accesses, which are
// logically parallel with each other.
func runConflictScript(t *testing.T, mode Mode, childWrite, contWrite bool, childAddr, contAddr uint64, size uint64) []Race {
	t.Helper()
	sp := spord.New()
	var races []Race
	e := New(Config{Mode: mode, OnRace: func(r Race) { races = append(races, r) }}, sp)
	f := &spord.Frame{}

	e.WriteHook(0x9000, 4) // series access; must never race
	e.StrandEnd()
	_, cont := sp.Spawn(f)
	if childWrite {
		e.WriteHook(childAddr, size)
	} else {
		e.ReadHook(childAddr, size)
	}
	e.StrandEnd()
	sp.Restore(cont)
	if contWrite {
		e.WriteHook(contAddr, size)
	} else {
		e.ReadHook(contAddr, size)
	}
	e.StrandEnd()
	sp.Sync(f)
	e.Finish()
	return races
}

func TestEnginesReportWriteWriteConflict(t *testing.T) {
	for _, m := range allModes {
		races := runConflictScript(t, m, true, true, 0x1000, 0x1000, 8)
		if len(races) == 0 {
			t.Errorf("%v: write-write conflict missed", m)
			continue
		}
		r := races[0]
		if !r.PrevWrite || !r.CurWrite {
			t.Errorf("%v: race kinds wrong: %+v", m, r)
		}
	}
}

func TestEnginesReportReadWriteConflict(t *testing.T) {
	for _, m := range allModes {
		races := runConflictScript(t, m, false, true, 0x1000, 0x1000, 4)
		if len(races) == 0 {
			t.Errorf("%v: read-write conflict missed", m)
		}
	}
}

func TestEnginesIgnoreReadRead(t *testing.T) {
	for _, m := range allModes {
		if races := runConflictScript(t, m, false, false, 0x1000, 0x1000, 4); len(races) != 0 {
			t.Errorf("%v: read-read flagged: %v", m, races)
		}
	}
}

func TestEnginesIgnoreDisjointAddresses(t *testing.T) {
	for _, m := range allModes {
		if races := runConflictScript(t, m, true, true, 0x1000, 0x2000, 8); len(races) != 0 {
			t.Errorf("%v: disjoint writes flagged: %v", m, races)
		}
	}
}

func TestPartialOverlapReported(t *testing.T) {
	for _, m := range allModes {
		races := runConflictScript(t, m, true, true, 0x1000, 0x1004, 8)
		if len(races) == 0 {
			t.Errorf("%v: 4-byte overlap of two 8-byte writes missed", m)
		}
	}
}

func TestVanillaExpandsRangeHooks(t *testing.T) {
	sp := spord.New()
	e := New(Config{Mode: Vanilla}, sp)
	e.ReadRangeHook(0x1000, 10, 4)
	if got := e.Stats().ReadHookCalls; got != 10 {
		t.Errorf("vanilla ReadHookCalls = %d, want 10 (one per element)", got)
	}
	c := New(Config{Mode: Compiler}, sp)
	c.ReadRangeHook(0x1000, 10, 4)
	if got := c.Stats().ReadHookCalls; got != 1 {
		t.Errorf("compiler ReadHookCalls = %d, want 1 (coalesced)", got)
	}
	if e.Stats().ReadAccesses != c.Stats().ReadAccesses {
		t.Errorf("access counts differ: %d vs %d", e.Stats().ReadAccesses, c.Stats().ReadAccesses)
	}
}

func TestCompRTSDefersChecksToStrandEnd(t *testing.T) {
	sp := spord.New()
	var races []Race
	e := New(Config{Mode: CompRTS, OnRace: func(r Race) { races = append(races, r) }}, sp)
	f := &spord.Frame{}
	_, cont := sp.Spawn(f)
	e.WriteHook(0x1000, 4)
	e.StrandEnd()
	sp.Restore(cont)
	e.WriteHook(0x1000, 4)
	if len(races) != 0 {
		t.Fatal("race reported before strand end")
	}
	e.StrandEnd()
	if len(races) == 0 {
		t.Fatal("race not reported at strand end")
	}
}

func TestRuntimeCoalescingMergesAdjacentHooks(t *testing.T) {
	sp := spord.New()
	e := New(Config{Mode: STINT}, sp)
	for i := 0; i < 64; i++ {
		e.WriteHook(uint64(0x1000+4*i), 4)
	}
	e.StrandEnd()
	st := e.Stats()
	if st.WriteIntervals != 1 {
		t.Errorf("WriteIntervals = %d, want 1", st.WriteIntervals)
	}
	if st.WriteIntervalBytes != 256 {
		t.Errorf("WriteIntervalBytes = %d, want 256", st.WriteIntervalBytes)
	}
}

func TestFinishFlushesLastStrand(t *testing.T) {
	sp := spord.New()
	var races []Race
	e := New(Config{Mode: STINT, OnRace: func(r Race) { races = append(races, r) }}, sp)
	f := &spord.Frame{}
	_, cont := sp.Spawn(f)
	e.WriteHook(0x1000, 4)
	e.StrandEnd()
	sp.Restore(cont)
	e.WriteHook(0x1000, 4)
	// No StrandEnd: Finish must flush the continuation strand itself.
	e.Finish()
	if len(races) == 0 {
		t.Fatal("Finish did not flush the final strand")
	}
}

func TestTreapStatsPopulatedOnFinish(t *testing.T) {
	sp := spord.New()
	e := New(Config{Mode: STINT}, sp)
	e.WriteHook(0x1000, 64)
	e.ReadHook(0x2000, 64)
	e.Finish()
	st := e.Stats()
	if st.TreapOps == 0 {
		t.Error("TreapOps = 0 after Finish")
	}
	// Two stored intervals, one node each, at the node's real size.
	if want := 2 * core.NodeBytes; st.AccessHistoryBytes != want {
		t.Errorf("AccessHistoryBytes = %d after Finish, want %d", st.AccessHistoryBytes, want)
	}
}

// TestHistoryPageAllocations pins what a page of history costs the heap on a
// warm engine: the shell alone on first touch — its two trees live inside
// it — and nothing for a page taken back from the freelist.
func TestHistoryPageAllocations(t *testing.T) {
	const warm = 100 // leaves the directory at 256 slots: no growth below 192 pages
	e := newTreeEngine(Config{}, spord.New())
	var idx uint64
	touch := func() { idx++; e.pageFor(idx) }
	for i := 0; i < warm; i++ {
		touch()
	}
	e.Reset()
	if got := testing.AllocsPerRun(warm-1, touch); got != 0 || e.pages.Parked() != 0 {
		t.Fatalf("a parked page cost %v allocations (%d still parked), want 0 (0)", got, e.pages.Parked())
	}
	if got := testing.AllocsPerRun(50, touch); got != 1 {
		t.Fatalf("a first-touched page cost %v allocations, want 1 (the shell)", got)
	}
}

func TestHashOpsCounted(t *testing.T) {
	sp := spord.New()
	e := New(Config{Mode: Vanilla}, sp)
	e.WriteHook(0x1000, 16) // 4 words
	if got := e.Stats().HashOps; got != 4 {
		t.Errorf("HashOps = %d, want 4", got)
	}
}

func TestModeStringRoundTrip(t *testing.T) {
	for _, m := range append([]Mode{Off, ReachOnly}, allModes...) {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	for _, name := range []string{"junk", "stint-skiplist"} {
		if _, err := ParseMode(name); err == nil || !strings.Contains(err.Error(), "unknown mode") {
			t.Errorf("ParseMode(%q) error = %v, want unknown mode", name, err)
		}
	}
	if Mode(99).String() == "" {
		t.Error("unknown mode has empty String")
	}
}

func TestRaceString(t *testing.T) {
	r := Race{Addr: 0x1000, Size: 8, Prev: 1, Cur: 2, PrevWrite: true, CurWrite: false}
	s := r.String()
	for _, want := range []string{"write", "read", "strand 1", "strand 2", "0x1000"} {
		if !strings.Contains(s, want) {
			t.Errorf("Race.String() = %q missing %q", s, want)
		}
	}
}

func TestNopEngineDoesNothing(t *testing.T) {
	sp := spord.New()
	for _, m := range []Mode{Off, ReachOnly} {
		e := New(Config{Mode: m}, sp)
		e.WriteHook(0x1000, 4)
		e.ReadRangeHook(0x1000, 4, 4)
		e.WriteRangeHook(0x1000, 4, 4)
		e.StrandEnd()
		e.Finish()
		if st := e.Stats(); st.ReadAccesses != 0 || st.Races != 0 {
			t.Errorf("%v engine recorded activity: %+v", m, st)
		}
	}
}

func TestLeftmostReaderSemantics(t *testing.T) {
	// Three siblings read the same word; then the parent (after sync)
	// writes it. Every engine must flag the race even though only one
	// reader is stored — the leftmost reader suffices (Feng–Leiserson).
	for _, m := range allModes {
		sp := spord.New()
		var races []Race
		e := New(Config{Mode: m, OnRace: func(r Race) { races = append(races, r) }}, sp)
		f := &spord.Frame{}
		for i := 0; i < 3; i++ {
			e.StrandEnd()
			_, cont := sp.Spawn(f)
			e.ReadHook(0x1000, 4)
			e.StrandEnd()
			sp.Restore(cont)
		}
		// A fourth parallel sibling writes: race with some stored reader.
		e.StrandEnd()
		_, cont := sp.Spawn(f)
		e.WriteHook(0x1000, 4)
		e.StrandEnd()
		sp.Restore(cont)
		sp.Sync(f)
		e.Finish()
		if len(races) == 0 {
			t.Errorf("%v: read-write race via stored leftmost reader missed", m)
		}
		// After the sync, a write is in series with all readers.
		races = races[:0]
		sp2 := spord.New()
		e2 := New(Config{Mode: m, OnRace: func(r Race) { races = append(races, r) }}, sp2)
		f2 := &spord.Frame{}
		for i := 0; i < 3; i++ {
			e2.StrandEnd()
			_, cont := sp2.Spawn(f2)
			e2.ReadHook(0x1000, 4)
			e2.StrandEnd()
			sp2.Restore(cont)
		}
		e2.StrandEnd()
		sp2.Sync(f2)
		e2.WriteHook(0x1000, 4)
		e2.Finish()
		if len(races) != 0 {
			t.Errorf("%v: synced write flagged against readers: %v", m, races)
		}
	}
}

// TestWriteOverOneReadersRunIsOneRace: sibling strands read touching
// fragments of a range, then a strand after their sync reads all of it — in
// series and later, so left-of each of them — and takes every fragment over.
// The read tree holds that reader's run as one node, so a write parallel to
// it produces one race spanning the run, not one per fragment.
func TestWriteOverOneReadersRunIsOneRace(t *testing.T) {
	const n, frag, at = 16, 64, 0x1000
	sp := spord.New()
	var races []Race
	e := New(Config{Mode: STINT, OnRace: func(r Race) { races = append(races, r) }}, sp)
	f := &spord.Frame{}
	for i := 0; i < n; i++ {
		e.StrandEnd()
		_, cont := sp.Spawn(f)
		e.ReadHook(at+uint64(i*frag), frag)
		e.StrandEnd()
		sp.Restore(cont)
	}
	e.StrandEnd()
	sp.Sync(f)
	g := &spord.Frame{}
	e.StrandEnd()
	_, cont := sp.Spawn(g)
	reader := sp.CurrentID()
	e.ReadHook(at, n*frag)
	e.StrandEnd()
	sp.Restore(cont)
	e.WriteHook(at, n*frag)
	e.StrandEnd()
	want := Race{Addr: at, Size: n * frag, Prev: reader, Cur: sp.CurrentID(), CurWrite: true}
	sp.Sync(g)
	e.Finish()
	if len(races) != 1 || races[0] != want {
		t.Fatalf("races = %v, want the one %v", races, want)
	}
	if got, want := e.Stats().AccessHistoryBytes, 2*core.NodeBytes; got != want {
		t.Errorf("history holds %d bytes, want %d: one read node and one write node", got, want)
	}
}

// TestParkedPageReportsItsNewPage: a history page parked by Reset or by
// quiescing keeps no trace of the page index it served — taken back for a
// different index, its trees are re-based, so the races it reports carry the
// new page's absolute addresses (and all three kinds of overlap callback
// shift word positions back to bytes).
func TestParkedPageReportsItsNewPage(t *testing.T) {
	const pageBytes = 1 << 16
	for _, park := range []string{"reset", "quiesce"} {
		sp := spord.New()
		var races []Race
		cfg := Config{Mode: STINT, OnRace: func(r Race) { races = append(races, r) }}
		if park == "quiesce" {
			cfg.QuiesceThreshold = 1
		}
		e := New(cfg, sp)
		hist := e.(*inline).hist.(*treeEngine)
		// The child writes [addr, addr+16) and reads the 8 bytes after; the
		// continuation reads across both and writes the child's last word.
		racyPair := func(addr uint64) {
			f := &spord.Frame{}
			_, cont := sp.Spawn(f)
			e.WriteHook(addr, 16)
			e.ReadHook(addr+16, 8)
			e.StrandEnd()
			sp.Restore(cont)
			e.ReadHook(addr+8, 16)
			e.WriteHook(addr+12, 8)
			e.StrandEnd()
			sp.Sync(f)
		}
		racyPair(3*pageBytes + 64)
		if park == "reset" {
			e.Reset()
			sp.Reset()
		} else if hist.stats.PagesQuiesced != 1 {
			t.Fatalf("%s: page 3 did not quiesce", park)
		}
		if hist.pages.Parked() != 1 {
			t.Fatalf("%s: %d pages parked, want 1", park, hist.pages.Parked())
		}
		races = races[:0]
		const at = 9*pageBytes + pageBytes - 32 // up against the far end of page 9
		racyPair(at)
		if hist.pages.Made() != 1 {
			t.Fatalf("%s: %d page shells allocated, want the parked one taken back", park, hist.pages.Made())
		}
		if len(races) == 0 {
			t.Fatalf("%s: no race on the re-bound page", park)
		}
		for _, r := range races {
			if r.Addr < at || r.Addr+r.Size > at+24 || r.Size == 0 || r.Addr%4 != 0 {
				t.Errorf("%s: race %+v lies outside [%#x, %#x), the bytes the pair touched on page 9", park, r, at, at+24)
			}
		}
	}
}
