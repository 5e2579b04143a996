package stint

import (
	"strings"
	"sync/atomic"
	"testing"
)

// runOne runs acts under detector d over one 1024-word buffer.
func runOne(t *testing.T, d Detector, acts ...act) *Report {
	t.Helper()
	return newHarness(t, nil, 1).mustRun(Options{Detector: d, MaxRacesRecorded: 1 << 20}, newProgram([]bufSpec{{1024, 1}}, acts))
}

// The verdict tests: each small program goes through the contract checker
// on every detector and mode, and the oracle's verdict is pinned.

func TestParallelWritesRace(t *testing.T) { verdict(t, true, spawn(store(5)), store(5), syncAct) }

func TestReadReadIsNotARace(t *testing.T) { verdict(t, false, spawn(load(5)), load(5), syncAct) }

func TestReadWriteRace(t *testing.T) { verdict(t, true, spawn(load(7)), store(7), syncAct) }

// The parent writes before the spawn; the child's read is in series.
func TestWriteThenReadInSpawnedChildIsSeries(t *testing.T) {
	verdict(t, false, store(3), spawn(load(3)), syncAct)
}

func TestSyncOrdersAccesses(t *testing.T) { verdict(t, false, spawn(store(9)), syncAct, store(9)) }

func TestSiblingSpawnsRace(t *testing.T) {
	verdict(t, true, spawn(store(11)), spawn(store(11)), syncAct)
}

func TestDisjointWordsNoRace(t *testing.T) {
	verdict(t, false, spawn(storeN(0, 100)), storeN(100, 100), syncAct)
}

func TestOverlappingRangesRace(t *testing.T) {
	verdict(t, true, spawn(storeN(0, 100)), storeN(99, 100), syncAct) // word 99
}

// The same logical program instrumented with range hooks and with per-word
// hooks: both race.
func TestRangeAndWordHooksAgree(t *testing.T) {
	verdict(t, true, spawn(storeN(10, 20)), loadN(25, 20), syncAct)
	var stores, loads []act
	for i := 10; i < 30; i++ {
		stores = append(stores, store(i))
	}
	for i := 25; i < 45; i++ {
		loads = append(loads, load(i))
	}
	verdict(t, true, append(append([]act{spawn(stores...)}, loads...), syncAct)...)
}

func TestNestedTasksGrandchildRace(t *testing.T) {
	verdict(t, true, spawn(spawn(store(42)), syncAct), store(42), syncAct)
}

// The child's internal sync joins the grandchild to the child, but the
// child's whole subcomputation stays parallel with the parent's
// continuation.
func TestChildSyncDoesNotJoinToParent(t *testing.T) {
	verdict(t, true, spawn(spawn(store(13)), syncAct, store(14)), store(14), syncAct)
}

// A task that spawns and returns without Sync still joins its children
// before the parent continues past its own sync of that task.
func TestImplicitSyncAtTaskEnd(t *testing.T) {
	verdict(t, false, spawn(spawn(store(21))), syncAct, store(21))
}

func TestRaceDetailsVanilla(t *testing.T) {
	rep := runOne(t, DetectorVanilla, spawn(store(5)), load(5), syncAct)
	if len(rep.Races) == 0 {
		t.Fatal("no race recorded")
	}
	if r := rep.Races[0]; !r.PrevWrite || r.CurWrite || r.Size == 0 || r.String() == "" {
		t.Errorf("race %+v (%q), want a write/read pair of nonzero size", r, r)
	}
}

func TestMaxRacesRecordedCap(t *testing.T) {
	p := newProgram([]bufSpec{{64, 1}}, []act{spawn(storeN(0, 64)), storeN(0, 64), syncAct})
	rep := newHarness(t, nil, 1).mustRun(Options{Detector: DetectorVanilla, MaxRacesRecorded: 3}, p)
	if len(rep.Races) != 3 || rep.RaceCount < 3 {
		t.Errorf("recorded %d of %d races, want the cap of 3 of the uncapped total", len(rep.Races), rep.RaceCount)
	}
}

// TestOnRaceCallback: the checker counts OnRace calls against RaceCount.
func TestOnRaceCallback(t *testing.T) { verdict(t, true, spawn(store(0)), store(0), syncAct) }

func TestDetectorOffRunsProgram(t *testing.T) {
	r, err := NewRunner(Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	rep, err := r.Run(func(task *Task) {
		if task.Detecting() {
			t.Error("Detecting() = true under DetectorOff")
		}
		task.Spawn(func(c *Task) { sum += 1 })
		task.Spawn(func(c *Task) { sum += 2 })
		task.Sync()
	})
	if err != nil || sum != 3 || rep.Racy() || rep.Strands != 0 {
		t.Errorf("DetectorOff: error %v, sum %d (want 3), report %+v (want no detection output)", err, sum, rep)
	}
}

// accessCounter is a Tracer counting the accesses it is shown.
type accessCounter struct{ n int }

func (*accessCounter) Spawn()                         {}
func (*accessCounter) Restore()                       {}
func (*accessCounter) Sync()                          {}
func (c *accessCounter) Read(Addr, uint64)            { c.n++ }
func (c *accessCounter) Write(Addr, uint64)           { c.n++ }
func (c *accessCounter) ReadRange(Addr, int, uint64)  { c.n++ }
func (c *accessCounter) WriteRange(Addr, int, uint64) { c.n++ }

// TestDetectingMatchesHooks pins what every workload's `det :=
// t.Detecting()` fast path trusts: in every mode, in the root task and in a
// spawned one, Detecting is true exactly when a Load, LoadRange or LoadAt
// reaches a hook counter or the Tracer — so skipping the hooks while it is
// false loses nothing, and nothing is skipped that would have counted.
func TestDetectingMatchesHooks(t *testing.T) {
	// Every cell of the contract grid with no limits, and the detection-off,
	// reachability-only and traced configurations.
	modes := map[string]Options{"off": {}, "reach": {Detector: DetectorReachOnly},
		"parallel-detect/off": {ParallelDetect: true}, "tracer": {Tracer: &accessCounter{}},
		"tracer+stint": {Detector: DetectorSTINT, Tracer: &accessCounter{}}}
	for _, c := range cellsWhere(func(c cell) bool { return c.lim == noLimit }) {
		modes[c.String()] = c.opts()
	}
	hooks := map[string]func(task *Task, buf *Buffer){
		"Load":      func(task *Task, buf *Buffer) { task.Load(buf, 1) },
		"LoadRange": func(task *Task, buf *Buffer) { task.LoadRange(buf, 2, 4) },
		"LoadAt":    func(task *Task, buf *Buffer) { task.LoadAt(buf.Addr(8), 4) },
	}
	for mode, opts := range modes {
		for name, hook := range hooks {
			for _, inChild := range []bool{false, true} {
				tr := &accessCounter{}
				if opts.Tracer != nil {
					opts.Tracer = tr
				}
				r, err := NewRunner(opts)
				if err != nil {
					t.Fatal(err)
				}
				buf := r.Arena().AllocWords("buf", 64)
				var detecting bool
				body := func(task *Task) {
					detecting = task.Detecting()
					hook(task, buf)
				}
				rep, err := r.Run(func(task *Task) {
					if inChild {
						task.Spawn(body)
					} else {
						body(task)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if reached := rep.Stats.ReadHookCalls > 0 || tr.n > 0; detecting != reached {
					t.Errorf("%s/%s (in child: %v): Detecting() = %v, but the hook reached a counter or the Tracer: %v",
						mode, name, inChild, detecting, reached)
				}
			}
		}
	}
}

// Without a runtime-coalescing detector to stream intervals to, the
// goroutine executor is only legal bare (DetectorOff).
func TestParallelRequiresDetectorOff(t *testing.T) {
	for _, d := range []Detector{DetectorReachOnly, DetectorVanilla, DetectorCompiler} {
		if _, err := NewRunner(Options{Detector: d, ParallelDetect: true}); err == nil {
			t.Fatalf("expected error for ParallelDetect under %v", d)
		}
	}
}

func TestParallelExecutionComputes(t *testing.T) {
	r, err := NewRunner(Options{ParallelDetect: true})
	if err != nil {
		t.Fatal(err)
	}
	var total atomic.Int64
	var fib func(task *Task, n int, out *atomic.Int64)
	fib = func(task *Task, n int, out *atomic.Int64) {
		if n < 2 {
			out.Add(int64(n))
			return
		}
		task.Spawn(func(c *Task) { fib(c, n-1, out) })
		task.Spawn(func(c *Task) { fib(c, n-2, out) })
		task.Sync()
	}
	if _, err := r.Run(func(task *Task) { fib(task, 15, &total) }); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 610 { // fib(15)
		t.Errorf("parallel fib(15) = %d, want 610", total.Load())
	}
}

func TestStrandCountReported(t *testing.T) {
	rep := runOne(t, DetectorSTINT, spawn(store(1)), syncAct)
	// Root + child + continuation + sync = 4 strands.
	if rep.Strands != 4 {
		t.Errorf("Strands = %d, want 4", rep.Strands)
	}
}

func TestStatsAccessCounts(t *testing.T) {
	rep := runOne(t, DetectorSTINT, loadN(0, 100), store(200))
	if rep.Stats.ReadAccesses != 100 {
		t.Errorf("ReadAccesses = %d, want 100", rep.Stats.ReadAccesses)
	}
	if rep.Stats.WriteAccesses != 1 {
		t.Errorf("WriteAccesses = %d, want 1", rep.Stats.WriteAccesses)
	}
	if rep.Stats.ReadIntervals != 1 || rep.Stats.WriteIntervals != 1 {
		t.Errorf("intervals = (%d,%d), want (1,1)", rep.Stats.ReadIntervals, rep.Stats.WriteIntervals)
	}
	if rep.Stats.ReadIntervalBytes != 400 {
		t.Errorf("ReadIntervalBytes = %d, want 400", rep.Stats.ReadIntervalBytes)
	}
}

func TestRuntimeCoalescingDeduplicates(t *testing.T) {
	var loads []act
	for rep := 0; rep < 10; rep++ {
		for i := 0; i < 50; i++ {
			loads = append(loads, load(i))
		}
	}
	rep := runOne(t, DetectorSTINT, loads...)
	if rep.Stats.ReadAccesses != 500 {
		t.Errorf("ReadAccesses = %d, want 500", rep.Stats.ReadAccesses)
	}
	if rep.Stats.ReadIntervals != 1 {
		t.Errorf("ReadIntervals = %d, want 1 (coalesced and deduplicated)", rep.Stats.ReadIntervals)
	}
	if rep.Stats.ReadIntervalBytes != 200 {
		t.Errorf("ReadIntervalBytes = %d, want 200 (deduplicated)", rep.Stats.ReadIntervalBytes)
	}
}

func TestReachOnlyCountsStrandsButNoAccesses(t *testing.T) {
	rep := runOne(t, DetectorReachOnly, spawn(store(0)), store(0), syncAct)
	if rep.Racy() {
		t.Error("ReachOnly reported a race")
	}
	if rep.Strands != 4 {
		t.Errorf("Strands = %d, want 4", rep.Strands)
	}
}

// TestMultipleRunsIndependent: the checker's pooled Runner runs the racy
// program after its own earlier runs and must match a fresh one.
func TestMultipleRunsIndependent(t *testing.T) { verdict(t, true, spawn(store(0)), store(0), syncAct) }

func TestParseDetector(t *testing.T) {
	for _, d := range append([]Detector{DetectorOff, DetectorReachOnly}, allDetectors...) {
		got, err := ParseDetector(d.String())
		if err != nil || got != d {
			t.Errorf("ParseDetector(%q) = %v, %v", d.String(), got, err)
		}
	}
	for _, name := range []string{"bogus", "stint-skiplist"} {
		if _, err := ParseDetector(name); err == nil || !strings.Contains(err.Error(), "unknown mode") {
			t.Errorf("ParseDetector(%q) error = %v, want unknown mode", name, err)
		}
	}
}

// TestFloat64BufferWordGranularity: a float64 element spans two shadow
// words; a race on element 4 is found, and its neighbours stay clean.
func TestFloat64BufferWordGranularity(t *testing.T) {
	checkVerdict(t, true, newProgram([]bufSpec{{32, 2}}, []act{spawn(store(4)), store(4), syncAct}))
	checkVerdict(t, false, newProgram([]bufSpec{{32, 2}}, []act{spawn(store(4)), store(5), syncAct}))
}
