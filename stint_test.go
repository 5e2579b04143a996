package stint

import (
	"strings"
	"sync/atomic"
	"testing"
)

// allDetectors are the engines that must agree on racing words.
var allDetectors = []Detector{
	DetectorVanilla, DetectorCompiler, DetectorCompRTS,
	DetectorSTINT, DetectorSTINTUnbalanced,
}

// runOne executes body under the given detector with one 1024-word buffer.
func runOne(t *testing.T, d Detector, body func(task *Task, buf *Buffer)) *Report {
	t.Helper()
	r, err := NewRunner(Options{Detector: d, MaxRacesRecorded: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	buf := r.Arena().AllocWords("buf", 1024)
	rep, err := r.Run(func(task *Task) { body(task, buf) })
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestParallelWritesRace(t *testing.T) {
	for _, d := range allDetectors {
		rep := runOne(t, d, func(task *Task, buf *Buffer) {
			task.Spawn(func(c *Task) { c.Store(buf, 5) })
			task.Store(buf, 5)
			task.Sync()
		})
		if !rep.Racy() {
			t.Errorf("%v: parallel writes to the same word not reported", d)
		}
	}
}

func TestReadReadIsNotARace(t *testing.T) {
	for _, d := range allDetectors {
		rep := runOne(t, d, func(task *Task, buf *Buffer) {
			task.Spawn(func(c *Task) { c.Load(buf, 5) })
			task.Load(buf, 5)
			task.Sync()
		})
		if rep.Racy() {
			t.Errorf("%v: parallel reads reported as a race", d)
		}
	}
}

func TestReadWriteRace(t *testing.T) {
	for _, d := range allDetectors {
		rep := runOne(t, d, func(task *Task, buf *Buffer) {
			task.Spawn(func(c *Task) { c.Load(buf, 7) })
			task.Store(buf, 7)
			task.Sync()
		})
		if !rep.Racy() {
			t.Errorf("%v: parallel read/write not reported", d)
		}
	}
}

func TestWriteThenReadInSpawnedChildIsSeries(t *testing.T) {
	// Parent writes before the spawn; the child's read is in series.
	for _, d := range allDetectors {
		rep := runOne(t, d, func(task *Task, buf *Buffer) {
			task.Store(buf, 3)
			task.Spawn(func(c *Task) { c.Load(buf, 3) })
			task.Sync()
		})
		if rep.Racy() {
			t.Errorf("%v: series write→read reported as a race", d)
		}
	}
}

func TestSyncOrdersAccesses(t *testing.T) {
	for _, d := range allDetectors {
		rep := runOne(t, d, func(task *Task, buf *Buffer) {
			task.Spawn(func(c *Task) { c.Store(buf, 9) })
			task.Sync()
			task.Store(buf, 9) // after the sync: in series
		})
		if rep.Racy() {
			t.Errorf("%v: write after sync reported as racing with synced child", d)
		}
	}
}

func TestSiblingSpawnsRace(t *testing.T) {
	for _, d := range allDetectors {
		rep := runOne(t, d, func(task *Task, buf *Buffer) {
			task.Spawn(func(c *Task) { c.Store(buf, 11) })
			task.Spawn(func(c *Task) { c.Store(buf, 11) })
			task.Sync()
		})
		if !rep.Racy() {
			t.Errorf("%v: sibling writes not reported", d)
		}
	}
}

func TestDisjointWordsNoRace(t *testing.T) {
	for _, d := range allDetectors {
		rep := runOne(t, d, func(task *Task, buf *Buffer) {
			task.Spawn(func(c *Task) { c.StoreRange(buf, 0, 100) })
			task.StoreRange(buf, 100, 100)
			task.Sync()
		})
		if rep.Racy() {
			t.Errorf("%v: disjoint parallel writes reported as a race", d)
		}
	}
}

func TestOverlappingRangesRace(t *testing.T) {
	for _, d := range allDetectors {
		rep := runOne(t, d, func(task *Task, buf *Buffer) {
			task.Spawn(func(c *Task) { c.StoreRange(buf, 0, 100) })
			task.StoreRange(buf, 99, 100) // overlaps word 99
			task.Sync()
		})
		if !rep.Racy() {
			t.Errorf("%v: overlapping parallel ranges not reported", d)
		}
	}
}

func TestRangeAndWordHooksAgree(t *testing.T) {
	// The same logical program instrumented with range hooks vs per-word
	// hooks must produce the same verdict.
	for _, d := range allDetectors {
		rangeRep := runOne(t, d, func(task *Task, buf *Buffer) {
			task.Spawn(func(c *Task) { c.StoreRange(buf, 10, 20) })
			task.LoadRange(buf, 25, 20)
			task.Sync()
		})
		wordRep := runOne(t, d, func(task *Task, buf *Buffer) {
			task.Spawn(func(c *Task) {
				for i := 10; i < 30; i++ {
					c.Store(buf, i)
				}
			})
			for i := 25; i < 45; i++ {
				task.Load(buf, i)
			}
			task.Sync()
		})
		if rangeRep.Racy() != wordRep.Racy() {
			t.Errorf("%v: range (%v) and word (%v) verdicts differ", d, rangeRep.Racy(), wordRep.Racy())
		}
		if !rangeRep.Racy() {
			t.Errorf("%v: overlapping store/load ranges not reported", d)
		}
	}
}

func TestNestedTasksGrandchildRace(t *testing.T) {
	for _, d := range allDetectors {
		rep := runOne(t, d, func(task *Task, buf *Buffer) {
			task.Spawn(func(c *Task) {
				c.Spawn(func(g *Task) { g.Store(buf, 42) })
				c.Sync()
			})
			task.Store(buf, 42)
			task.Sync()
		})
		if !rep.Racy() {
			t.Errorf("%v: grandchild/parent conflict not reported", d)
		}
	}
}

func TestChildSyncDoesNotJoinToParent(t *testing.T) {
	// The child's internal sync joins the grandchild to the *child*, but
	// the child's whole subcomputation remains parallel with the parent's
	// continuation.
	for _, d := range allDetectors {
		rep := runOne(t, d, func(task *Task, buf *Buffer) {
			task.Spawn(func(c *Task) {
				c.Spawn(func(g *Task) { g.Store(buf, 13) })
				c.Sync()
				c.Store(buf, 14) // after child's sync, still parallel with parent
			})
			task.Store(buf, 14)
			task.Sync()
		})
		if !rep.Racy() {
			t.Errorf("%v: post-child-sync write not seen as parallel with parent", d)
		}
	}
}

func TestImplicitSyncAtTaskEnd(t *testing.T) {
	// A task that spawns and returns without Sync still joins its children
	// before the parent continues past its own sync of that task.
	for _, d := range allDetectors {
		rep := runOne(t, d, func(task *Task, buf *Buffer) {
			task.Spawn(func(c *Task) {
				c.Spawn(func(g *Task) { g.Store(buf, 21) })
				// no explicit sync: implicit at return
			})
			task.Sync()
			task.Store(buf, 21)
		})
		if rep.Racy() {
			t.Errorf("%v: implicit sync missing — synced grandchild reported racy", d)
		}
	}
}

func TestRaceDetailsVanilla(t *testing.T) {
	rep := runOne(t, DetectorVanilla, func(task *Task, buf *Buffer) {
		task.Spawn(func(c *Task) { c.Store(buf, 5) })
		task.Load(buf, 5)
		task.Sync()
	})
	if len(rep.Races) == 0 {
		t.Fatal("no race recorded")
	}
	r := rep.Races[0]
	if !r.PrevWrite || r.CurWrite {
		t.Errorf("race kinds = prevWrite=%v curWrite=%v, want write/read", r.PrevWrite, r.CurWrite)
	}
	if r.Size == 0 {
		t.Error("race has zero size")
	}
	if r.String() == "" {
		t.Error("empty race description")
	}
}

func TestMaxRacesRecordedCap(t *testing.T) {
	r, err := NewRunner(Options{Detector: DetectorVanilla, MaxRacesRecorded: 3})
	if err != nil {
		t.Fatal(err)
	}
	buf := r.Arena().AllocWords("buf", 64)
	rep, err := r.Run(func(task *Task) {
		task.Spawn(func(c *Task) { c.StoreRange(buf, 0, 64) })
		task.StoreRange(buf, 0, 64)
		task.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Races) != 3 {
		t.Errorf("recorded %d races, want cap of 3", len(rep.Races))
	}
	if rep.RaceCount < 3 {
		t.Errorf("RaceCount = %d, want the uncapped total", rep.RaceCount)
	}
}

func TestOnRaceCallback(t *testing.T) {
	var calls atomic.Int64
	r, err := NewRunner(Options{Detector: DetectorSTINT, OnRace: func(Race) { calls.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	buf := r.Arena().AllocWords("buf", 16)
	rep, _ := r.Run(func(task *Task) {
		task.Spawn(func(c *Task) { c.Store(buf, 0) })
		task.Store(buf, 0)
		task.Sync()
	})
	if calls.Load() == 0 || uint64(calls.Load()) != rep.RaceCount {
		t.Errorf("OnRace called %d times, RaceCount = %d", calls.Load(), rep.RaceCount)
	}
}

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
	if err != nil {
		t.Fatal(err)
	}
	if sum != 3 {
		t.Errorf("program did not run: sum = %d", sum)
	}
	if rep.Racy() || rep.Strands != 0 {
		t.Errorf("DetectorOff produced detection output: %+v", rep)
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
	type mode struct {
		name   string
		opts   Options
		traced bool
	}
	modes := []mode{
		{"off", Options{}, false},
		{"reach", Options{Detector: DetectorReachOnly}, false},
		{"async", Options{Detector: DetectorSTINT, Async: true}, false},
		{"shards=2", Options{Detector: DetectorSTINT, Async: true, DetectShards: 2}, false},
		{"parallel-detect/off", Options{ParallelDetect: true}, false},
		{"parallel-detect/stint", Options{Detector: DetectorSTINT, ParallelDetect: true}, false},
		{"tracer", Options{}, true},
		{"tracer+stint", Options{Detector: DetectorSTINT}, true},
	}
	for _, d := range allDetectors {
		modes = append(modes, mode{d.String(), Options{Detector: d}, false})
	}
	hooks := map[string]func(task *Task, buf *Buffer){
		"Load":      func(task *Task, buf *Buffer) { task.Load(buf, 1) },
		"LoadRange": func(task *Task, buf *Buffer) { task.LoadRange(buf, 2, 4) },
		"LoadAt":    func(task *Task, buf *Buffer) { task.LoadAt(buf.Addr(8), 4) },
	}
	for _, m := range modes {
		for name, hook := range hooks {
			for _, inChild := range []bool{false, true} {
				opts, tr := m.opts, &accessCounter{}
				if m.traced {
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
						m.name, name, inChild, detecting, reached)
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
	rep := runOne(t, DetectorSTINT, func(task *Task, buf *Buffer) {
		task.Spawn(func(c *Task) { c.Store(buf, 1) })
		task.Sync()
	})
	// Root + child + continuation + sync = 4 strands.
	if rep.Strands != 4 {
		t.Errorf("Strands = %d, want 4", rep.Strands)
	}
}

func TestStatsAccessCounts(t *testing.T) {
	rep := runOne(t, DetectorSTINT, func(task *Task, buf *Buffer) {
		task.LoadRange(buf, 0, 100)
		task.Store(buf, 200)
	})
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
	rep := runOne(t, DetectorSTINT, func(task *Task, buf *Buffer) {
		for rep := 0; rep < 10; rep++ {
			for i := 0; i < 50; i++ {
				task.Load(buf, i)
			}
		}
	})
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
	rep := runOne(t, DetectorReachOnly, func(task *Task, buf *Buffer) {
		task.Spawn(func(c *Task) { c.Store(buf, 0) })
		task.Store(buf, 0)
		task.Sync()
	})
	if rep.Racy() {
		t.Error("ReachOnly reported a race")
	}
	if rep.Strands != 4 {
		t.Errorf("Strands = %d, want 4", rep.Strands)
	}
}

func TestMultipleRunsIndependent(t *testing.T) {
	r, err := NewRunner(Options{Detector: DetectorSTINT})
	if err != nil {
		t.Fatal(err)
	}
	buf := r.Arena().AllocWords("buf", 16)
	racy := func(task *Task) {
		task.Spawn(func(c *Task) { c.Store(buf, 0) })
		task.Store(buf, 0)
		task.Sync()
	}
	rep1, _ := r.Run(racy)
	rep2, _ := r.Run(racy)
	if rep1.RaceCount != rep2.RaceCount {
		t.Errorf("runs differ: %d vs %d races (state leaked between runs)", rep1.RaceCount, rep2.RaceCount)
	}
}

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

func TestFloat64BufferWordGranularity(t *testing.T) {
	// A float64 element spans two shadow words; racing on element i must be
	// detected, and neighbors must stay clean.
	for _, d := range allDetectors {
		r, err := NewRunner(Options{Detector: d})
		if err != nil {
			t.Fatal(err)
		}
		buf := r.Arena().AllocFloat64("f", 32)
		rep, _ := r.Run(func(task *Task) {
			task.Spawn(func(c *Task) { c.Store(buf, 4) })
			task.Store(buf, 4)
			task.Sync()
		})
		if !rep.Racy() {
			t.Errorf("%v: float64 element race missed", d)
		}
		r2, _ := NewRunner(Options{Detector: d})
		buf2 := r2.Arena().AllocFloat64("f", 32)
		rep2, _ := r2.Run(func(task *Task) {
			task.Spawn(func(c *Task) { c.Store(buf2, 4) })
			task.Store(buf2, 5)
			task.Sync()
		})
		if rep2.Racy() {
			t.Errorf("%v: adjacent float64 elements alias", d)
		}
	}
}
