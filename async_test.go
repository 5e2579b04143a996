package stint

import "testing"

// TestAsyncMatchesSyncVerdicts: a store range against a load range it
// overlaps by one word races in every mode (the verdict tests in
// stint_test.go run the other shapes through every mode too).
func TestAsyncMatchesSyncVerdicts(t *testing.T) {
	verdict(t, true, spawn(storeN(0, 100)), loadN(99, 100), syncAct)
}

// TestAsyncStatsMatchSync: every counter of a mixed word-and-range program
// — accesses, intervals, treap work — is the synchronous run's.
func TestAsyncStatsMatchSync(t *testing.T) {
	acts := []act{spawn(loadN(0, 200), storeN(0, 100))}
	for i := 50; i < 150; i++ {
		acts = append(acts, load(i))
	}
	verdict(t, true, append(acts, store(300), syncAct)...)
}

// TestAsyncTinyBatchesAndBackpressure: batch capacity 1 with ring depth 1
// maximizes handoffs and producer blocking; results must not change.
func TestAsyncTinyBatchesAndBackpressure(t *testing.T) {
	async := cellsWhere(func(c cell) bool { return c.mode.Name == "async" && c.lim == noLimit })
	h := newHarness(t, async, len(async))
	for _, geom := range [][2]int{{1, 1}, {2, 1}, {3, 2}, {7, 3}} {
		p := newProgram([]bufSpec{{1024, 1}}, []act{spawn(storeN(0, 64)), spawn(storeN(0, 64)), spawn(storeN(0, 64)), loadN(32, 64), syncAct})
		p.batchEvents, p.ringDepth = geom[0], geom[1]
		h.check(p)
	}
}

// TestAsyncOnRaceDeliveredBeforeRunReturns: the checker counts OnRace
// calls against RaceCount when Run returns, on every async cell.
func TestAsyncOnRaceDeliveredBeforeRunReturns(t *testing.T) {
	async := cellsWhere(func(c cell) bool { return c.mode.Name == "async" && c.lim == noLimit })
	newHarness(t, async, len(async)).check(newProgram([]bufSpec{{16, 1}}, []act{spawn(store(0)), store(0), syncAct}))
}

// onRacePanics hardens a pipeline's teardown: a panicking user OnRace
// callback on a worker goroutine must abort the stage graph, unblock the
// producer (kept publishing into a full ring long after the first race by
// the tiny geometry) and re-panic out of Run — not deadlock and not get
// swallowed.
func onRacePanics(t *testing.T, shards int) {
	r, err := NewRunner(Options{Detector: DetectorSTINT, Async: true, DetectShards: shards,
		OnRace: func(Race) { panic("user callback exploded") }})
	if err != nil {
		t.Fatal(err)
	}
	r.asyncBatchEvents, r.asyncRingDepth = 1, 1
	buf := r.Arena().AllocWords("buf", 4096)
	defer func() {
		if recover() == nil {
			t.Fatal("user OnRace panic did not propagate out of Run")
		}
	}()
	r.Run(func(task *Task) {
		for i := 0; i < 8; i++ {
			task.Spawn(func(c *Task) { c.StoreRange(buf, 0, 2048) })
		}
		task.Sync()
	})
}

func TestAsyncOnRacePanicPropagates(t *testing.T) { onRacePanics(t, 0) }

func TestAsyncReachOnly(t *testing.T) {
	p := newProgram([]bufSpec{{16, 1}}, []act{spawn(store(0)), store(0), syncAct})
	if rep := newHarness(t, nil, 1).mustRun(Options{Detector: DetectorReachOnly, Async: true}, p); rep.Racy() || rep.Strands != 4 {
		t.Fatalf("async ReachOnly: %d races, %d strands; want none and 4", rep.RaceCount, rep.Strands)
	}
}

func TestAsyncDetectorOffIgnored(t *testing.T) {
	r, err := NewRunner(Options{Async: true})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	rep, err := r.Run(func(task *Task) {
		task.Spawn(func(c *Task) { sum++ })
		task.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 1 || rep.Racy() || rep.Strands != 0 {
		t.Errorf("Async+DetectorOff misbehaved: sum=%d rep=%+v", sum, rep)
	}
}

// TestAsyncMultipleRunsIndependent: the checker's pooled async Runner
// runs the racy program after its own earlier runs and must match a fresh
// one.
func TestAsyncMultipleRunsIndependent(t *testing.T) {
	async := cellsWhere(func(c cell) bool { return c.mode.Name == "async" })
	newHarness(t, async, len(async)).check(newProgram([]bufSpec{{16, 1}}, []act{spawn(store(0)), store(0), syncAct}))
}

func TestNewRunnerRejectsAsyncParallel(t *testing.T) {
	if _, err := NewRunner(Options{Async: true, ParallelDetect: true}); err == nil {
		t.Fatal("expected error for Async + ParallelDetect")
	}
}

// Negative is refused; zero still means the default.
func TestNewRunnerRejectsNegativeMaxRaces(t *testing.T) {
	_, neg := NewRunner(Options{Detector: DetectorSTINT, MaxRacesRecorded: -1})
	if _, zero := NewRunner(Options{Detector: DetectorSTINT}); neg == nil || zero != nil {
		t.Fatalf("MaxRacesRecorded -1: %v; 0: %v", neg, zero)
	}
}
