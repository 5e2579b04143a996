package stint

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// runOneAsync is runOne with the async pipeline enabled and optional tiny
// pipeline geometry to force batch-boundary and backpressure paths.
func runOneAsync(t *testing.T, d Detector, batchEvents, ringDepth int, body func(task *Task, buf *Buffer)) *Report {
	t.Helper()
	r, err := NewRunner(Options{Detector: d, Async: true, MaxRacesRecorded: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	r.asyncBatchEvents, r.asyncRingDepth = batchEvents, ringDepth
	buf := r.Arena().AllocWords("buf", 1024)
	rep, err := r.Run(func(task *Task) { body(task, buf) })
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestAsyncMatchesSyncVerdicts(t *testing.T) {
	programs := []struct {
		name string
		racy bool
		body func(task *Task, buf *Buffer)
	}{
		{"parallel-writes", true, func(task *Task, buf *Buffer) {
			task.Spawn(func(c *Task) { c.Store(buf, 5) })
			task.Store(buf, 5)
			task.Sync()
		}},
		{"synced-write", false, func(task *Task, buf *Buffer) {
			task.Spawn(func(c *Task) { c.Store(buf, 9) })
			task.Sync()
			task.Store(buf, 9)
		}},
		{"overlapping-ranges", true, func(task *Task, buf *Buffer) {
			task.Spawn(func(c *Task) { c.StoreRange(buf, 0, 100) })
			task.LoadRange(buf, 99, 100)
			task.Sync()
		}},
		{"disjoint-ranges", false, func(task *Task, buf *Buffer) {
			task.Spawn(func(c *Task) { c.StoreRange(buf, 0, 100) })
			task.StoreRange(buf, 100, 100)
			task.Sync()
		}},
		{"grandchild", true, func(task *Task, buf *Buffer) {
			task.Spawn(func(c *Task) {
				c.Spawn(func(g *Task) { g.Store(buf, 42) })
				c.Sync()
			})
			task.Store(buf, 42)
			task.Sync()
		}},
	}
	for _, d := range shardTestDetectors {
		for _, p := range programs {
			sync := runOne(t, d, p.body)
			async := runOneAsync(t, d, 0, 0, p.body)
			if sync.Racy() != p.racy {
				t.Fatalf("%v/%s: sync verdict %v, want %v", d, p.name, sync.Racy(), p.racy)
			}
			assertSameReport(t, fmt.Sprintf("%v/%s", d, p.name), async, sync)
		}
	}
}

func TestAsyncStatsMatchSync(t *testing.T) {
	body := func(task *Task, buf *Buffer) {
		task.Spawn(func(c *Task) {
			c.LoadRange(buf, 0, 200)
			c.StoreRange(buf, 0, 100)
		})
		for i := 50; i < 150; i++ {
			task.Load(buf, i)
		}
		task.Store(buf, 300)
		task.Sync()
	}
	for _, d := range shardTestDetectors {
		sync := runOne(t, d, body)
		async := runOneAsync(t, d, 0, 0, body)
		// Everything except the timing and allocation fields must be
		// byte-identical: same events, same serial order, same engine.
		assertSameReport(t, d.String(), async, sync)
	}
}

func TestAsyncTinyBatchesAndBackpressure(t *testing.T) {
	// Batch capacity 1 with ring depth 1 maximizes handoffs and producer
	// blocking; results must not change.
	body := func(task *Task, buf *Buffer) {
		for i := 0; i < 3; i++ {
			task.Spawn(func(c *Task) { c.StoreRange(buf, 0, 64) })
		}
		task.LoadRange(buf, 32, 64)
		task.Sync()
	}
	want := runOne(t, DetectorSTINT, body)
	for _, geom := range [][2]int{{1, 1}, {2, 1}, {3, 2}, {7, 3}} {
		got := runOneAsync(t, DetectorSTINT, geom[0], geom[1], body)
		assertSameReport(t, fmt.Sprintf("geometry %v", geom), got, want)
	}
}

func TestAsyncOnRaceDeliveredBeforeRunReturns(t *testing.T) {
	var calls atomic.Int64
	r, err := NewRunner(Options{Detector: DetectorSTINT, Async: true, OnRace: func(Race) { calls.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	buf := r.Arena().AllocWords("buf", 16)
	rep, err := r.Run(func(task *Task) {
		task.Spawn(func(c *Task) { c.Store(buf, 0) })
		task.Store(buf, 0)
		task.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 || uint64(calls.Load()) != rep.RaceCount {
		t.Errorf("OnRace called %d times by Run's return, RaceCount = %d", calls.Load(), rep.RaceCount)
	}
	if len(rep.Races) == 0 {
		t.Error("no races recorded in the drained report")
	}
}

// TestAsyncOnRacePanicPropagates hardens the one-worker pipeline's
// teardown: a panicking user OnRace callback on the worker goroutine must
// close the ring (unblocking a producer stuck in Publish), and re-panic out
// of Run on the mutator side — not deadlock and not get swallowed.
func TestAsyncOnRacePanicPropagates(t *testing.T) {
	r, err := NewRunner(Options{
		Detector: DetectorSTINT, Async: true,
		OnRace: func(Race) { panic("user callback exploded") },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny geometry keeps the producer publishing long after the first race
	// fires, so the abort path must actually unblock it.
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

func TestAsyncReachOnly(t *testing.T) {
	rep := runOneAsync(t, DetectorReachOnly, 0, 0, func(task *Task, buf *Buffer) {
		task.Spawn(func(c *Task) { c.Store(buf, 0) })
		task.Store(buf, 0)
		task.Sync()
	})
	if rep.Racy() {
		t.Error("async ReachOnly reported a race")
	}
	if rep.Strands != 4 {
		t.Errorf("async ReachOnly Strands = %d, want 4", rep.Strands)
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

func TestAsyncMultipleRunsIndependent(t *testing.T) {
	r, err := NewRunner(Options{Detector: DetectorSTINT, Async: true})
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
	assertSameReport(t, "second run (state leaked)", rep2, rep1)
}

func TestNewRunnerRejectsAsyncParallel(t *testing.T) {
	if _, err := NewRunner(Options{Async: true, ParallelDetect: true}); err == nil {
		t.Fatal("expected error for Async + ParallelDetect")
	}
}

func TestNewRunnerRejectsNegativeMaxRaces(t *testing.T) {
	if _, err := NewRunner(Options{Detector: DetectorSTINT, MaxRacesRecorded: -1}); err == nil {
		t.Fatal("expected error for negative MaxRacesRecorded")
	}
	// Zero still means "default".
	if _, err := NewRunner(Options{Detector: DetectorSTINT}); err != nil {
		t.Fatalf("zero MaxRacesRecorded rejected: %v", err)
	}
}
