package stint

import (
	"reflect"
	"testing"
	"time"

	"stint/internal/coalesce"
	"stint/internal/evstream"
)

// shardTestDetectors are the detectors DetectShards supports.
var shardTestDetectors = []Detector{
	DetectorCompRTS, DetectorSTINT, DetectorSTINTUnbalanced, DetectorSTINTSkiplist,
}

// normStats zeroes the timing-, allocation-, and scheduling-dependent
// fields so the deterministic counters can be compared across execution
// modes. BatchesSkipped is scheduling-dependent by construction: it counts
// elided scan work, which varies with shard count and batch geometry while
// every detection counter stays identical. EventsStreamed and StreamBytes
// describe the transport, not the detection: sync runs have no stream and
// the wire bytes vary with the encoding by design. HistoryBytesPeak sums
// each engine's retained footprint, so a sharded run's N directories and
// pools legitimately peak higher than one inline engine's.
// PagesQuiesced stays compared: quiesce decisions are page-local and
// deterministic, so the count is mode-independent (and zero with
// quiescing off).
func normStats(s Stats) Stats {
	s.AccessHistoryTime = 0
	s.AllocObjects = 0
	s.AllocBytes = 0
	s.PipelineDetectTime = 0
	s.BatchesSkipped = 0
	s.EventsStreamed = 0
	s.StreamBytes = 0
	s.HistoryBytesPeak = 0
	return s
}

func TestNewRunnerShardValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"negative", Options{Detector: DetectorSTINT, Async: true, DetectShards: -1}, false},
		{"without async", Options{Detector: DetectorSTINT, DetectShards: 2}, false},
		{"with parallel", Options{Detector: DetectorOff, Parallel: true, DetectShards: 2}, false},
		{"with parallel and async", Options{Detector: DetectorOff, Parallel: true, Async: true, DetectShards: 2}, false},
		{"vanilla", Options{Detector: DetectorVanilla, Async: true, DetectShards: 2}, false},
		{"compiler", Options{Detector: DetectorCompiler, Async: true, DetectShards: 2}, false},
		{"comp+rts", Options{Detector: DetectorCompRTS, Async: true, DetectShards: 2}, true},
		{"stint", Options{Detector: DetectorSTINT, Async: true, DetectShards: 4}, true},
		{"one shard", Options{Detector: DetectorSTINT, Async: true, DetectShards: 1}, true},
		{"zero disables", Options{Detector: DetectorSTINT, Async: true, DetectShards: 0}, true},
		{"off ignored", Options{Detector: DetectorOff, Async: true, DetectShards: 2}, true},
		{"reach-only ignored", Options{Detector: DetectorReachOnly, Async: true, DetectShards: 2}, true},
	}
	for _, c := range cases {
		_, err := NewRunner(c.opts)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected an error, got none", c.name)
		}
	}
}

// shardProgram writes from parallel strands across several shadow pages so
// races, page-straddling intervals, and cross-shard routing all occur.
func shardProgram(pageStride int) func(r *Runner) TaskFunc {
	return func(r *Runner) TaskFunc {
		// Several buffers; the arena's 4 KiB padding keeps them on a mix of
		// pages, and the big one spans multiple 64 KiB pages.
		small := r.Arena().AllocWords("small", 512)
		big := r.Arena().AllocWords("big", 64<<10) // 256 KiB: 4+ pages
		return func(t *Task) {
			for i := 0; i < 4; i++ {
				i := i
				t.Spawn(func(c *Task) {
					c.StoreRange(small, i*64, 128)        // overlapping writes: races
					c.StoreRange(big, i*pageStride, 9000) // page-straddling ranges
					c.Load(small, i)
					for j := 0; j < 40; j++ {
						c.Store(big, i*pageStride+j*77)
					}
				})
			}
			t.Sync()
			t.LoadRange(big, 0, 3*pageStride)
		}
	}
}

// runSharded executes prog under the given shard count (0 = plain async,
// -1 = synchronous) and returns the report.
func runSharded(t *testing.T, d Detector, shards int, prog func(r *Runner) TaskFunc) *Report {
	t.Helper()
	opts := Options{Detector: d, MaxRacesRecorded: 1 << 20}
	if shards >= 0 {
		opts.Async = true
		opts.DetectShards = shards
	}
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	body := prog(r)
	rep, err := r.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestShardedByteIdenticalReports is the tentpole's core guarantee: for
// each supported detector, shard counts 1, 2, and 4 produce a Report —
// races, counts, strands, deterministic stats — byte-identical to the
// synchronous run.
func TestShardedByteIdenticalReports(t *testing.T) {
	prog := shardProgram(16 << 10)
	for _, d := range shardTestDetectors {
		sync := runSharded(t, d, -1, prog)
		if sync.RaceCount == 0 {
			t.Fatalf("%v: program produced no races; test is vacuous", d)
		}
		for _, n := range []int{1, 2, 4} {
			got := runSharded(t, d, n, prog)
			if got.RaceCount != sync.RaceCount {
				t.Errorf("%v shards=%d: RaceCount %d, sync %d", d, n, got.RaceCount, sync.RaceCount)
			}
			if got.Strands != sync.Strands {
				t.Errorf("%v shards=%d: Strands %d, sync %d", d, n, got.Strands, sync.Strands)
			}
			if !reflect.DeepEqual(got.Races, sync.Races) {
				t.Errorf("%v shards=%d: Races differ\n got: %v\nsync: %v", d, n, got.Races, sync.Races)
			}
			if ns, ng := normStats(sync.Stats), normStats(got.Stats); ns != ng {
				t.Errorf("%v shards=%d: stats differ\n got: %+v\nsync: %+v", d, n, ng, ns)
			}
		}
	}
}

// TestShardedTinyBatchGeometries forces batch-boundary and backpressure
// cases through both the main ring and the per-shard rings.
func TestShardedTinyBatchGeometries(t *testing.T) {
	prog := shardProgram(16 << 10)
	sync := runSharded(t, DetectorSTINT, -1, prog)
	for _, geom := range [][2]int{{1, 1}, {3, 2}, {7, 3}} {
		r, err := NewRunner(Options{
			Detector: DetectorSTINT, Async: true, DetectShards: 3,
			MaxRacesRecorded: 1 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.asyncBatchEvents, r.asyncRingDepth = geom[0], geom[1]
		body := prog(r)
		rep, err := r.Run(body)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Races, sync.Races) || rep.Strands != sync.Strands ||
			normStats(rep.Stats) != normStats(sync.Stats) {
			t.Errorf("geometry %v: sharded run diverged from sync", geom)
		}
	}
}

// TestShardedUtilizationReadout checks the Report's sharded observability:
// one busy figure per worker, summing to PipelineDetectTime, plus the
// sequencer's own busy time.
func TestShardedUtilizationReadout(t *testing.T) {
	rep := runSharded(t, DetectorSTINT, 4, shardProgram(16<<10))
	if len(rep.ShardLoad) != 4 {
		t.Fatalf("ShardLoad has %d entries, want 4", len(rep.ShardLoad))
	}
	var sum time.Duration
	for _, l := range rep.ShardLoad {
		sum += l.Busy
	}
	if sum != rep.Stats.PipelineDetectTime {
		t.Errorf("sum(ShardLoad.Busy) = %v, PipelineDetectTime = %v", sum, rep.Stats.PipelineDetectTime)
	}
	if rep.SequencerBusy == 0 {
		t.Error("SequencerBusy not reported")
	}
}

// TestShardedOnRaceDelivered checks every race still reaches the user
// callback (in some order) before Run returns.
func TestShardedOnRaceDelivered(t *testing.T) {
	var calls int
	r, err := NewRunner(Options{
		Detector: DetectorSTINT, Async: true, DetectShards: 2,
		MaxRacesRecorded: 1 << 20,
		OnRace:           func(Race) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	body := shardProgram(16 << 10)(r)
	rep, err := r.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(calls) != rep.RaceCount {
		t.Errorf("OnRace called %d times, RaceCount %d", calls, rep.RaceCount)
	}
}

// TestShardedIgnoredForReachOnlyAndOff: DetectShards is accepted but inert
// when there is no page-partitioned work.
func TestShardedIgnoredForReachOnlyAndOff(t *testing.T) {
	r, err := NewRunner(Options{Detector: DetectorReachOnly, Async: true, DetectShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(func(t *Task) {
		t.Spawn(func(*Task) {})
		t.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strands != 4 {
		t.Errorf("Strands = %d, want 4", rep.Strands)
	}
	if rep.ShardLoad != nil {
		t.Errorf("ShardLoad reported for an unsharded run: %v", rep.ShardLoad)
	}

	r, err = NewRunner(Options{Detector: DetectorOff, Async: true, DetectShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err = r.Run(func(t *Task) { t.Spawn(func(*Task) {}); t.Sync() })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Racy() {
		t.Error("DetectorOff reported races")
	}
}

// skewShards is the shard count the skip-scan skew tests run under.
const skewShards = 4

// skewProgram builds a one-hot-page workload: every access lands on a
// single 64 KiB shadow page, so under 4-shard detection exactly one worker
// owns every interval and the batch summaries let the other three skip
// every batch. It returns the program and the owning shard index.
func skewProgram(r *Runner) (TaskFunc, int) {
	buf := r.Arena().AllocWords("hot", 48<<10)
	base := buf.Base()
	pageSize := Addr(1) << coalesce.PageBytesBits
	// First word index whose enclosing page is fully inside the buffer, so
	// the whole index range below stays on that one page.
	start := 0
	if off := base % pageSize; off != 0 {
		start = int((pageSize - off) / 4)
	}
	page := uint64(base+Addr(start)*4) >> coalesce.PageBytesBits
	owner := evstream.PickShard(page, skewShards)
	prog := func(t *Task) {
		for i := 0; i < 16; i++ {
			i := i
			t.Spawn(func(c *Task) {
				c.StoreRange(buf, start+i*512, 1024) // overlapping writes: races
				// Scattered words: each is its own interval, so the strand
				// flushes ~200 events, not a handful.
				for j := 0; j < 200; j++ {
					c.Load(buf, start+(i*389+j*7)%8192)
				}
			})
		}
		t.Sync()
		t.LoadRange(buf, start, 4096)
	}
	return prog, owner
}

// TestShardedSkewSkipScan is the skip-scan payoff case: on a one-hot-page
// workload the non-owning workers must skip (not scan) at least 80% of
// their batches, the skip counters must reconcile, a reused Runner must skip
// exactly the batches a fresh one does, and the Report must stay
// byte-identical to the synchronous run.
func TestShardedSkewSkipScan(t *testing.T) {
	r, err := NewRunner(Options{
		Detector: DetectorSTINT, Async: true, DetectShards: skewShards,
		MaxRacesRecorded: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Small batches so the interval stream — a few thousand events — spans
	// on the order of a hundred batches and the skip ratio is meaningful.
	// They fill well below earlyPublishEvents, so batch boundaries are a
	// function of the stream alone.
	r.asyncBatchEvents, r.asyncRingDepth = 16, 4
	prog, owner := skewProgram(r)
	// checkSkew asserts the skip fast path fired: on the one-hot-page
	// workload every non-owner shard must skip at least 80% of its batches.
	checkSkew := func(name string, rep *Report) {
		t.Helper()
		if rep.Stats.BatchesSkipped == 0 {
			t.Fatalf("%s: one-hot-page workload, but no batch was skipped", name)
		}
		var sum uint64
		for i, l := range rep.ShardLoad {
			sum += l.BatchesSkipped
			if i == owner {
				continue
			}
			total := l.BatchesScanned + l.BatchesSkipped
			if total == 0 {
				t.Fatalf("%s: non-owner shard %d saw no batches", name, i)
			}
			if total < 50 {
				t.Errorf("%s: the run spans only %d batches; the skip ratio means little", name, total)
			}
			ratio := float64(l.BatchesSkipped) / float64(total)
			t.Logf("%s: non-owner shard %d skipped %.0f%% of %d batches", name, i, 100*ratio, total)
			if ratio < 0.8 {
				t.Errorf("%s: non-owner shard %d skipped only %.0f%% of %d batches", name, i, 100*ratio, total)
			}
		}
		if sum != rep.Stats.BatchesSkipped {
			t.Errorf("%s: ShardLoad skip counters sum to %d, Stats.BatchesSkipped = %d", name, sum, rep.Stats.BatchesSkipped)
		}
	}

	fresh, err := r.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.RaceCount == 0 {
		t.Fatal("skew program produced no races; test is vacuous")
	}
	checkSkew("fresh", fresh)

	// The stamp is a function of the event stream and the batch boundaries,
	// both of which a reset Runner reproduces, so the skip counts must agree
	// exactly, not just in ratio.
	reused, err := r.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	checkSkew("reused", reused)
	if fresh.Stats.BatchesSkipped != reused.Stats.BatchesSkipped {
		t.Errorf("fresh Runner skipped %d batches, reused %d: reuse changed the skip set",
			fresh.Stats.BatchesSkipped, reused.Stats.BatchesSkipped)
	}

	rSync, err := NewRunner(Options{Detector: DetectorSTINT, MaxRacesRecorded: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	progSync, _ := skewProgram(rSync)
	sync, err := rSync.Run(progSync)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  *Report
	}{
		{"fresh", fresh}, {"reused", reused},
	} {
		if c.got.RaceCount != sync.RaceCount || c.got.Strands != sync.Strands {
			t.Errorf("%s: RaceCount/Strands %d/%d, sync %d/%d",
				c.name, c.got.RaceCount, c.got.Strands, sync.RaceCount, sync.Strands)
		}
		if !reflect.DeepEqual(c.got.Races, sync.Races) {
			t.Errorf("%s: Races differ from sync", c.name)
		}
		if ns, ng := normStats(sync.Stats), normStats(c.got.Stats); ns != ng {
			t.Errorf("%s: stats differ\n got: %+v\nsync: %+v", c.name, ng, ns)
		}
	}
}

// TestShardedOnRacePanicPropagates hardens teardown: a panicking user
// OnRace callback in a worker must abort the stage graph, unblock the
// producer (possibly stuck publishing into a full ring), and re-panic out
// of Run — not deadlock and not get swallowed.
func TestShardedOnRacePanicPropagates(t *testing.T) {
	r, err := NewRunner(Options{
		Detector: DetectorSTINT, Async: true, DetectShards: 2,
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

// TestShardedMultipleRunsIndependent reuses one sharded Runner.
func TestShardedMultipleRunsIndependent(t *testing.T) {
	r, err := NewRunner(Options{Detector: DetectorSTINT, Async: true, DetectShards: 2, MaxRacesRecorded: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	buf := r.Arena().AllocWords("x", 4096)
	prog := func(t *Task) {
		t.Spawn(func(c *Task) { c.StoreRange(buf, 0, 2048) })
		t.StoreRange(buf, 1024, 2048)
		t.Sync()
	}
	first, err := r.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Races, second.Races) || first.RaceCount != second.RaceCount {
		t.Errorf("re-running changed the report: %d vs %d races", first.RaceCount, second.RaceCount)
	}
}
