package stint

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"stint/internal/coalesce"
	"stint/internal/evstream"
)

// shardTestDetectors are the detectors DetectShards supports.
var shardTestDetectors = []Detector{
	DetectorCompRTS, DetectorSTINT, DetectorSTINTUnbalanced,
}

func TestNewRunnerShardValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"negative", Options{Detector: DetectorSTINT, Async: true, DetectShards: -1}, false},
		{"without async", Options{Detector: DetectorSTINT, DetectShards: 2}, false},
		{"with parallel", Options{Detector: DetectorOff, ParallelDetect: true, DetectShards: 2}, true},
		{"with parallel and async", Options{Detector: DetectorOff, ParallelDetect: true, Async: true, DetectShards: 2}, false},
		{"vanilla", Options{Detector: DetectorVanilla, Async: true, DetectShards: 2}, false},
		{"compiler", Options{Detector: DetectorCompiler, Async: true, DetectShards: 2}, false},
		{"comp+rts", Options{Detector: DetectorCompRTS, Async: true, DetectShards: 2}, true},
		{"stint", Options{Detector: DetectorSTINT, Async: true, DetectShards: 4}, true},
		{"one shard", Options{Detector: DetectorSTINT, Async: true, DetectShards: 1}, true},
		{"zero is one worker", Options{Detector: DetectorSTINT, Async: true, DetectShards: 0}, true},
		{"off ignored", Options{Detector: DetectorOff, Async: true, DetectShards: 2}, true},
		{"reach-only", Options{Detector: DetectorReachOnly, Async: true, DetectShards: 2}, true},
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

// runSharded executes prog on a fresh Runner under opts and returns the
// report.
func runSharded(t *testing.T, opts Options, prog func(r *Runner) TaskFunc) *Report {
	t.Helper()
	opts.MaxRacesRecorded = 1 << 20
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

// TestShardedByteIdenticalReports is the sharding guarantee: for each
// supported detector, every pipelined mode produces a Report — races,
// counts, strands, deterministic stats — byte-identical to the synchronous
// run.
func TestShardedByteIdenticalReports(t *testing.T) {
	prog := shardProgram(16 << 10)
	for _, d := range shardTestDetectors {
		sync := runSharded(t, Options{Detector: d}, prog)
		if sync.RaceCount == 0 {
			t.Fatalf("%v: program produced no races; test is vacuous", d)
		}
		for _, m := range pipeModes {
			assertSameReport(t, fmt.Sprintf("%v %s", d, m.Name), runSharded(t, m.With(Options{Detector: d}), prog), sync)
		}
	}
}

// TestShardedTinyBatchGeometries forces batch-boundary and backpressure
// cases through the broadcast ring.
func TestShardedTinyBatchGeometries(t *testing.T) {
	prog := shardProgram(16 << 10)
	sync := runSharded(t, Options{Detector: DetectorSTINT}, prog)
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
		assertSameReport(t, fmt.Sprintf("geometry %v", geom), rep, sync)
	}
}

// TestShardedUtilizationReadout checks the Report's pipeline observability:
// one busy figure per worker, summing to PipelineDetectTime; no sequencer
// stage and no label snapshots behind the serial producer; the merge
// stage's busy time under ParallelDetect.
func TestShardedUtilizationReadout(t *testing.T) {
	for _, m := range pipeModes {
		rep := runSharded(t, m.With(Options{Detector: DetectorSTINT}), shardProgram(16<<10))
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

// TestShardedIgnoredForReachOnlyAndOff: DetectShards is accepted when there
// is no page-partitioned work — under ReachOnly each worker just replays the
// structure stream on its own SP-Order; under Off nothing is built.
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
	if len(rep.ShardLoad) != 4 || rep.Racy() {
		t.Errorf("ReachOnly with 4 workers: %d ShardLoad entries, %d races", len(rep.ShardLoad), rep.RaceCount)
	}

	r, err = NewRunner(Options{Detector: DetectorOff, Async: true, DetectShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err = r.Run(func(t *Task) { t.Spawn(func(*Task) {}); t.Sync() })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Racy() || rep.ShardLoad != nil {
		t.Errorf("DetectorOff reported %d races, ShardLoad %v", rep.RaceCount, rep.ShardLoad)
	}
}

// skewShards is the shard count the skip-scan skew tests run under.
const skewShards = 4

// skewProgram builds a one-hot-page workload: every access lands on a
// single 64 KiB shadow page, so under 4-shard detection exactly one worker
// owns every interval and the other three keep nothing. It returns the
// program and the owning shard index.
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

// TestShardedSkewSkipScan is the skew case: on a one-hot-page workload one
// worker owns every interval, yet no worker skips anything — each consumes
// every broadcast batch and every streamed event, the owner's counters are
// the synchronous run's and the three non-owners' zero, and the Report
// stays byte-identical to the synchronous one, fresh and reused.
func TestShardedSkewSkipScan(t *testing.T) {
	rSync, err := NewRunner(Options{Detector: DetectorSTINT, MaxRacesRecorded: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	progSync, _ := skewProgram(rSync)
	sync, err := rSync.Run(progSync)
	if err != nil {
		t.Fatal(err)
	}
	if sync.RaceCount == 0 {
		t.Fatal("skew program produced no races; test is vacuous")
	}

	r, err := NewRunner(Options{
		Detector: DetectorSTINT, Async: true, DetectShards: skewShards,
		MaxRacesRecorded: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Small batches so the interval stream — a few thousand events — spans
	// on the order of a hundred batches.
	r.asyncBatchEvents, r.asyncRingDepth = 16, 4
	prog, owner := skewProgram(r)
	for _, name := range []string{"fresh", "reused"} {
		rep, err := r.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		assertSameReport(t, name, rep, sync)
		as := r.warm.as
		batches := as.bcast.Stats().BatchesPublished
		if batches < 50 {
			t.Errorf("%s: the run spans only %d batches", name, batches)
		}
		for i, l := range rep.ShardLoad {
			if l.BatchesScanned != batches || l.BatchesSkipped != 0 {
				t.Errorf("%s: shard %d scanned %d and skipped %d batches, want all %d and none",
					name, i, l.BatchesScanned, l.BatchesSkipped, batches)
			}
			if l.EventsScanned != rep.Stats.EventsStreamed {
				t.Errorf("%s: shard %d scanned %d events, %d were streamed", name, i, l.EventsScanned, rep.Stats.EventsStreamed)
			}
			// The partition: the owner's counters are the synchronous run's
			// (assertSameReport checked their sum), the others' are zero.
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
	assertSameReport(t, "second run", second, first)
}

// TestAsyncZeroAndOneShardIdentical pins that plain Async is the one-worker
// case of the worker graph, not a second implementation: DetectShards 0 and
// 1 produce the same Report — the stream totals and the one-entry ShardLoad
// included — on a fresh Runner and on a reused one.
func TestAsyncZeroAndOneShardIdentical(t *testing.T) {
	var reps [2][2]*Report // [DetectShards][lap]
	for n := range reps {
		r, err := NewRunner(Options{Detector: DetectorSTINT, Async: true, DetectShards: n, MaxRacesRecorded: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		body := shardProgram(16 << 10)(r)
		for lap := range reps[n] {
			if reps[n][lap], err = r.Run(body); err != nil {
				t.Fatal(err)
			}
		}
	}
	for lap, zero := range reps[0] {
		one := reps[1][lap]
		assertSameReport(t, fmt.Sprintf("lap %d: DetectShards 1 vs 0", lap), one, zero)
		if len(zero.ShardLoad) != 1 || len(one.ShardLoad) != 1 {
			t.Errorf("lap %d: %d and %d ShardLoad entries, want 1 and 1", lap, len(zero.ShardLoad), len(one.ShardLoad))
		}
		if zero.Stats.EventsStreamed == 0 || zero.Stats.EventsStreamed != one.Stats.EventsStreamed ||
			zero.Stats.StreamBytes != one.Stats.StreamBytes {
			t.Errorf("lap %d: stream totals differ: %d events / %d bytes vs %d / %d", lap,
				zero.Stats.EventsStreamed, zero.Stats.StreamBytes,
				one.Stats.EventsStreamed, one.Stats.StreamBytes)
		}
	}
}

// TestWorkersReplayTheSameSPOrder pins why nothing about reachability is
// shipped: every worker replays the whole structure stream on a private
// SP-Order, and strand IDs and sequential ranks are a function of that
// stream alone — so after a run each worker's structure has the synchronous
// run's strands (the merge reads worker 0's count) and ranks every strand as
// the inline detector's structure does.
func TestWorkersReplayTheSameSPOrder(t *testing.T) {
	sizes := make([]int, len(bufSpecs))
	for i, s := range bufSpecs {
		sizes[i] = s.elems
	}
	for seed := int64(9000); seed < 9010; seed++ {
		acts := genActs(rand.New(rand.NewSource(seed)), 5, sizes)
		run := func(opts Options) (*Runner, *Report) {
			r, err := NewRunner(opts)
			if err != nil {
				t.Fatal(err)
			}
			bufs, _ := allocBufs(r)
			rep, err := r.Run(func(task *Task) { runActs(task, bufs, acts) })
			if err != nil {
				t.Fatal(err)
			}
			return r, rep
		}
		syncR, sync := run(Options{Detector: DetectorSTINT})
		for _, name := range []string{"shards=4", "parallel-detect=4"} {
			r, rep := run(modeNamed(name).With(Options{Detector: DetectorSTINT}))
			if rep.Strands != sync.Strands {
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
