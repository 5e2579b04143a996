package cliutil

import (
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"

	"stint"
)

func TestPipelineReportSyncRunIsSilent(t *testing.T) {
	if lines := PipelineReport(&stint.Report{}); lines != nil {
		t.Fatalf("expected no lines for a synchronous run, got %v", lines)
	}
}

func TestPipelineReportAsync(t *testing.T) {
	rep := &stint.Report{WallTime: 10 * time.Millisecond}
	rep.ShardLoad = []stint.ShardLoad{{Busy: 5 * time.Millisecond}}
	lines := PipelineReport(rep)
	if len(lines) != 3 {
		t.Fatalf("want header + 1 shard line + waits line, got %v", lines)
	}
	if !strings.Contains(lines[0], "1 workers busy 5ms") || !strings.Contains(lines[0], "50%") {
		t.Errorf("unexpected line: %q", lines[0])
	}
}

func TestStageBusy(t *testing.T) {
	if _, _, ok := StageBusy(&stint.Report{}); ok {
		t.Fatal("synchronous run should report ok=false")
	}

	async := &stint.Report{ShardLoad: []stint.ShardLoad{{Busy: 5 * time.Millisecond}}}
	workers, maxWorker, ok := StageBusy(async)
	if !ok || workers != 5*time.Millisecond || maxWorker != 5*time.Millisecond {
		t.Fatalf("async split = (%v, %v, %v)", workers, maxWorker, ok)
	}

	sharded := &stint.Report{}
	sharded.ShardLoad = []stint.ShardLoad{{Busy: time.Millisecond}, {Busy: 3 * time.Millisecond}}
	workers, maxWorker, ok = StageBusy(sharded)
	if !ok || workers != 4*time.Millisecond || maxWorker != 3*time.Millisecond {
		t.Fatalf("sharded split = (%v, %v, %v)", workers, maxWorker, ok)
	}
}

func TestPipelineReportFromRealShardedRun(t *testing.T) {
	r, err := stint.NewRunner(stint.Options{Detector: stint.DetectorSTINT, Async: true, DetectShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	buf := r.Arena().AllocWords("b", 1<<17)
	rep, err := r.Run(func(task *stint.Task) {
		task.Spawn(func(c *stint.Task) { c.StoreRange(buf, 0, 1<<17) })
		task.LoadRange(buf, 0, 1<<17)
		task.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := PipelineReport(rep)
	if len(lines) != 5 {
		t.Fatalf("want stream line + header + 2 shard lines + waits line from a 2-shard run, got %v", lines)
	}
	if !strings.Contains(lines[0], "event stream") || !strings.Contains(lines[0], "B/event") {
		t.Errorf("missing stream readout: %q", lines[0])
	}
	if !strings.Contains(lines[1], "2 workers busy") {
		t.Errorf("header missing the worker count: %q", lines[1])
	}
	for _, line := range lines[2:4] {
		if !strings.Contains(line, "scanned") || !strings.Contains(line, "ring waits") {
			t.Errorf("shard line missing scan/skip readout: %q", line)
		}
	}
	if !strings.Contains(lines[4], "ring waits per worker") {
		t.Errorf("missing per-worker waits line: %q", lines[4])
	}
}

func TestPipelineReportFromRealParallelDetectRun(t *testing.T) {
	r, err := stint.NewRunner(stint.Options{Detector: stint.DetectorSTINT, ParallelDetect: true, DetectShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	buf := r.Arena().AllocWords("b", 1<<17)
	rep, err := r.Run(func(task *stint.Task) {
		task.Spawn(func(c *stint.Task) { c.StoreRange(buf, 0, 1<<17) })
		task.LoadRange(buf, 0, 1<<17)
		task.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := PipelineReport(rep)
	var exec string
	for _, line := range lines {
		if strings.Contains(line, "parallel executors busy") {
			exec = line
		}
	}
	if exec == "" {
		t.Fatalf("no executor readout in %v", lines)
	}
	if !strings.Contains(exec, "merge stage busy") || !strings.Contains(exec, "reorder peak") {
		t.Errorf("executor line missing merge/reorder readout: %q", exec)
	}
}

// TestPipelineReportShardLoad pins the sharded readout — the header, each
// worker's share of the detect work, and its batch count — from a
// hand-built report.
func TestPipelineReportShardLoad(t *testing.T) {
	rep := &stint.Report{WallTime: 10 * time.Millisecond}
	rep.ShardLoad = []stint.ShardLoad{
		{Busy: 3 * time.Millisecond, BatchesScanned: 10, RingWaits: 1},
		{Busy: time.Millisecond, BatchesScanned: 10, RingWaits: 7},
	}
	lines := PipelineReport(rep)
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %v", lines)
	}
	if !strings.Contains(lines[0], "2 workers busy 4ms") || !strings.Contains(lines[0], "40%") {
		t.Errorf("unexpected header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "shard 0") || !strings.Contains(lines[1], "75%") ||
		!strings.Contains(lines[1], "scanned 10 batches") || !strings.Contains(lines[1], "1 ring waits") {
		t.Errorf("shard 0 line: %q", lines[1])
	}
	if !strings.Contains(lines[2], "shard 1") || !strings.Contains(lines[2], "25%") ||
		!strings.Contains(lines[2], "scanned 10 batches") || !strings.Contains(lines[2], "7 ring waits") {
		t.Errorf("shard 1 line: %q", lines[2])
	}
	if !strings.Contains(lines[3], "max 7") || !strings.Contains(lines[3], "min 1") {
		t.Errorf("waits line: %q", lines[3])
	}
}

// TestPrintReport pins the readout the two binaries share, byte for byte,
// in both forms: stint-replay's short one (whose "  race:" lines
// scripts/serve_smoke.sh greps) and cmd/stint's detailed one.
func TestPrintReport(t *testing.T) {
	rep := &stint.Report{Strands: 3, RaceCount: 5}
	rep.Stats.ReadAccesses, rep.Stats.WriteAccesses = 40, 20
	rep.Stats.ReadHookCalls, rep.Stats.WriteHookCalls = 4, 2
	rep.Stats.ReadIntervals, rep.Stats.WriteIntervals = 8, 4
	rep.Stats.ReadIntervalBytes, rep.Stats.WriteIntervalBytes = 160, 80
	rep.Stats.TreapOps, rep.Stats.TreapNodesVisited, rep.Stats.TreapOverlaps = 10, 45, 5
	rep.Stats.HistoryBytesPeak, rep.Stats.PagesQuiesced = 2048, 1
	rep.Stats.AllocObjects, rep.Stats.AllocBytes = 7, 512
	rep.Races = []stint.Race{{Addr: 0x10, Size: 4, Prev: 1, Cur: 2, CurWrite: true}}
	opts := stint.Options{PageQuiesceThreshold: 4}

	var short, detail strings.Builder
	PrintReport(&short, rep, opts, false, stint.Race.String)
	PrintReport(&detail, rep, opts, true, func(stint.Race) string { return "race: described" })
	wantShort := `strands    3
accesses   read 40  write 20
intervals  read 8  write 4
history    2.0 KiB peak retained
quiesced   1 pages (threshold 4 races/page)
RACES: 5 found
  race: read by strand 1 and write by strand 2 on [0x10,0x14)
`
	wantDetail := `strands    3
accesses   read 40  write 20 (4-byte words)
hook calls read 4  write 2
intervals  read 8 (20.0 B avg)  write 4 (20.0 B avg)
treap ops  10  (4.50 nodes, 0.50 overlaps per op)
history    2.0 KiB peak retained
quiesced   1 pages (threshold 4 races/page)
heap allocs 7 objects, 0.5 KiB during the run
RACES: 5 found
  race: described
`
	if got := short.String(); got != wantShort {
		t.Errorf("short form:\n%s\nwant:\n%s", got, wantShort)
	}
	if got := detail.String(); got != wantDetail {
		t.Errorf("detailed form:\n%s\nwant:\n%s", got, wantDetail)
	}
}

// TestDetectorFlags pins the one flag set the three CLIs share: names,
// defaults, -shards implying -async, and the detector-name error arriving
// with the other fields still filled in.
func TestDetectorFlags(t *testing.T) {
	cases := []struct {
		args    []string
		want    stint.Options
		wantErr string
	}{
		{nil, stint.Options{Detector: stint.DetectorSTINT}, ""},
		{[]string{"-detector", "comp+rts", "-async"}, stint.Options{Detector: stint.DetectorCompRTS, Async: true}, ""},
		{[]string{"-shards", "4"}, stint.Options{Detector: stint.DetectorSTINT, Async: true, DetectShards: 4}, ""},
		{[]string{"-detector", "vanilla", "-quiesce", "3", "-max-history", "4096"},
			stint.Options{Detector: stint.DetectorVanilla, PageQuiesceThreshold: 3, MaxHistoryBytes: 4096}, ""},
		{[]string{"-detector", "off"}, stint.Options{}, ""},
		{[]string{"-detector", "all", "-async"}, stint.Options{Async: true}, `unknown mode "all"`},
		{[]string{"-detector", "stint-skiplist"}, stint.Options{}, `unknown mode "stint-skiplist"`},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		opts := DetectorFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		got, err := opts()
		if (err == nil) != (c.wantErr == "") || (err != nil && !strings.Contains(err.Error(), c.wantErr)) {
			t.Fatalf("%v: error %v, want %q", c.args, err, c.wantErr)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%v: options %+v, want %+v", c.args, got, c.want)
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	DetectorFlags(fs)
	for _, name := range []string{"detector", "async", "shards", "quiesce", "max-history"} {
		if f := fs.Lookup(name); f == nil || f.Usage == "" {
			t.Errorf("flag -%s missing or undocumented", name)
		}
	}
}
