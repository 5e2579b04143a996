package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"stint"
	"stint/internal/core"
	"stint/workloads"
)

// program is a replayable random fork-join program (same scheme as the
// root package's equivalence tests).
type action struct {
	kind byte // 'S' spawn, 'Y' sync, 'l' load, 's' store, 'L' load-range, 'W' store-range
	idx  int
	n    int
	body []action
}

func genActions(rng *rand.Rand, depth, bufWords int) []action {
	n := rng.Intn(6)
	acts := make([]action, 0, n)
	for i := 0; i < n; i++ {
		switch k := rng.Intn(10); {
		case k < 3 && depth > 0:
			acts = append(acts, action{kind: 'S', body: genActions(rng, depth-1, bufWords)})
		case k == 3:
			acts = append(acts, action{kind: 'Y'})
		default:
			idx := rng.Intn(bufWords)
			a := action{kind: []byte{'l', 's', 'L', 'W'}[rng.Intn(4)], idx: idx}
			if a.kind == 'L' || a.kind == 'W' {
				a.n = rng.Intn(bufWords-idx) + 1
			}
			acts = append(acts, a)
		}
	}
	return acts
}

func runActions(t *stint.Task, buf *stint.Buffer, acts []action) {
	for _, a := range acts {
		switch a.kind {
		case 'S':
			body := a.body
			t.Spawn(func(c *stint.Task) { runActions(c, buf, body) })
		case 'Y':
			t.Sync()
		case 'l':
			t.Load(buf, a.idx)
		case 's':
			t.Store(buf, a.idx)
		case 'L':
			t.LoadRange(buf, a.idx, a.n)
		case 'W':
			t.StoreRange(buf, a.idx, a.n)
		}
	}
}

const bufWords = 64

// record runs acts with a Recorder attached (and no detector) and returns
// the trace bytes.
func record(t *testing.T, acts []action) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	r, err := stint.NewRunner(stint.Options{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	data := r.Arena().AllocWords("data", bufWords)
	if _, err := r.Run(func(task *stint.Task) { runActions(task, data, acts) }); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// direct runs acts live under the given detector.
func direct(t *testing.T, acts []action, d stint.Detector) *stint.Report {
	t.Helper()
	r, err := stint.NewRunner(stint.Options{Detector: d, MaxRacesRecorded: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	data := r.Arena().AllocWords("data", bufWords)
	rep, err := r.Run(func(task *stint.Task) { runActions(task, data, acts) })
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// replayOn replays raw on a fresh Runner built from opts — how a caller
// asks for anything beyond Options.Detector's default synchronous replay.
func replayOn(raw []byte, opts stint.Options) (*stint.Report, error) {
	r, err := stint.NewRunner(opts)
	if err != nil {
		return nil, err
	}
	return Replay(bytes.NewReader(raw), Options{Runner: r})
}

func raceWords(races []stint.Race) map[uint64]bool {
	words := make(map[uint64]bool)
	for _, rc := range races {
		for a := rc.Addr &^ 3; a < rc.Addr+rc.Size; a += 4 {
			words[a] = true
		}
	}
	return words
}

func TestReplayMatchesDirectRun(t *testing.T) {
	detectors := []stint.Detector{
		stint.DetectorVanilla, stint.DetectorCompiler,
		stint.DetectorCompRTS, stint.DetectorSTINT,
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		acts := genActions(rng, 4, bufWords)
		raw := record(t, acts)
		for _, d := range detectors {
			live := direct(t, acts, d)
			replayed, err := replayOn(raw, stint.Options{Detector: d, MaxRacesRecorded: 1 << 20})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, d, err)
			}
			if live.RaceCount != replayed.RaceCount {
				t.Fatalf("seed %d %v: race count %d live vs %d replayed", seed, d, live.RaceCount, replayed.RaceCount)
			}
			if live.Strands != replayed.Strands {
				t.Fatalf("seed %d %v: strands %d live vs %d replayed", seed, d, live.Strands, replayed.Strands)
			}
			lw, rw := raceWords(live.Races), raceWords(replayed.Races)
			if len(lw) != len(rw) {
				t.Fatalf("seed %d %v: racing word sets differ (%d vs %d)", seed, d, len(lw), len(rw))
			}
			for w := range lw {
				if !rw[w] {
					t.Fatalf("seed %d %v: replay missed racing word %#x", seed, d, w)
				}
			}
			ls, rs := live.Stats, replayed.Stats
			if ls.ReadAccesses != rs.ReadAccesses || ls.WriteAccesses != rs.WriteAccesses ||
				ls.ReadIntervals != rs.ReadIntervals || ls.WriteIntervals != rs.WriteIntervals {
				t.Fatalf("seed %d %v: stats diverge\nlive:   %+v\nreplay: %+v", seed, d, ls, rs)
			}
		}
	}
}

func TestReplayAsyncAndShardedMatchSync(t *testing.T) {
	// Replaying through the async pipeline — and through sharded detection —
	// must reproduce the synchronous replay's Report exactly: same canonical
	// races, same strand count, same deterministic counters.
	for seed := int64(100); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		acts := genActions(rng, 4, bufWords)
		raw := record(t, acts)
		sync, err := replayOn(raw, stint.Options{Detector: stint.DetectorSTINT, MaxRacesRecorded: 1 << 20})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, opts := range []stint.Options{
			{Detector: stint.DetectorSTINT, MaxRacesRecorded: 1 << 20, Async: true},
			{Detector: stint.DetectorSTINT, MaxRacesRecorded: 1 << 20, Async: true, DetectShards: 2},
			{Detector: stint.DetectorCompRTS, MaxRacesRecorded: 1 << 20, Async: true, DetectShards: 3},
		} {
			got, err := replayOn(raw, opts)
			if err != nil {
				t.Fatalf("seed %d %+v: %v", seed, opts, err)
			}
			if got.Strands != sync.Strands {
				t.Fatalf("seed %d %+v: strands %d vs sync %d", seed, opts, got.Strands, sync.Strands)
			}
			if opts.Detector == stint.DetectorSTINT {
				if got.RaceCount != sync.RaceCount || !reflect.DeepEqual(got.Races, sync.Races) {
					t.Fatalf("seed %d %+v: races diverge from sync replay", seed, opts)
				}
			} else if (got.RaceCount > 0) != (sync.RaceCount > 0) {
				t.Fatalf("seed %d %+v: verdict %v vs sync %v", seed, opts, got.Racy(), sync.Racy())
			}
		}
	}
}

func TestRecordingAlongsideDetection(t *testing.T) {
	// Tracing can run on top of a live detector; the replayed race count
	// matches what the live detector saw.
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	r, err := stint.NewRunner(stint.Options{Detector: stint.DetectorSTINT, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	data := r.Arena().AllocWords("data", 32)
	live, err := r.Run(func(task *stint.Task) {
		task.Spawn(func(c *stint.Task) { c.StoreRange(data, 0, 16) })
		task.StoreRange(data, 8, 16)
		task.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(bytes.NewReader(buf.Bytes()), Options{Detector: stint.DetectorSTINT})
	if err != nil {
		t.Fatal(err)
	}
	if !live.Racy() || live.RaceCount != rep.RaceCount {
		t.Fatalf("live %d races, replay %d", live.RaceCount, rep.RaceCount)
	}
}

func TestTraceDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	acts := genActions(rng, 3, bufWords)
	a := record(t, acts)
	b := record(t, acts)
	if !bytes.Equal(a, b) {
		t.Fatal("recording the same program twice produced different traces")
	}
}

func TestTraceCompactness(t *testing.T) {
	// Sequential word accesses delta-encode to ~3 bytes per event.
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	r, _ := stint.NewRunner(stint.Options{Tracer: rec})
	data := r.Arena().AllocWords("data", 10000)
	if _, err := r.Run(func(task *stint.Task) {
		for i := 0; i < 10000; i++ {
			task.Load(data, i)
		}
	}); err != nil {
		t.Fatal(err)
	}
	rec.Flush()
	perEvent := float64(buf.Len()) / 10000
	if perEvent > 4 {
		t.Errorf("trace uses %.1f bytes per sequential access, want <= 4", perEvent)
	}
}

func TestReplayErrors(t *testing.T) {
	good := record(t, []action{{kind: 's', idx: 1}})
	cases := []struct {
		name string
		data []byte
		opts Options
	}{
		{"empty", nil, Options{Detector: stint.DetectorSTINT}},
		{"bad magic", []byte("NOTATRACE!"), Options{Detector: stint.DetectorSTINT}},
		{"truncated", good[:len(good)-2], Options{Detector: stint.DetectorSTINT}},
		{"detector off", good, Options{}},
		{"garbage opcode", append(append([]byte{}, good[:8]...), 0x55), Options{Detector: stint.DetectorSTINT}},
	}
	for _, c := range cases {
		if _, err := Replay(bytes.NewReader(c.data), c.opts); err == nil {
			t.Errorf("%s: replay accepted invalid input", c.name)
		}
	}
}

func TestReplayStructuralErrors(t *testing.T) {
	// A restore without a spawn is structurally invalid.
	raw := append(append([]byte{}, magic[:]...), opRestore, opEnd)
	if _, err := Replay(bytes.NewReader(raw), Options{Detector: stint.DetectorVanilla}); err == nil {
		t.Error("replay accepted restore without spawn")
	}
	// A sync without pending spawns is invalid too.
	raw = append(append([]byte{}, magic[:]...), opSync, opEnd)
	if _, err := Replay(bytes.NewReader(raw), Options{Detector: stint.DetectorVanilla}); err == nil {
		t.Error("replay accepted sync without spawns")
	}
	// An unterminated spawn.
	raw = append(append([]byte{}, magic[:]...), opSpawn, opEnd)
	if _, err := Replay(bytes.NewReader(raw), Options{Detector: stint.DetectorVanilla}); err == nil {
		t.Error("replay accepted unterminated spawn")
	}
}

func TestParallelTracingRejected(t *testing.T) {
	rec := NewRecorder(&bytes.Buffer{})
	if _, err := stint.NewRunner(stint.Options{ParallelDetect: true, Tracer: rec}); err == nil {
		t.Fatal("parallel + tracer accepted")
	}
}

// TestReplayRejectsParallelRunner: a ParallelDetect Runner would run the
// replayed tasks on goroutines that all read the one decoder — a data race
// that used to surface as a decode error blaming a valid trace. Replay
// refuses it up front, the same way every time, without touching the source.
func TestReplayRejectsParallelRunner(t *testing.T) {
	raw := record(t, genActions(rand.New(rand.NewSource(7)), 6, bufWords))
	if _, err := Replay(bytes.NewReader(raw), Options{Detector: stint.DetectorSTINT}); err != nil {
		t.Fatalf("fixture trace does not replay serially: %v", err)
	}
	r, err := stint.NewRunner(stint.Options{Detector: stint.DetectorSTINT, ParallelDetect: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		src := bytes.NewReader(raw)
		_, err := Replay(src, Options{Runner: r})
		if !errors.Is(err, ErrParallelRunner) || !strings.Contains(err.Error(), "ParallelDetect") {
			t.Fatalf("replay %d on a ParallelDetect Runner: error %v, want ErrParallelRunner", i, err)
		}
		if src.Len() != len(raw) {
			t.Fatalf("replay %d read %d trace bytes before refusing", i, len(raw)-src.Len())
		}
	}
}

func TestWorkloadTraceRoundTrip(t *testing.T) {
	// Record a real benchmark and replay it: interval statistics must be
	// identical to the live run.
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	r, err := stint.NewRunner(stint.Options{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	data := r.Arena().AllocWords("data", 4096)
	prog := func(task *stint.Task) {
		var rec2 func(t *stint.Task, lo, hi int)
		rec2 = func(t *stint.Task, lo, hi int) {
			if hi-lo <= 256 {
				t.LoadRange(data, lo, hi-lo)
				t.StoreRange(data, lo, hi-lo)
				return
			}
			mid := (lo + hi) / 2
			t.Spawn(func(c *stint.Task) { rec2(c, lo, mid) })
			t.Spawn(func(c *stint.Task) { rec2(c, mid, hi) })
			t.Sync()
		}
		rec2(task, 0, 4096)
	}
	if _, err := r.Run(prog); err != nil {
		t.Fatal(err)
	}
	rec.Flush()

	r2, _ := stint.NewRunner(stint.Options{Detector: stint.DetectorSTINT})
	r2.Arena().AllocWords("data", 4096)
	live, _ := r2.Run(prog)
	// The second runner's buffer has the same base (deterministic arena),
	// so the trace replays against identical addresses.
	rep, err := Replay(bytes.NewReader(buf.Bytes()), Options{Detector: stint.DetectorSTINT})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Racy() {
		t.Fatal("race-free program raced on replay")
	}
	if rep.Stats.ReadIntervals != live.Stats.ReadIntervals || rep.Strands != live.Strands {
		t.Fatalf("replay stats diverge: %+v vs %+v", rep.Stats, live.Stats)
	}
}

// TestReplayReusedRunner pins the serve-side contract: replaying through a
// caller-provided, reused Runner produces Reports byte-identical to a
// fresh-Runner replay of the same trace, across repeated replays and
// across both the sync and sharded pipelines.
func TestReplayReusedRunner(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts stint.Options
	}{
		{"sync", stint.Options{Detector: stint.DetectorSTINT, MaxRacesRecorded: 1 << 20}},
		{"shards2", stint.Options{Detector: stint.DetectorSTINT, MaxRacesRecorded: 1 << 20, Async: true, DetectShards: 2}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			reused, err := stint.NewRunner(mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(100); seed < 106; seed++ {
				rng := rand.New(rand.NewSource(seed))
				acts := genActions(rng, 4, bufWords)
				raw := record(t, acts)
				fresh, err := replayOn(raw, mode.opts)
				if err != nil {
					t.Fatalf("seed %d fresh: %v", seed, err)
				}
				got, err := Replay(bytes.NewReader(raw), Options{Runner: reused})
				if err != nil {
					t.Fatalf("seed %d reused: %v", seed, err)
				}
				if got.RaceCount != fresh.RaceCount || got.Strands != fresh.Strands {
					t.Fatalf("seed %d: counts diverge: %d/%d reused vs %d/%d fresh",
						seed, got.RaceCount, got.Strands, fresh.RaceCount, fresh.Strands)
				}
				if !reflect.DeepEqual(got.Races, fresh.Races) {
					t.Fatalf("seed %d: race lists diverge\nreused: %v\nfresh:  %v",
						seed, got.Races, fresh.Races)
				}
			}
		})
	}
}

// TestReplayMaxEvents checks the per-run budget: an undersized cap aborts
// the replay with ErrTooManyEvents, and the same Runner replays the full
// trace correctly afterwards — an aborted trace must not poison the pool.
func TestReplayMaxEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var acts []action
	for len(acts) < 3 {
		acts = genActions(rng, 4, bufWords)
	}
	raw := record(t, acts)
	r, err := stint.NewRunner(stint.Options{Detector: stint.DetectorSTINT, MaxRacesRecorded: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(bytes.NewReader(raw), Options{Runner: r, MaxEvents: 2}); !errors.Is(err, ErrTooManyEvents) {
		t.Fatalf("capped replay: got %v, want ErrTooManyEvents", err)
	}
	want, err := replayOn(raw, stint.Options{Detector: stint.DetectorSTINT, MaxRacesRecorded: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Replay(bytes.NewReader(raw), Options{Runner: r})
	if err != nil {
		t.Fatalf("post-abort replay: %v", err)
	}
	if got.RaceCount != want.RaceCount || !reflect.DeepEqual(got.Races, want.Races) {
		t.Fatalf("post-abort replay diverges: %d races vs %d", got.RaceCount, want.RaceCount)
	}
	// A budget exactly covering the trace succeeds.
	if _, err := Replay(bytes.NewReader(raw), Options{Detector: stint.DetectorSTINT, MaxEvents: 1 << 20}); err != nil {
		t.Fatalf("generous budget: %v", err)
	}
}

// spawnNest returns a trace of depth nested spawns, each child's body being
// just the next spawn; closed, every spawn gets its restore and the sync
// that joins it, and the trace its end marker — otherwise it stops at the
// innermost spawn.
func spawnNest(depth int, closed bool) []byte {
	raw := append([]byte{}, magic[:]...)
	raw = append(raw, bytes.Repeat([]byte{opSpawn}, depth)...)
	if closed {
		raw = append(raw, bytes.Repeat([]byte{opRestore, opSync}, depth)...)
		raw = append(raw, opEnd)
	}
	return raw
}

// wrapTrace is two logically parallel stores of size bytes at addr, written
// straight through a Recorder (no live run would get such an access past
// the hook guards).
func wrapTrace(addr stint.Addr, size uint64) []byte {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	rec.Spawn()
	rec.Write(addr, size)
	rec.Restore()
	rec.Write(addr, size)
	rec.Sync()
	rec.Flush()
	return buf.Bytes()
}

// TestReplayRejectsWrappingAccess: a per-access event running off the end
// of the address space used to replay silently — zero races, a 2^63 word
// count in the report — where the same span as a range event was a decode
// error. Both are decode errors now, and the Runner stays usable.
func TestReplayRejectsWrappingAccess(t *testing.T) {
	for _, d := range []stint.Detector{stint.DetectorVanilla, stint.DetectorSTINT} {
		r, err := stint.NewRunner(stint.Options{Detector: d})
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []uint64{4, 8} {
			rep, err := Replay(bytes.NewReader(wrapTrace(^stint.Addr(3), size)), Options{Runner: r})
			if err == nil || !strings.Contains(err.Error(), "wraps the address space") {
				t.Fatalf("%v size %d: want a wrap decode error, got report %+v, err %v", d, size, rep, err)
			}
		}
		rep, err := Replay(bytes.NewReader(wrapTrace(^stint.Addr(7), 4)), Options{Runner: r})
		if err != nil || rep.RaceCount != 1 || rep.Stats.WriteAccesses != 2 {
			t.Fatalf("%v: the last representable word must replay and race: %+v, %v", d, rep, err)
		}
	}
}

// TestReplaySpawnDepthBound is the regression test for the depth bomb: a
// trace of nothing but opSpawn bytes used to recurse until Go's fatal,
// unrecoverable stack overflow killed the process (16 MiB of 0x01 sufficed).
// Nesting one past the bound must now fail with a structured error, leave
// the Runner reusable, and nesting exactly to the bound must still replay.
func TestReplaySpawnDepthBound(t *testing.T) {
	opts := stint.Options{Detector: stint.DetectorSTINT, MaxRacesRecorded: 1 << 20}
	r, err := stint.NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Replay(bytes.NewReader(spawnNest(maxSpawnDepth+1, false)), Options{Runner: r})
	if err == nil || !strings.HasPrefix(err.Error(), "trace: spawn nesting") {
		t.Fatalf("depth bomb: got %v, want a trace: spawn nesting error", err)
	}
	// The Runner recovers: a racy trace replays byte-identically to a fresh
	// Runner's replay.
	good := record(t, []action{
		{kind: 'S', body: []action{{kind: 'W', idx: 0, n: 16}}},
		{kind: 'W', idx: 8, n: 16},
		{kind: 'Y'},
	})
	want, err := replayOn(good, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Replay(bytes.NewReader(good), Options{Runner: r})
	if err != nil {
		t.Fatalf("post-abort replay: %v", err)
	}
	if !want.Racy() || got.RaceCount != want.RaceCount || got.Strands != want.Strands ||
		!reflect.DeepEqual(got.Races, want.Races) {
		t.Fatalf("post-abort replay diverges: %d races/%d strands vs %d/%d",
			got.RaceCount, got.Strands, want.RaceCount, want.Strands)
	}
	rep, err := Replay(bytes.NewReader(spawnNest(maxSpawnDepth, true)), Options{Runner: r})
	if err != nil {
		t.Fatalf("nesting at the bound: %v", err)
	}
	if rep.Racy() {
		t.Fatalf("access-free trace reported %d races", rep.RaceCount)
	}
}

// TestReplayHistoryCap checks the access-history memory cap: a trace whose
// live history outgrows MaxHistoryBytes aborts the replay with a structured
// error matching stint.ErrHistoryCap, and the same Runner replays an
// in-budget trace correctly afterwards — like an event-budget abort, a cap
// trip must not poison the pool.
func TestReplayHistoryCap(t *testing.T) {
	// Big: alternating-word stores never coalesce, so the root strand
	// retains one interval node per store — far beyond the cap. Tiny: one
	// store stays well under it.
	big := record(t, func() []action {
		var acts []action
		for i := 0; i < bufWords; i += 2 {
			acts = append(acts, action{kind: 's', idx: i})
		}
		return acts
	}())
	tiny := record(t, []action{{kind: 's', idx: 0}})
	// The one page's shell (256 bytes in the engine's estimate) plus half the
	// nodes big retains, whatever a node weighs: big is over, tiny under.
	const cap = int64(256 + bufWords/4*core.NodeBytes)
	r, err := stint.NewRunner(stint.Options{Detector: stint.DetectorSTINT, MaxHistoryBytes: cap})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Replay(bytes.NewReader(big), Options{Runner: r})
	if !errors.Is(err, stint.ErrHistoryCap) {
		t.Fatalf("capped replay: got %v, want stint.ErrHistoryCap", err)
	}
	var capErr *stint.HistoryCapError
	if !errors.As(err, &capErr) || capErr.Limit != uint64(cap) || capErr.Bytes <= capErr.Limit {
		t.Fatalf("capped replay: want *stint.HistoryCapError with Bytes > Limit %d, got %#v", cap, err)
	}
	// The Runner recovers: an in-budget trace replays byte-identically to a
	// fresh uncapped replay.
	want, err := Replay(bytes.NewReader(tiny), Options{Detector: stint.DetectorSTINT})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Replay(bytes.NewReader(tiny), Options{Runner: r})
	if err != nil {
		t.Fatalf("post-abort replay: %v", err)
	}
	if got.RaceCount != want.RaceCount || !reflect.DeepEqual(got.Races, want.Races) {
		t.Fatalf("post-abort replay diverges: %d races vs %d", got.RaceCount, want.RaceCount)
	}
	// A fresh replay with a generous budget handles the big trace.
	if _, err := replayOn(big, stint.Options{Detector: stint.DetectorSTINT, MaxHistoryBytes: 1 << 30}); err != nil {
		t.Fatalf("generous budget: %v", err)
	}
}

// TestReplayDefaultMaxRaces pins the replay-side defaulting: zero
// MaxRacesRecorded means stint.DefaultMaxRacesRecorded, so a trace with
// more races than the default records exactly the default number while
// RaceCount keeps counting.
func TestReplayDefaultMaxRaces(t *testing.T) {
	words := 4 * stint.DefaultMaxRacesRecorded
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	r, err := stint.NewRunner(stint.Options{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	data := r.Arena().AllocWords("data", words)
	_, err = r.Run(func(task *stint.Task) {
		// One pair of parallel single-word writes per word: each pair is an
		// independent race, well above the default recording cap.
		for i := 0; i < 2*stint.DefaultMaxRacesRecorded; i++ {
			idx := 2 * i
			task.Spawn(func(c *stint.Task) { c.Store(data, idx) })
			task.Spawn(func(c *stint.Task) { c.Store(data, idx) })
		}
		task.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(bytes.NewReader(buf.Bytes()), Options{Detector: stint.DetectorSTINT})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RaceCount <= stint.DefaultMaxRacesRecorded {
		t.Fatalf("fixture trace found only %d races; want > %d", rep.RaceCount, stint.DefaultMaxRacesRecorded)
	}
	if len(rep.Races) != stint.DefaultMaxRacesRecorded {
		t.Fatalf("zero MaxRacesRecorded recorded %d races; want the default %d",
			len(rep.Races), stint.DefaultMaxRacesRecorded)
	}
}

// sameReport compares two Reports' content: everything but wall time and the
// heap-allocation deltas, which are measurements, not results.
func sameReport(a, b *stint.Report) bool {
	norm := func(r stint.Report) stint.Report {
		r.WallTime, r.Stats.AllocObjects, r.Stats.AllocBytes = 0, 0, 0
		return r
	}
	return reflect.DeepEqual(norm(*a), norm(*b))
}

// replayResult is a replay's outcome as text: the error, or "ok".
func replayResult(src io.Reader, opts Options) string {
	if _, err := Replay(src, opts); err != nil {
		return err.Error()
	}
	return "ok"
}

// raceEnabled is set when the race detector, which slows replay tenfold, is
// on (race_test.go).
var raceEnabled bool

// forEachWorkloadTrace records every workloads.Names() program at its
// default size and hands each trace to check. Under the race detector it
// leaves out sort, whose trace is 62 MB.
func forEachWorkloadTrace(t *testing.T, check func(name string, raw []byte)) {
	for _, name := range workloads.Names() {
		if raceEnabled && name == "sort" {
			t.Logf("%s skipped under the race detector", name)
			continue
		}
		f, err := workloads.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		check(name, recordWorkload(t, f()))
	}
}

// TestReplayShortReads: the decoder's window must not depend on how src
// hands out its bytes. Every workload's trace replays to the same Report
// through a reader giving one byte per Read, one giving half of what is
// asked, and one returning its last bytes together with io.EOF.
func TestReplayShortReads(t *testing.T) {
	r, err := stint.NewRunner(stint.Options{Detector: stint.DetectorSTINT, MaxRacesRecorded: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	forEachWorkloadTrace(t, func(name string, raw []byte) {
		want, err := Replay(bytes.NewReader(raw), Options{Runner: r})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, rd := range []struct {
			name string
			wrap func(io.Reader) io.Reader
		}{
			{"OneByteReader", iotest.OneByteReader},
			{"HalfReader", iotest.HalfReader},
			{"DataErrReader", iotest.DataErrReader},
		} {
			got, err := Replay(rd.wrap(bytes.NewReader(raw)), Options{Runner: r})
			if err != nil {
				t.Fatalf("%s through %s: %v", name, rd.name, err)
			}
			if !sameReport(got, want) {
				t.Fatalf("%s through %s: report diverges\n got: %+v\nwant: %+v", name, rd.name, got, want)
			}
		}
	})
}

// prefixTrace is a small recording holding every opcode, a multi-byte
// address operand and a multi-byte range count.
func prefixTrace(t *testing.T) []byte {
	return record(t, []action{
		{kind: 'S', body: []action{{kind: 'l', idx: 3}, {kind: 'W', idx: 0, n: 16}}},
		{kind: 's', idx: 40},
		{kind: 'L', idx: 0, n: bufWords},
		{kind: 'Y'},
		{kind: 'l', idx: 63},
	})
}

// TestReplayPrefixErrors replays every prefix of a small trace. None may
// panic, and each must end exactly as the bufio.Reader decoder that preceded
// the byte window ended it: testdata/prefix_errors.golden holds that
// decoder's outcome per prefix length.
func TestReplayPrefixErrors(t *testing.T) {
	raw := prefixTrace(t)
	golden, err := os.ReadFile("testdata/prefix_errors.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	if len(want) != len(raw)+1 {
		t.Fatalf("golden table has %d prefixes, the trace %d", len(want), len(raw)+1)
	}
	for n := range want {
		got := fmt.Sprintf("%d %s", n, replayResult(bytes.NewReader(raw[:n]), Options{Detector: stint.DetectorSTINT}))
		if got != want[n] {
			t.Errorf("prefix %d:\n got: %s\nwant: %s", n, got, want[n])
		}
	}
}

// TestReplayWrapsSourceErrors: an error from src itself, wherever it
// strikes, comes back wrapped in the decode error.
func TestReplayWrapsSourceErrors(t *testing.T) {
	raw := prefixTrace(t)
	boom := errors.New("disk on fire")
	for _, n := range []int{0, 5, len(magic), len(magic) + 1, len(raw) - 1} {
		src := io.MultiReader(bytes.NewReader(raw[:n]), iotest.ErrReader(boom))
		_, err := Replay(src, Options{Detector: stint.DetectorSTINT})
		if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "trace: ") {
			t.Errorf("src failing after %d bytes: got %v, want a trace error wrapping %v", n, err, boom)
		}
	}
}

// readEvents is magic, then one opRead per operand pair in ops, then opEnd.
func readEvents(ops ...[]byte) []byte {
	raw := append([]byte{}, magic[:]...)
	for _, op := range ops {
		raw = append(append(raw, opRead), op...)
	}
	return append(raw, opEnd)
}

// TestReplayVarintEdges pins the operand errors binary.ReadUvarint gave:
// a varint running past ten bytes, a tenth byte carrying more than the
// 64th bit, and ten continuation bytes with nothing after them all
// overflow; a varint cut by the end of src is an unexpected EOF, also when
// it is cut exactly at the 64 KiB window's edge.
func TestReplayVarintEdges(t *testing.T) {
	const overflow = "trace: access event: binary: varint overflows a 64-bit integer"
	cont := bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64)
	for _, c := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"eleven bytes", readEvents(append(append([]byte{}, cont...), 0x01, 0x04)), overflow},
		{"tenth byte too big", readEvents(append(append([]byte{}, cont[:9]...), 0x02, 0x04)), overflow},
		{"ten continuation bytes at the end", readEvents(cont)[:len(magic)+1+len(cont)], overflow},
		{"size overflows", readEvents(append([]byte{0x08}, append(cont, 0x01)...)), overflow},
		{"cut mid-varint", readEvents(cont[:3])[:len(magic)+4], "trace: access event: unexpected EOF"},
	} {
		if got := replayResult(bytes.NewReader(c.raw), Options{Detector: stint.DetectorSTINT}); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}

	// Reads alternating between two addresses 2^40 bytes apart: six-byte
	// address deltas, laid out so one straddles stream offset 64 KiB. cutErr
	// is the error for a cut at each event and operand boundary; a cut
	// anywhere else is inside an operand.
	const far = stint.Addr(1) << 40
	raw := append([]byte{}, magic[:]...)
	raw = append(raw, opRead, 0x08, 0x04) // shifts the layout by three bytes
	cutErr := map[int]string{}
	last, straddle := stint.Addr(4), -1
	for i := 0; len(raw) < windowBytes+64; i++ {
		addr := stint.Addr(4) + far*stint.Addr(i&1)
		delta := int64(addr) - int64(last)
		last = addr
		cutErr[len(raw)] = "trace: truncated stream: EOF"
		raw = append(raw, opRead)
		start := len(raw)
		cutErr[start] = "trace: access event: EOF"
		raw = binary.AppendUvarint(raw, uint64((delta<<1)^(delta>>63)))
		if start < windowBytes && len(raw) > windowBytes {
			straddle = start
		}
		cutErr[len(raw)] = "trace: access event: EOF"
		raw = append(raw, 0x04)
	}
	raw = append(raw, opEnd)
	if straddle < 0 {
		t.Fatal("fixture: no address operand straddles the window edge")
	}
	want, err := Replay(bytes.NewReader(raw), Options{Detector: stint.DetectorSTINT})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Replay(iotest.OneByteReader(bytes.NewReader(raw)), Options{Detector: stint.DetectorSTINT})
	if err != nil || !sameReport(got, want) {
		t.Fatalf("one byte at a time: %+v, %v; want %+v", got, err, want)
	}
	// Cut at every byte from the event before the straddling operand to the
	// one after it.
	for n := straddle - 4; n <= straddle+10; n++ {
		want, ok := cutErr[n]
		if !ok {
			want = "trace: access event: unexpected EOF"
		}
		if got := replayResult(bytes.NewReader(raw[:n]), Options{Detector: stint.DetectorSTINT}); got != want {
			t.Errorf("cut at %d (operand straddling %d starts at %d): got %q, want %q", n, windowBytes, straddle, got, want)
		}
	}
}

// recordingDigests are SHA-256 digests of each workload's recording at its
// default size, taken from the Recorder that wrote the opcode and the
// operands in two calls: recordings are byte-identical to that format.
var recordingDigests = map[string]string{
	"chol":  "150722:1442217cd6086b646a827fc6aa615852d704099fede00ecd3c42fa1588935e66",
	"fft":   "1220256:ddcba2b33c4778f63fd24d5f54ace1ec191f796c301ded455ab916bb3c54c56a",
	"heat":  "1029280:e69845c701e5b19783d23f9620e5b12869d5bc7dd015393ee71a684e3ec2d95f",
	"mmul":  "3711924:05f760ce9e3d9685cd4ed2914f562dbe3c0c587e5b5a791f682c7f793c601b6c",
	"sort":  "61993538:589215166d3ff872272137c782cdf7ae66c1c0f225b730d6b95f8de70b622476",
	"stra":  "6537570:11eabe036ef1ffb687f660d17ca58d6d45317e88c149ef8428a8b5f46586f89e",
	"straz": "6445918:af2420208fddc648b80903ca9c9e2e022f00295e4d61cf58b61d0c7ca6be94d4",
}

// TestRecordingIsByteStable pins the wire format: every workload records to
// the bytes it always has.
func TestRecordingIsByteStable(t *testing.T) {
	forEachWorkloadTrace(t, func(name string, raw []byte) {
		got := fmt.Sprintf("%d:%x", len(raw), sha256.Sum256(raw))
		if got != recordingDigests[name] {
			t.Errorf("%s: recording is %s, want %s", name, got, recordingDigests[name])
		}
	})
}
