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
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"stint"
	"stint/internal/core"
	"stint/workloads"
)

// program is a replayable random fork-join program (same scheme as the
// root package's contract harness generator, genProgram).
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
	// Sequential word accesses take the one-byte form: one long-form event,
	// then one byte per access.
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
	if perEvent > 1.01 {
		t.Errorf("trace uses %.3f bytes per sequential access, want <= 1.01", perEvent)
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
		{"garbage opcode", append(append([]byte{}, good[:8]...), 0x60), Options{Detector: stint.DetectorSTINT}},
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

// budgetTrace is a small recording whose events take the decode step and
// the switch alike: spawns and a sync, both short forms, and accesses and
// ranges with one-, two-, three- and four-byte operands, racing across both
// spawns. events is
// what a replay charges against Options.MaxEvents: every event but the
// restores and the end.
func budgetTrace() (raw []byte, events uint64) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	const base = stint.Addr(1) << 20
	rec.Spawn()
	rec.Read(base, 4)                     // four-byte address delta
	rec.Write(base+8, 4)                  // one-byte form: +2 words
	rec.Read(base+0x88, 4)                // two-byte form: +32 words
	rec.Read(base+0x108, 0x80)            // two-byte address delta and size
	rec.WriteRange(base, 0x80, 4)         // two-byte address delta and count
	rec.ReadRange(base+0x4000, 3, 0x4000) // three-byte address delta and elem
	rec.Restore()
	rec.Write(base+4, 0x3fff) // three-byte address delta, two-byte size
	rec.Spawn()
	rec.WriteRange(base+0x40, 0x10, 8)
	rec.Restore()
	rec.Read(base+0x60, 4)
	rec.Sync()
	rec.WriteRange(base+0x100, 0x80, 0x80)
	rec.Flush()
	return buf.Bytes(), 13
}

// TestReplayMaxEvents sweeps the event budget over budgetTrace. Below its
// event count, a replay fails with ErrTooManyEvents in the words it always
// had, after exactly the budget's accesses reached the Runner, and the same
// warm Runner's next full replay equals a fresh Runner's: an aborted trace
// must not poison the pool. No budget (0), or one of at least the count,
// replays it in full.
func TestReplayMaxEvents(t *testing.T) {
	raw, events := budgetTrace()
	opts := stint.Options{Detector: stint.DetectorSTINT, MaxRacesRecorded: 1 << 20}
	want, err := replayOn(raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Racy() {
		t.Fatal("fixture trace does not race")
	}
	r, err := stint.NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	var seen kinds
	counted, err := stint.NewRunner(stint.Options{Tracer: &seen})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(bytes.NewReader(raw), Options{Runner: counted}); err != nil || uint64(len(seen)) != events {
		t.Fatalf("fixture trace: %q reached the Runner (%v), want %d events", seen, err, events)
	}
	all := string(seen)
	for budget := uint64(0); budget <= events+1; budget++ {
		n := events
		if budget > 0 && budget < events {
			n = budget
		}
		seen = seen[:0]
		Replay(bytes.NewReader(raw), Options{Runner: counted, MaxEvents: budget}) // its error is checked on r below
		if got, want := bytes.Count(seen, []byte{'A'}), strings.Count(all[:n], "A"); got != want {
			t.Fatalf("budget %d of %d events: %d accesses reached the Runner, want %d", budget, events, got, want)
		}
		got, err := Replay(bytes.NewReader(raw), Options{Runner: r, MaxEvents: budget})
		if n == events {
			if err != nil || !sameReport(got, want) {
				t.Fatalf("budget %d of %d events: %+v, %v; want %+v", budget, events, got, err, want)
			}
			continue
		}
		wantErr := fmt.Sprintf("trace: event budget exceeded: trace exceeds %d events", budget)
		if !errors.Is(err, ErrTooManyEvents) || err.Error() != wantErr {
			t.Fatalf("budget %d of %d events: got %v, want %q", budget, events, err, wantErr)
		}
		if got, err = Replay(bytes.NewReader(raw), Options{Runner: r}); err != nil || !sameReport(got, want) {
			t.Fatalf("full replay after budget %d: %+v, %v; want %+v", budget, got, err, want)
		}
	}
}

// kinds is a Tracer spelling the events that reach a Runner: S a spawn, Y a
// sync, A an access or range; restores are not spelled.
type kinds []byte

func (k *kinds) Spawn()                             { *k = append(*k, 'S') }
func (k *kinds) Restore()                           {}
func (k *kinds) Sync()                              { *k = append(*k, 'Y') }
func (k *kinds) Read(stint.Addr, uint64)            { *k = append(*k, 'A') }
func (k *kinds) Write(stint.Addr, uint64)           { *k = append(*k, 'A') }
func (k *kinds) ReadRange(stint.Addr, int, uint64)  { *k = append(*k, 'A') }
func (k *kinds) WriteRange(stint.Addr, int, uint64) { *k = append(*k, 'A') }

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

// wrapTrace is two logically parallel stores at addr, written straight
// through a Recorder (no live run would get such an access past the hook
// guards): accesses of size bytes when elem is 0, ranges of size elements
// of elem bytes otherwise. With tail, a window's event's worth of reads at 0
// follows, so the stores meet the decode step; without it, the trace ends
// within one event's worth of them and they go through the switch.
func wrapTrace(addr stint.Addr, size, elem uint64, tail bool) []byte {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	store := func() {
		if elem == 0 {
			rec.Write(addr, size)
		} else {
			rec.WriteRange(addr, int(size), elem)
		}
	}
	rec.Spawn()
	store()
	rec.Restore()
	store()
	rec.Sync()
	for i := 0; tail && i < maxEventBytes; i += 3 {
		rec.Read(0, 4)
	}
	rec.Flush()
	return buf.Bytes()
}

// TestReplayRejectsWrappingAccess: a per-access event running off the end
// of the address space used to replay silently — zero races, a 2^63 word
// count in the report — where the same span as a range event was a decode
// error. Both are decode errors now, and the Runner stays usable. Each
// store replays once through the decode step and once through the switch,
// with operands of one or two bytes, which the step may take, and of three.
func TestReplayRejectsWrappingAccess(t *testing.T) {
	const wraps = "trace: %s event at %#x spanning %d bytes wraps the address space"
	for _, d := range []stint.Detector{stint.DetectorVanilla, stint.DetectorSTINT} {
		r, err := stint.NewRunner(stint.Options{Detector: d})
		if err != nil {
			t.Fatal(err)
		}
		for _, tail := range []bool{false, true} {
			for _, c := range []struct {
				addr       stint.Addr
				size, elem uint64
				err        string // "" for the stores that must replay and race
			}{
				{^stint.Addr(3), 4, 0, fmt.Sprintf(wraps, "access", ^stint.Addr(3), 4)},
				{^stint.Addr(3), 8, 0, fmt.Sprintf(wraps, "access", ^stint.Addr(3), 8)},
				{^stint.Addr(0x3fff), 0x4000, 0, fmt.Sprintf(wraps, "access", ^stint.Addr(0x3fff), 0x4000)},
				{^stint.Addr(3), 2, 4, fmt.Sprintf(wraps, "range", ^stint.Addr(3), 8)},
				{^stint.Addr(0x3fff), 0x4000, 1, fmt.Sprintf(wraps, "range", ^stint.Addr(0x3fff), 0x4000)},
				{^stint.Addr(7), 4, 0, ""}, // the last representable word
				{^stint.Addr(0x4003), 0x4000, 0, ""},
				{^stint.Addr(0xb), 2, 4, ""},
				{^stint.Addr(0x10003), 0x4000, 4, ""},
			} {
				name := fmt.Sprintf("%v tail %v: %d×%d bytes at %#x", d, tail, c.size, max(c.elem, 1), c.addr)
				rep, err := Replay(bytes.NewReader(wrapTrace(c.addr, c.size, c.elem, tail)), Options{Runner: r})
				if c.err != "" {
					if err == nil || err.Error() != c.err {
						t.Fatalf("%s: want %q, got report %+v, err %v", name, c.err, rep, err)
					}
					continue
				}
				if words := 2 * c.size * max(c.elem, 1) / 4; err != nil || !rep.Racy() || rep.Stats.WriteAccesses != words {
					t.Fatalf("%s: must replay and race over %d words: %+v, %v", name, words, rep, err)
				}
			}
		}
		// A read at 0, then a wrapping access whose next byte is 0, which the
		// decode step must not take for a range's elem (a 4×0-byte range does
		// not wrap).
		raw := append(append([]byte{}, magic[:]...), opRead, 0x00, 0x04, opWrite, 0x07, 0x04)
		raw = append(raw, make([]byte, maxEventBytes)...)
		want := fmt.Sprintf(wraps, "access", ^stint.Addr(3), 4)
		if rep, err := Replay(bytes.NewReader(raw), Options{Runner: r}); err == nil || err.Error() != want {
			t.Fatalf("%v: want %q, got report %+v, err %v", d, want, rep, err)
		}
		// A read, then a store at ^3 in a short form, one word on in one byte
		// or 100 words on in two, wraps in the long form's words, in the
		// switch and (with a window's event's worth behind it) in the step.
		for _, ev := range [][]byte{
			{opRead, 0x0F, 0x04, opShort1 | 1<<6 | 1},        // read at ^7
			{opRead, 0xA7, 0x06, 0x04, opShort2 + 1<<5, 100}, // read at ^403
		} {
			for _, tail := range []int{1, maxEventBytes} {
				raw := append(append(append([]byte{}, magic[:]...), ev...), bytes.Repeat([]byte{opEnd}, tail)...)
				if rep, err := Replay(bytes.NewReader(raw), Options{Runner: r}); err == nil || err.Error() != want {
					t.Fatalf("%v: % x: want %q, got report %+v, err %v", d, ev, want, rep, err)
				}
			}
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
// default size, by the Recorder and in long forms only, and hands each pair of
// traces to check. Under the race detector it leaves out sort, whose trace is
// 21 MB (62 MB in long forms).
func forEachWorkloadTrace(t *testing.T, check func(name string, raw, long []byte)) {
	for _, name := range workloads.Names() {
		if raceEnabled && name == "sort" {
			t.Logf("%s skipped under the race detector", name)
			continue
		}
		f, err := workloads.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		raw, long := recordBoth(t, f())
		check(name, raw, long)
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
	forEachWorkloadTrace(t, func(name string, raw, _ []byte) {
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

// prefixTrace is a small recording holding every long-form opcode, a
// multi-byte address operand and a multi-byte range count, as the Recorder
// wrote it before the short forms (testdata/prefix.trace).
func prefixTrace(t *testing.T) []byte {
	raw, err := os.ReadFile("testdata/prefix.trace")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// shortCalls are the events of shortTrace, a small recording holding both
// short forms from both bases, forwards and backwards, one right after a
// range event and one right after a size change, among long forms.
var shortCalls = []call{
	{code: opSpawn},
	{opRead, 0x1000, 4, 0},       // long: the predicted size is 0
	{opWrite, 0x1100, 4, 0},      // two bytes, base 0: +64 words
	{opRead, 0x1200, 4, 0},       // one byte, base 1: the stride
	{code: opRestore},            //
	{opReadRange, 0x1000, 16, 4}, // long range: -0x200
	{opWrite, 0x0e04, 4, 0},      // one byte, base 1: the stride +1 word
	{opWrite, 0x4000, 8, 0},      // long: a new size, +0x31fc
	{opRead, 0x723c, 8, 0},       // two bytes, base 1: the stride +16 words
	{code: opSync},               //
	{opRead, 0x7234, 8, 0},       // one byte, base 0: -2 words
	{opWrite, 0x6e34, 8, 0},      // two bytes, base 0: -256 words
}

// shortTrace records shortCalls and checks the bytes against their layout
// by hand.
func shortTrace(t *testing.T) []byte {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	for _, c := range shortCalls {
		c.to(rec)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, magic[:]...),
		opSpawn,
		opRead, 0x80, 0x40, 0x04,
		opShort2+(1<<5|0<<4|0x0), 0x40,
		opShort1|0<<6|1<<5|0x00,
		opRestore,
		opReadRange, 0xFF, 0x07, 0x10, 0x04,
		opShort1|1<<6|1<<5|0x01,
		opWrite, 0xF8, 0xC7, 0x01, 0x08,
		opShort2+(0<<5|1<<4|0x0), 0x10,
		opSync,
		opShort1|0<<6|0<<5|0x1E,
		opShort2+(1<<5|0<<4|0xF), 0x00,
		opEnd)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("short-form fixture records as\n% x\nwant\n% x", buf.Bytes(), want)
	}
	return want
}

// TestShortFormsReplayTheirCalls: shortTrace replays to the events it
// recorded through the switch and, with a window's event's worth of bytes
// behind its end, through the decode step.
func TestShortFormsReplayTheirCalls(t *testing.T) {
	raw := shortTrace(t)
	for _, pad := range []int{0, maxEventBytes} {
		if got := hookCalls(t, append(raw, make([]byte, pad)...)); !slices.Equal(got, shortCalls) {
			t.Errorf("padded by %d bytes, shortTrace replays to\n%v\nwant\n%v", pad, got, shortCalls)
		}
	}
}

// TestReplayPrefixErrors replays every prefix of two small traces. None may
// panic, and each must end as its golden table says. prefix_errors.golden
// holds the outcome per prefix length of the bufio.Reader decoder that
// preceded the byte window, over a long-form trace; prefix_short_errors.golden
// those of the short forms' first decoder, over shortTrace. A short form
// cut after its tag fails as a long form cut after its opcode.
func TestReplayPrefixErrors(t *testing.T) {
	for _, c := range []struct {
		golden string
		raw    []byte
	}{
		{"testdata/prefix_errors.golden", prefixTrace(t)},
		{"testdata/prefix_short_errors.golden", shortTrace(t)},
	} {
		golden, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
		if len(want) != len(c.raw)+1 {
			t.Fatalf("%s has %d prefixes, the trace %d", c.golden, len(want), len(c.raw)+1)
		}
		for n := range want {
			got := fmt.Sprintf("%d %s", n, replayResult(bytes.NewReader(c.raw[:n]), Options{Detector: stint.DetectorSTINT}))
			if got != want[n] {
				t.Errorf("%s, prefix %d:\n got: %s\nwant: %s", c.golden, n, got, want[n])
			}
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

	// Address, size, count and elem operands at the one-, two- and three-byte
	// varint boundaries, each once well inside the window and once from its
	// last byte on, so that all but the one-byte ones straddle the 64 KiB
	// edge. Whole, each trace passes the hooks the operands its bytes encode
	// (the event's and every filler read's); cut anywhere from its event's
	// opcode to its end, it fails as the bufio decoder did.
	for _, v := range []uint64{0x7f, 0x80, 0x3fff, 0x4000} {
		for _, c := range []struct {
			operand, kind string
			code          byte
			ops           []uint64
			k             int
		}{
			{"address", "access", opRead, []uint64{v, 4}, 0},
			{"size", "access", opWrite, []uint64{8, v}, 1},
			{"count", "range", opReadRange, []uint64{8, v, 4}, 1},
			{"elem", "range", opWriteRange, []uint64{8, 1, v}, 2},
		} {
			for _, at := range []int{100, windowBytes - 1} {
				raw, bounds, calls := eventAt(c.code, c.ops, c.k, at)
				name := fmt.Sprintf("%s %#x at %d", c.operand, v, at)
				if got := hookCalls(t, raw); !slices.Equal(got, calls) {
					t.Errorf("%s: the replay passes other operands to the hooks", name)
				}
				start, end := bounds[0], bounds[len(bounds)-1]
				for n := start; n <= end; n++ {
					want := "trace: " + c.kind + " event: unexpected EOF"
					if n == start || n == end {
						want = "trace: truncated stream: EOF"
					} else if slices.Contains(bounds, n) {
						want = "trace: " + c.kind + " event: EOF"
					}
					if got := replayResult(bytes.NewReader(raw[:n]), Options{Detector: stint.DetectorSTINT}); got != want {
						t.Errorf("%s cut at %d (event at [%d, %d)): got %q, want %q", name, n, start, end, got, want)
					}
				}
			}
		}
	}
}

// eventAt is magic, then filler reads, then one event of code with
// operands ops laid out so that operand k starts at stream offset at, then
// a window's event's worth of filler and opEnd. bounds are the offsets of
// the event's opcode, of each of its operands, and of its end; calls the
// hook calls the trace encodes.
func eventAt(code byte, ops []uint64, k, at int) (raw []byte, bounds []int, calls []call) {
	ev, skip := []byte{code}, 0
	for i, v := range ops {
		if i == k {
			skip = len(ev)
		}
		ev = binary.AppendUvarint(ev, v)
	}
	// Reads at address 0 of 128 bytes (four-byte events) and of 4 bytes
	// (three-byte events) fill the gap exactly.
	raw = append([]byte{}, magic[:]...)
	start := at - skip
	for gap := start - len(raw); gap%3 != 0; gap -= 4 {
		raw = append(raw, opRead, 0x00, 0x80, 0x01)
		calls = append(calls, call{opRead, 0, 0x80, 0})
	}
	for len(raw) < start {
		raw = append(raw, opRead, 0x00, 0x04)
		calls = append(calls, call{opRead, 0, 4, 0})
	}
	bounds = []int{start, start + 1}
	for _, v := range ops {
		bounds = append(bounds, bounds[len(bounds)-1]+len(binary.AppendUvarint(nil, v)))
	}
	raw = append(raw, ev...)
	addr := stint.Addr(int64(ops[0]>>1) ^ -int64(ops[0]&1)) // from 0, zig-zagged
	calls = append(calls, call{code, addr, ops[1], 0})
	if len(ops) == 3 {
		calls[len(calls)-1].elem = ops[2]
	}
	for i := 0; i < maxEventBytes; i += 3 {
		raw = append(raw, opRead, 0x00, 0x04) // the decode step takes a whole event
		calls = append(calls, call{opRead, addr, 4, 0})
	}
	return append(raw, opEnd), bounds, calls
}

// call is one event a replay passes to the Runner, under its long form's
// opcode: for an access, the address and the size or a range's count and
// element size.
type call struct {
	code       byte
	addr       stint.Addr
	size, elem uint64
}

// to hands the event to tr.
func (c call) to(tr stint.Tracer) {
	switch c.code {
	case opSpawn:
		tr.Spawn()
	case opRestore:
		tr.Restore()
	case opSync:
		tr.Sync()
	case opRead:
		tr.Read(c.addr, c.size)
	case opWrite:
		tr.Write(c.addr, c.size)
	case opReadRange:
		tr.ReadRange(c.addr, int(c.size), c.elem)
	case opWriteRange:
		tr.WriteRange(c.addr, int(c.size), c.elem)
	}
}

// calls is a Tracer logging every event.
type calls []call

func (c *calls) Spawn()                          { *c = append(*c, call{code: opSpawn}) }
func (c *calls) Restore()                        { *c = append(*c, call{code: opRestore}) }
func (c *calls) Sync()                           { *c = append(*c, call{code: opSync}) }
func (c *calls) Read(a stint.Addr, size uint64)  { *c = append(*c, call{opRead, a, size, 0}) }
func (c *calls) Write(a stint.Addr, size uint64) { *c = append(*c, call{opWrite, a, size, 0}) }
func (c *calls) ReadRange(a stint.Addr, n int, elem uint64) {
	*c = append(*c, call{opReadRange, a, uint64(n), elem})
}
func (c *calls) WriteRange(a stint.Addr, n int, elem uint64) {
	*c = append(*c, call{opWriteRange, a, uint64(n), elem})
}

// hookCalls replays raw with detection off and returns its events.
func hookCalls(t *testing.T, raw []byte) []call {
	t.Helper()
	var c calls
	r, err := stint.NewRunner(stint.Options{Tracer: &c})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(bytes.NewReader(raw), Options{Runner: r}); err != nil {
		t.Fatal(err)
	}
	return c
}

// longRecorder is the test's own encoder of the format as it was before the
// short forms: every event as its opcode and uvarint operands, an address as
// the zig-zag delta from the previous access or range event's.
type longRecorder struct {
	raw  []byte
	last stint.Addr
}

func newLongRecorder() *longRecorder { return &longRecorder{raw: append([]byte{}, magic[:]...)} }

func (l *longRecorder) event(code byte, addr stint.Addr, ops ...uint64) {
	d := int64(addr - l.last)
	l.last = addr
	l.raw = binary.AppendUvarint(append(l.raw, code), uint64(d<<1^d>>63))
	for _, v := range ops {
		l.raw = binary.AppendUvarint(l.raw, v)
	}
}

func (l *longRecorder) Spawn()                          { l.raw = append(l.raw, opSpawn) }
func (l *longRecorder) Restore()                        { l.raw = append(l.raw, opRestore) }
func (l *longRecorder) Sync()                           { l.raw = append(l.raw, opSync) }
func (l *longRecorder) Read(a stint.Addr, size uint64)  { l.event(opRead, a, size) }
func (l *longRecorder) Write(a stint.Addr, size uint64) { l.event(opWrite, a, size) }
func (l *longRecorder) ReadRange(a stint.Addr, n int, elem uint64) {
	l.event(opReadRange, a, uint64(n), elem)
}
func (l *longRecorder) WriteRange(a stint.Addr, n int, elem uint64) {
	l.event(opWriteRange, a, uint64(n), elem)
}

// tee hands every event to two Tracers.
type tee [2]stint.Tracer

func (t tee) Spawn()                          { t[0].Spawn(); t[1].Spawn() }
func (t tee) Restore()                        { t[0].Restore(); t[1].Restore() }
func (t tee) Sync()                           { t[0].Sync(); t[1].Sync() }
func (t tee) Read(a stint.Addr, size uint64)  { t[0].Read(a, size); t[1].Read(a, size) }
func (t tee) Write(a stint.Addr, size uint64) { t[0].Write(a, size); t[1].Write(a, size) }
func (t tee) ReadRange(a stint.Addr, n int, elem uint64) {
	t[0].ReadRange(a, n, elem)
	t[1].ReadRange(a, n, elem)
}
func (t tee) WriteRange(a stint.Addr, n int, elem uint64) {
	t[0].WriteRange(a, n, elem)
	t[1].WriteRange(a, n, elem)
}

// recordBoth records one workload instance with detection off through a
// Recorder and through longRecorder at once.
func recordBoth(tb testing.TB, w workloads.Workload) (raw, long []byte) {
	tb.Helper()
	var buf bytes.Buffer
	rec, l := NewRecorder(&buf), newLongRecorder()
	r, err := stint.NewRunner(stint.Options{Tracer: tee{rec, l}})
	if err != nil {
		tb.Fatal(err)
	}
	w.Setup(r)
	if _, err := r.Run(w.Run); err != nil {
		tb.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), append(l.raw, opEnd)
}

// TestShortFormsReplayAsLongForms: each benchmark program, recorded at once
// by the Recorder and in long forms only by longRecorder, replays to the same
// Report from both encodings under STINT and under Vanilla.
func TestShortFormsReplayAsLongForms(t *testing.T) {
	for _, p := range benchPrograms {
		if raceEnabled && p.name == "sort" {
			continue
		}
		raw, long := recordBoth(t, p.new())
		for _, d := range []stint.Detector{stint.DetectorSTINT, stint.DetectorVanilla} {
			want, err := Replay(bytes.NewReader(long), Options{Detector: d})
			if err != nil {
				t.Fatalf("%s long forms under %v: %v", p.name, d, err)
			}
			got, err := Replay(bytes.NewReader(raw), Options{Detector: d})
			if err != nil || !sameReport(got, want) {
				t.Fatalf("%s under %v: short forms replay to %+v, %v\nlong forms to %+v", p.name, d, got, err, want)
			}
		}
	}
}

// recordingDigests are SHA-256 digests of each workload's recording at its
// default size; longDigests those of the format before the short forms,
// which that Recorder wrote and longRecorder writes.
var recordingDigests = map[string]string{
	"chol":  "148228:d0455c83b2ea9d478f93b8bd85d8740c67be187696cf23439b91db7a6d364a63",
	"fft":   "506364:321bbde564b6e60668c8d191c602fd46c32602b8f74b7c9dc5f6a2677dd82450",
	"heat":  "399260:7d79945e95f36bec4f1f0c1291638518e202647d3544329f3f48d127691e1b9b",
	"mmul":  "1352471:49e99e90e5cde543085c4b22b0920760a05c5cf4f542030b0de92044d0d277c1",
	"sort":  "20769367:f82a3e487d8f5f67f06b1b3b4e40757868b082fdfe21a2dd494fff0aa89facf2",
	"stra":  "1850615:1682654ba4c586dbae3421daa57744285b41c9a8f9cf33b08c73d5b9a7d1ab20",
	"straz": "1731187:624dac1bcc5982896a1c683b1a88a81d2a4fe9340f2bce1390cad3c1026aacfb",
}

var longDigests = map[string]string{
	"chol":  "150722:1442217cd6086b646a827fc6aa615852d704099fede00ecd3c42fa1588935e66",
	"fft":   "1220256:ddcba2b33c4778f63fd24d5f54ace1ec191f796c301ded455ab916bb3c54c56a",
	"heat":  "1029280:e69845c701e5b19783d23f9620e5b12869d5bc7dd015393ee71a684e3ec2d95f",
	"mmul":  "3711924:05f760ce9e3d9685cd4ed2914f562dbe3c0c587e5b5a791f682c7f793c601b6c",
	"sort":  "61993538:589215166d3ff872272137c782cdf7ae66c1c0f225b730d6b95f8de70b622476",
	"stra":  "6537570:11eabe036ef1ffb687f660d17ca58d6d45317e88c149ef8428a8b5f46586f89e",
	"straz": "6445918:af2420208fddc648b80903ca9c9e2e022f00295e4d61cf58b61d0c7ca6be94d4",
}

// TestRecordingIsByteStable pins the wire format: every workload records to
// the bytes it always has, and longRecorder to the format's long forms.
func TestRecordingIsByteStable(t *testing.T) {
	forEachWorkloadTrace(t, func(name string, raw, long []byte) {
		for _, c := range []struct {
			raw     []byte
			digests map[string]string
		}{{raw, recordingDigests}, {long, longDigests}} {
			if got := fmt.Sprintf("%d:%x", len(c.raw), sha256.Sum256(c.raw)); got != c.digests[name] {
				t.Errorf("%s: recording is %s, want %s", name, got, c.digests[name])
			}
		}
	})
}
