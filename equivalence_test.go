package stint

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"stint/internal/detect"
	"stint/internal/oracle"
)

// The equivalence suite generates random fork-join programs with random
// interval accesses and checks that every production detector reports
// exactly the set of racing words the brute-force oracle computes. By
// Feng–Leiserson, a sound and complete detector flags a word iff the word
// has a race, so the *word sets* must match even though the engines report
// different (but equally valid) witness pairs.

// act is one step of a program-as-data: programs must be replayable
// identically across detector configurations.
type act struct {
	kind byte // 'S' spawn, 'Y' sync, 'l' load, 's' store, 'L' load-range, 'W' store-range
	buf  int
	idx  int
	n    int
	body []act
}

func runActs(t *Task, bufs []*Buffer, acts []act) {
	for _, a := range acts {
		switch a.kind {
		case 'S':
			body := a.body
			t.Spawn(func(c *Task) { runActs(c, bufs, body) })
		case 'Y':
			t.Sync()
		case 'l':
			t.Load(bufs[a.buf], a.idx)
		case 's':
			t.Store(bufs[a.buf], a.idx)
		case 'L':
			t.LoadRange(bufs[a.buf], a.idx, a.n)
		case 'W':
			t.StoreRange(bufs[a.buf], a.idx, a.n)
		}
	}
}

// genActs builds a random body. bufSizes bounds indices.
func genActs(rng *rand.Rand, depth int, bufSizes []int) []act {
	n := rng.Intn(6)
	acts := make([]act, 0, n)
	for i := 0; i < n; i++ {
		switch k := rng.Intn(10); {
		case k < 3 && depth > 0:
			acts = append(acts, act{kind: 'S', body: genActs(rng, depth-1, bufSizes)})
		case k == 3:
			acts = append(acts, act{kind: 'Y'})
		default:
			b := rng.Intn(len(bufSizes))
			size := bufSizes[b]
			idx := rng.Intn(size)
			kind := []byte{'l', 's', 'L', 'W'}[rng.Intn(4)]
			a := act{kind: kind, buf: b, idx: idx}
			if kind == 'L' || kind == 'W' {
				a.n = rng.Intn(size-idx) + 1
			}
			acts = append(acts, a)
		}
	}
	return acts
}

// bufSpecs describes the buffers every configuration allocates identically.
var bufSpecs = []struct {
	name  string
	elems int
	words int
}{
	{"a", 48, 1},
	{"b", 96, 1},
	{"c", 24, 2}, // float64-like two-word elements
}

func allocBufs(r *Runner) ([]*Buffer, []int) {
	bufs := make([]*Buffer, len(bufSpecs))
	sizes := make([]int, len(bufSpecs))
	for i, s := range bufSpecs {
		bufs[i] = r.Arena().Alloc(s.name, s.elems, s.words*4)
		sizes[i] = s.elems
	}
	return bufs, sizes
}

// racingWordsFor runs the program under one detector — synchronously or
// through the async pipeline — and flattens its race reports to a word set.
// Async runs use a deliberately small batch size so even the small random
// programs split events across batch boundaries.
func racingWordsFor(t *testing.T, d Detector, async bool, acts []act) map[Addr]bool {
	t.Helper()
	words := make(map[Addr]bool)
	r, err := NewRunner(Options{Detector: d, Async: async, OnRace: func(rc Race) {
		for a := rc.Addr &^ 3; a < rc.Addr+rc.Size; a += 4 {
			words[a] = true
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if async {
		r.asyncBatchEvents, r.asyncRingDepth = 8, 2
	}
	bufs, _ := allocBufs(r)
	if _, err := r.Run(func(task *Task) { runActs(task, bufs, acts) }); err != nil {
		t.Fatal(err)
	}
	return words
}

// oracleWordsFor runs the program under the brute-force oracle engine.
func oracleWordsFor(t *testing.T, acts []act) map[Addr]bool {
	t.Helper()
	r, err := NewRunner(Options{Detector: DetectorVanilla})
	if err != nil {
		t.Fatal(err)
	}
	var det *oracle.Detector
	r.newEngine = func(cfg detect.Config, reach detect.Reach) detect.Engine {
		det = oracle.New(reach)
		return det
	}
	bufs, _ := allocBufs(r)
	if _, err := r.Run(func(task *Task) { runActs(task, bufs, acts) }); err != nil {
		t.Fatal(err)
	}
	return det.RacingWords()
}

func wordSetDiff(a, b map[Addr]bool) string {
	var onlyA, onlyB []uint64
	for w := range a {
		if !b[w] {
			onlyA = append(onlyA, w)
		}
	}
	for w := range b {
		if !a[w] {
			onlyB = append(onlyB, w)
		}
	}
	sort.Slice(onlyA, func(i, j int) bool { return onlyA[i] < onlyA[j] })
	sort.Slice(onlyB, func(i, j int) bool { return onlyB[i] < onlyB[j] })
	return fmt.Sprintf("only-first=%v only-second=%v", onlyA, onlyB)
}

// reportFor runs the program under opts and returns the full Report; the
// pipelined modes get the same tiny geometry as racingWordsFor.
func reportFor(t *testing.T, opts Options, acts []act) *Report {
	t.Helper()
	opts.MaxRacesRecorded = 1 << 20
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	r.asyncBatchEvents, r.asyncRingDepth = 8, 2
	bufs, _ := allocBufs(r)
	rep, err := r.Run(func(task *Task) { runActs(task, bufs, acts) })
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkCanonicalReports asserts the core guarantee for a runtime-coalescing
// detector: the Report — races in canonical order, counts, strands,
// deterministic stats — is identical to the synchronous run's in every
// pipelined mode. For ParallelDetect the documented contract is race-set
// equivalence, but the merge reconstructs the exact serial stream, so the
// suite asserts the stronger property. Byte-identity to sync is also what
// shows that the worker skip-scan, the wire encoding, the summary stamp and
// each worker's private SP-Order replay are invisible above the ring.
func checkCanonicalReports(t *testing.T, seed int64, d Detector, acts []act) {
	t.Helper()
	defer logProgramOnFailure(t, acts)
	sync := reportFor(t, Options{Detector: d}, acts)
	for _, m := range pipeModes {
		assertSameReport(t, fmt.Sprintf("seed %d: %v %s", seed, d, m.Name),
			reportFor(t, m.With(Options{Detector: d}), acts), sync)
	}
}

func checkEquivalence(t *testing.T, seed int64, acts []act) {
	t.Helper()
	want := oracleWordsFor(t, acts)
	for _, d := range allDetectors {
		got := racingWordsFor(t, d, false, acts)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %v reports %d racing words, oracle %d (%s)\nprogram: %+v",
				seed, d, len(got), len(want), wordSetDiff(got, want), acts)
		}
		for w := range want {
			if !got[w] {
				t.Fatalf("seed %d: %v missed racing word %#x\nprogram: %+v", seed, d, w, acts)
			}
		}
		if !coalescingDetector(d) {
			continue // no pipeline streams to the per-access detectors
		}
		// Full-report identity across execution modes and shard counts.
		checkCanonicalReports(t, seed, d, acts)
		// The async pipeline must agree with both the oracle and the
		// synchronous path it mirrors.
		async := racingWordsFor(t, d, true, acts)
		if len(async) != len(want) {
			t.Fatalf("seed %d: async %v reports %d racing words, oracle %d (%s)\nprogram: %+v",
				seed, d, len(async), len(want), wordSetDiff(async, want), acts)
		}
		for w := range got {
			if !async[w] {
				t.Fatalf("seed %d: async %v missed racing word %#x found synchronously\nprogram: %+v",
					seed, d, w, acts)
			}
		}
	}
}

func TestDetectorEquivalenceRandomPrograms(t *testing.T) {
	sizes := make([]int, len(bufSpecs))
	for i, s := range bufSpecs {
		sizes[i] = s.elems
	}
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		acts := genActs(rng, 4, sizes)
		checkEquivalence(t, seed, acts)
	}
}

func TestDetectorEquivalenceDeepPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short mode")
	}
	sizes := make([]int, len(bufSpecs))
	for i, s := range bufSpecs {
		sizes[i] = s.elems
	}
	for seed := int64(1000); seed < 1030; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Deeper and wider: more strands, more overlap churn.
		var grow func(depth int) []act
		grow = func(depth int) []act {
			base := genActs(rng, 0, sizes)
			if depth == 0 {
				return base
			}
			for i := 0; i < 3; i++ {
				base = append(base, act{kind: 'S', body: grow(depth - 1)})
				base = append(base, genActs(rng, 0, sizes)...)
				if rng.Intn(2) == 0 {
					base = append(base, act{kind: 'Y'})
				}
			}
			return base
		}
		checkEquivalence(t, seed, grow(4))
	}
}

// TestParallelDetectRunToRunDeterminism pins the second half of the
// ParallelDetect contract: beyond matching sync's race set, repeated runs
// of the same program must be byte-identical to each other — the merge
// order is a function of the program, not the schedule. Racy programs
// under fixed seeds, run back-to-back several times per configuration.
func TestParallelDetectRunToRunDeterminism(t *testing.T) {
	sizes := make([]int, len(bufSpecs))
	for i, s := range bufSpecs {
		sizes[i] = s.elems
	}
	for seed := int64(7000); seed < 7010; seed++ {
		rng := rand.New(rand.NewSource(seed))
		acts := genActs(rng, 4, sizes)
		opts := modeNamed("parallel-detect").With(Options{Detector: DetectorSTINT})
		first := reportFor(t, opts, acts)
		for run := 1; run < 4; run++ {
			assertSameReport(t, fmt.Sprintf("seed %d run %d vs first run", seed, run), reportFor(t, opts, acts), first)
		}
	}
}

func TestDetectorEquivalenceRaceFreePrograms(t *testing.T) {
	// Partition-structured programs are race-free by construction; every
	// detector must agree (no false positives).
	sizes := []int{64}
	_ = sizes
	var mk func(lo, hi, depth int) []act
	mk = func(lo, hi, depth int) []act {
		if depth == 0 || hi-lo < 4 {
			return []act{
				{kind: 'L', buf: 0, idx: lo, n: hi - lo},
				{kind: 'W', buf: 0, idx: lo, n: hi - lo},
			}
		}
		mid := (lo + hi) / 2
		return []act{
			{kind: 'S', body: mk(lo, mid, depth-1)},
			{kind: 'S', body: mk(mid, hi, depth-1)},
			{kind: 'Y'},
			{kind: 'L', buf: 0, idx: lo, n: hi - lo},
		}
	}
	acts := mk(0, 48, 4)
	want := oracleWordsFor(t, acts)
	if len(want) != 0 {
		t.Fatalf("oracle found races in a race-free program: %v", want)
	}
	for _, d := range allDetectors {
		if got := racingWordsFor(t, d, false, acts); len(got) != 0 {
			t.Errorf("%v: false positives in race-free program: %d words", d, len(got))
		}
		if !coalescingDetector(d) {
			continue
		}
		if got := racingWordsFor(t, d, true, acts); len(got) != 0 {
			t.Errorf("async %v: false positives in race-free program: %d words", d, len(got))
		}
	}
}
