package spord

import (
	"math/rand"
	"testing"
)

// --- brute-force oracle -------------------------------------------------
//
// The oracle interprets a random fork-join program, mirroring exactly the
// strand transitions the SP structure performs, while also recording the
// series-parallel DAG on strand IDs and the true sequential execution order.
// Reachability on that DAG (transitive closure) is ground truth for
// Parallel/Series; execution timestamps are ground truth for the sequential
// order; the left-of relation is computed from its textbook definition.

type oracle struct {
	sp    *SP
	edges map[int32][]int32
	seq   map[int32]int // strand ID -> execution timestamp
	clock int
}

func newOracle() *oracle {
	o := &oracle{
		sp:    New(),
		edges: make(map[int32][]int32),
		seq:   make(map[int32]int),
	}
	o.enter(o.sp.Current())
	return o
}

func (o *oracle) enter(s *Strand) {
	if _, dup := o.seq[s.ID()]; dup {
		panic("strand executed twice")
	}
	o.seq[s.ID()] = o.clock
	o.clock++
}

func (o *oracle) addEdge(from, to int32) {
	o.edges[from] = append(o.edges[from], to)
}

// frameState tracks, per function instance, the spawned children whose
// final strands must join the pending sync strand.
type frameState struct {
	frame   Frame
	waiting []int32
}

// spawn runs body as a spawned child and returns when it completes,
// mirroring serial Cilk execution.
func (o *oracle) spawn(fs *frameState, body func(*frameState)) {
	v := o.sp.Current()
	child, cont := o.sp.Spawn(&fs.frame)
	o.enter(child)
	o.addEdge(v.ID(), child.ID())
	o.addEdge(v.ID(), cont.ID())
	childFS := &frameState{}
	body(childFS)
	final := o.finish(childFS)
	fs.waiting = append(fs.waiting, final)
	o.sp.Restore(cont)
	o.enter(cont)
}

// sync performs an explicit sync in the current function instance.
func (o *oracle) sync(fs *frameState) {
	if !fs.frame.Pending() {
		if got := o.sp.Sync(&fs.frame); got != o.sp.Current() {
			panic("no-op sync changed current strand")
		}
		return
	}
	v := o.sp.Current()
	s := o.sp.Sync(&fs.frame)
	o.enter(s)
	o.addEdge(v.ID(), s.ID())
	for _, w := range fs.waiting {
		o.addEdge(w, s.ID())
	}
	fs.waiting = fs.waiting[:0]
}

// finish performs the implicit sync at function return and reports the
// function's final strand.
func (o *oracle) finish(fs *frameState) int32 {
	o.sync(fs)
	return o.sp.Current().ID()
}

// reachable computes the full reachability matrix of the recorded DAG.
func (o *oracle) reachable() [][]bool {
	n := o.sp.StrandCount()
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	var dfs func(root, cur int32)
	seen := make([]bool, n)
	dfs = func(root, cur int32) {
		for _, nxt := range o.edges[cur] {
			if !seen[nxt] {
				seen[nxt] = true
				reach[root][nxt] = true
				dfs(root, nxt)
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := range seen {
			seen[j] = false
		}
		dfs(int32(i), int32(i))
	}
	return reach
}

// randomBody generates a random function body: a sequence of spawns (with
// recursively generated children) and syncs.
func randomBody(rng *rand.Rand, depth int) func(*oracle, *frameState) {
	type action struct {
		isSpawn bool
		child   func(*oracle, *frameState)
	}
	n := rng.Intn(5)
	actions := make([]action, n)
	for i := range actions {
		if depth > 0 && rng.Intn(3) != 0 {
			actions[i] = action{isSpawn: true, child: randomBody(rng, depth-1)}
		} else {
			actions[i] = action{isSpawn: false}
		}
	}
	return func(o *oracle, fs *frameState) {
		for _, a := range actions {
			if a.isSpawn {
				child := a.child
				o.spawn(fs, func(cfs *frameState) { child(o, cfs) })
			} else {
				o.sync(fs)
			}
		}
	}
}

func (o *oracle) check(t *testing.T) {
	t.Helper()
	n := o.sp.StrandCount()
	if len(o.seq) != n {
		t.Fatalf("executed %d strands, created %d", len(o.seq), n)
	}
	reach := o.reachable()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, b := o.sp.Strand(int32(i)), o.sp.Strand(int32(j))
			wantPar := i != j && !reach[i][j] && !reach[j][i]
			if got := Parallel(a, b); got != wantPar {
				t.Fatalf("Parallel(%d,%d) = %v, want %v", i, j, got, wantPar)
			}
			if got := Series(a, b); got != reach[i][j] {
				t.Fatalf("Series(%d,%d) = %v, want %v", i, j, got, reach[i][j])
			}
			if got, want := SeqBefore(a, b), o.seq[a.ID()] < o.seq[b.ID()]; got != want {
				t.Fatalf("SeqBefore(%d,%d) = %v, want %v", i, j, got, want)
			}
			if i != j {
				// Definition: a left-of b iff (a ∥ b and a earlier in seq
				// order) or (a series-related to b and a later in seq order).
				seqBefore := o.seq[a.ID()] < o.seq[b.ID()]
				wantLeft := (wantPar && seqBefore) || ((reach[i][j] || reach[j][i]) && !seqBefore)
				if got := LeftOf(a, b); got != wantLeft {
					t.Fatalf("LeftOf(%d,%d) = %v, want %v (par=%v seqBefore=%v)", i, j, got, wantLeft, wantPar, seqBefore)
				}
			}
		}
	}
}

// --- tests ----------------------------------------------------------------

func TestRootOnly(t *testing.T) {
	sp := New()
	if sp.StrandCount() != 1 {
		t.Fatalf("StrandCount() = %d, want 1", sp.StrandCount())
	}
	r := sp.Current()
	if Parallel(r, r) || Series(r, r) || LeftOf(r, r) {
		t.Fatal("root strand related to itself")
	}
}

func TestSingleSpawn(t *testing.T) {
	o := newOracle()
	fs := &frameState{}
	o.spawn(fs, func(cfs *frameState) {})
	o.sync(fs)
	o.check(t)

	// Strand 0 = root, 1 = child, 2 = continuation, 3 = sync.
	root, child, cont, sync := o.sp.Strand(0), o.sp.Strand(1), o.sp.Strand(2), o.sp.Strand(3)
	if !Parallel(child, cont) {
		t.Error("spawned child should be parallel with the continuation")
	}
	if !Series(root, child) || !Series(root, cont) || !Series(child, sync) || !Series(cont, sync) {
		t.Error("series relations around a single spawn are wrong")
	}
	if !LeftOf(child, cont) {
		t.Error("spawned child should be left-of the continuation")
	}
	if LeftOf(cont, child) {
		t.Error("continuation should not be left-of the spawned child")
	}
}

func TestTwoSpawnsOneBlock(t *testing.T) {
	o := newOracle()
	fs := &frameState{}
	o.spawn(fs, func(cfs *frameState) {})
	o.spawn(fs, func(cfs *frameState) {})
	o.sync(fs)
	o.check(t)
}

func TestSequentialSyncBlocks(t *testing.T) {
	o := newOracle()
	fs := &frameState{}
	o.spawn(fs, func(cfs *frameState) {})
	o.sync(fs)
	firstBlockChild := o.sp.Strand(1)
	o.spawn(fs, func(cfs *frameState) {})
	o.sync(fs)
	secondBlockChild := o.sp.Strand(4 + 1) // strands 0..3 from block one, sync=3; spawn creates 4(child)...
	o.check(t)
	// A strand spawned after a sync is in series with everything the sync
	// joined.
	if Parallel(firstBlockChild, secondBlockChild) {
		t.Error("strands in consecutive sync blocks must be in series")
	}
}

func TestNoOpSync(t *testing.T) {
	o := newOracle()
	fs := &frameState{}
	before := o.sp.Current()
	o.sync(fs)
	if o.sp.Current() != before {
		t.Fatal("sync with no pending spawns must not change the strand")
	}
	if o.sp.StrandCount() != 1 {
		t.Fatalf("no-op sync created strands: %d", o.sp.StrandCount())
	}
}

func TestNestedSpawns(t *testing.T) {
	o := newOracle()
	fs := &frameState{}
	o.spawn(fs, func(cfs *frameState) {
		o.spawn(cfs, func(ccfs *frameState) {})
		o.spawn(cfs, func(ccfs *frameState) {})
		o.sync(cfs)
	})
	o.spawn(fs, func(cfs *frameState) {
		o.spawn(cfs, func(ccfs *frameState) {})
	})
	o.sync(fs)
	o.check(t)
}

func TestDeepSerialChain(t *testing.T) {
	o := newOracle()
	var recurse func(fs *frameState, depth int)
	recurse = func(fs *frameState, depth int) {
		if depth == 0 {
			return
		}
		o.spawn(fs, func(cfs *frameState) { recurse(cfs, depth-1) })
		o.sync(fs)
	}
	fs := &frameState{}
	recurse(fs, 12)
	o.check(t)
}

func TestWideSpawnFanout(t *testing.T) {
	o := newOracle()
	fs := &frameState{}
	for i := 0; i < 20; i++ {
		o.spawn(fs, func(cfs *frameState) {})
	}
	o.sync(fs)
	o.check(t)
	// All 20 spawned children are pairwise parallel; child strands are
	// 1, 4, 6, 8, ... (the first spawn also creates the sync strand).
	childIDs := []int32{1}
	for i := 1; i < 20; i++ {
		childIDs = append(childIDs, int32(4+2*(i-1)))
	}
	for i, a := range childIDs {
		for _, b := range childIDs[i+1:] {
			if !Parallel(o.sp.Strand(a), o.sp.Strand(b)) {
				t.Fatalf("children %d and %d should be parallel", a, b)
			}
		}
	}
}

func TestRandomProgramsAgainstOracle(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := newOracle()
		body := randomBody(rng, 4)
		fs := &frameState{}
		body(o, fs)
		o.finish(fs)
		o.check(t)
	}
}

func TestLargeRandomProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	o := newOracle()
	var grow func(fs *frameState, budget *int)
	grow = func(fs *frameState, budget *int) {
		for *budget > 0 && rng.Intn(4) != 0 {
			*budget--
			if rng.Intn(3) == 0 {
				o.sync(fs)
				continue
			}
			o.spawn(fs, func(cfs *frameState) { grow(cfs, budget) })
		}
	}
	fs := &frameState{}
	budget := 120
	grow(fs, &budget)
	o.finish(fs)
	if o.sp.StrandCount() < 50 {
		t.Skipf("random program too small: %d strands", o.sp.StrandCount())
	}
	o.check(t)
}

func TestLeftOfTotalOnParallelPairs(t *testing.T) {
	// Among pairwise-parallel strands, left-of must be a strict total order.
	o := newOracle()
	fs := &frameState{}
	for i := 0; i < 8; i++ {
		o.spawn(fs, func(cfs *frameState) {})
	}
	o.sync(fs)
	ids := []int32{1}
	for i := 1; i < 8; i++ {
		ids = append(ids, int32(4+2*(i-1)))
	}
	for i, a := range ids {
		for j, b := range ids {
			if i == j {
				continue
			}
			sa, sb := o.sp.Strand(a), o.sp.Strand(b)
			if LeftOf(sa, sb) == LeftOf(sb, sa) {
				t.Fatalf("left-of not antisymmetric for %d,%d", a, b)
			}
			if (i < j) != LeftOf(sa, sb) {
				t.Fatalf("earlier-spawned parallel child must be left-of later one (%d,%d)", a, b)
			}
		}
	}
}

func BenchmarkSpawnSync(b *testing.B) {
	sp := New()
	b.ResetTimer()
	f := &Frame{}
	for i := 0; i < b.N; i++ {
		_, cont := sp.Spawn(f)
		sp.Restore(cont)
		if i%8 == 7 {
			sp.Sync(f)
		}
	}
}

func BenchmarkParallelQuery(b *testing.B) {
	sp := New()
	f := &Frame{}
	var strands []*Strand
	for i := 0; i < 1000; i++ {
		child, cont := sp.Spawn(f)
		strands = append(strands, child)
		sp.Restore(cont)
		if i%10 == 9 {
			sp.Sync(f)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Parallel(strands[i%len(strands)], strands[(i*13+7)%len(strands)])
	}
}

// programScript returns a random fork-join program of up to n spawns as
// ops: 'S' spawns a child from the current frame, 'E' ends the innermost
// child (sync its frame, restore the continuation), 'Y' syncs the current
// frame.
func programScript(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var script []byte
	depth := 0
	for spawns := 0; spawns < n; {
		switch r := rng.Intn(10); {
		case r < 4 && depth < 12:
			script = append(script, 'S')
			depth++
			spawns++
		case r < 8 && depth > 0:
			script = append(script, 'E')
			depth--
		default:
			script = append(script, 'Y')
		}
	}
	for ; depth > 0; depth-- {
		script = append(script, 'E')
	}
	return append(script, 'Y')
}

// replayProgram runs script on sp with a preallocated frame stack, and
// appends the current strand's ID after every op to ids if it is non-nil.
func replayProgram(sp *SP, script []byte, frames []Frame, conts []*Strand, ids *[]int32) {
	frames, conts = append(frames[:0], Frame{}), conts[:0]
	for _, op := range script {
		f := &frames[len(frames)-1]
		switch op {
		case 'S':
			_, cont := sp.Spawn(f)
			conts = append(conts, cont)
			frames = append(frames, Frame{})
		case 'E':
			sp.Sync(f)
			frames = frames[:len(frames)-1]
			sp.Restore(conts[len(conts)-1])
			conts = conts[:len(conts)-1]
		case 'Y':
			sp.Sync(f)
		}
		if ids != nil {
			*ids = append(*ids, sp.CurrentID())
		}
	}
}

// TestResetMatchesFresh: an SP Reset after another program answers the
// next program exactly like a fresh one — the current strand's ID after
// every step, every SeqRank, and Parallel, LeftOf and SeqBefore over every
// pair — and the warm rerun allocates nothing.
func TestResetMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		script := programScript(seed, 300) // past a slab chunk of strands
		frames, conts := make([]Frame, 0, len(script)+1), make([]*Strand, 0, len(script))
		fresh, reused := New(), New()
		var want, got []int32
		replayProgram(fresh, script, frames, conts, &want)
		replayProgram(reused, programScript(seed+100, 400), frames, conts, nil)
		reused.Reset()
		replayProgram(reused, script, frames, conts, &got)
		n := fresh.StrandCount()
		if reused.StrandCount() != n || len(got) != len(want) {
			t.Fatalf("seed %d: %d strands, fresh %d", seed, reused.StrandCount(), n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: step %d on strand %d, fresh %d", seed, i, got[i], want[i])
			}
		}
		for a := int32(0); a < int32(n); a++ {
			if reused.SeqRank(a) != fresh.SeqRank(a) {
				t.Fatalf("seed %d: SeqRank(%d) = %d, fresh %d", seed, a, reused.SeqRank(a), fresh.SeqRank(a))
			}
			for b := int32(0); b < int32(n); b++ {
				if reused.Parallel(a, b) != fresh.Parallel(a, b) || reused.LeftOf(a, b) != fresh.LeftOf(a, b) ||
					SeqBefore(reused.Strand(a), reused.Strand(b)) != SeqBefore(fresh.Strand(a), fresh.Strand(b)) {
					t.Fatalf("seed %d: strands %d and %d related differently from the fresh SP", seed, a, b)
				}
			}
		}
		rerun := func() {
			reused.Reset()
			replayProgram(reused, script, frames, conts, nil)
		}
		if allocs := testing.AllocsPerRun(5, rerun); allocs != 0 {
			t.Fatalf("seed %d: a warm rerun cost %v allocations, want 0", seed, allocs)
		}
	}
}
