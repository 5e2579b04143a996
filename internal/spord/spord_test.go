package spord

import (
	"math/rand"
	"strings"
	"testing"

	"stint/internal/oracle"
)

// --- scripts and the brute-force reference ---------------------------------
//
// A program is a script of ops: 'S' spawns a child from the current frame,
// 'E' ends the innermost child (sync its frame, restore the continuation),
// 'Y' syncs the current frame. checkAgainstDAG replays a script on an SP and
// on oracle.DAG, which records the series-parallel DAG from the same
// structure events and answers reachability by brute-force ancestor
// closure, and at every strand entry asks both about every strand that ran
// before: the one question the detectors ask.

// programScript returns a random fork-join program of n spawns, at most 12
// deep.
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

// replay runs script on sp with preallocated frame and continuation stacks
// and, if step is non-nil, calls it after every transition that made a new
// strand current: 'S' a spawn, 'Y' a sync with spawns outstanding, 'R' a
// restore.
func replay(sp *SP, script []byte, frames []Frame, conts []*Strand, step func(op byte)) {
	frames, conts = append(frames[:0], Frame{}), conts[:0]
	sync := func() {
		before := sp.CurrentID()
		if sp.Sync(&frames[len(frames)-1]).ID() != before && step != nil {
			step('Y')
		}
	}
	for _, op := range script {
		switch op {
		case 'S':
			_, cont := sp.Spawn(&frames[len(frames)-1])
			conts = append(conts, cont)
			frames = append(frames, Frame{})
		case 'E':
			sync()
			frames = frames[:len(frames)-1]
			sp.Restore(conts[len(conts)-1])
			conts = conts[:len(conts)-1]
			op = 'R'
		case 'Y':
			sync()
			continue
		}
		if step != nil {
			step(op)
		}
	}
}

// checkAgainstDAG replays script on a fresh SP and on oracle.DAG and fails
// unless, at every strand entry, both agree on the current strand and on
// whether each strand that ran before is parallel with it, and the SP ranks
// the strand after those. It returns how many strands the program made.
func checkAgainstDAG(t *testing.T, script []byte) int {
	t.Helper()
	sp, dag := New(), oracle.NewDAG()
	ran := []int32{0}
	replay(sp, script, nil, nil, func(op byte) {
		switch op {
		case 'S':
			dag.Spawn()
		case 'Y':
			dag.Sync()
		case 'R':
			dag.Restore()
		}
		cur := sp.CurrentID()
		if cur != dag.CurrentID() || sp.SeqRank(cur) != int32(len(ran)) {
			t.Fatalf("after %q: strand %d ranked %d, the DAG's %d after %d strands ran", op, cur, sp.SeqRank(cur), dag.CurrentID(), len(ran))
		}
		for _, s := range ran {
			if got, want := sp.ParallelWithCurrent(s), dag.ParallelWithCurrent(s); got != want {
				t.Fatalf("strand %d current: ParallelWithCurrent(%d) = %v, the DAG says %v", cur, s, got, want)
			}
		}
		ran = append(ran, cur)
	})
	// Every script ends each child and then syncs, so every strand ran.
	if len(ran) != sp.StrandCount() {
		t.Fatalf("%d strands ran of %d created", len(ran), sp.StrandCount())
	}
	return sp.StrandCount()
}

// --- tests ----------------------------------------------------------------

func TestRootOnly(t *testing.T) {
	sp := New()
	if sp.StrandCount() != 1 || sp.CurrentID() != 0 || sp.SeqRank(0) != 0 {
		t.Fatalf("fresh SP: %d strands, current %d ranked %d", sp.StrandCount(), sp.CurrentID(), sp.SeqRank(0))
	}
	if sp.ParallelWithCurrent(0) {
		t.Fatal("root strand parallel with itself")
	}
}

func TestSingleSpawn(t *testing.T) {
	sp := New()
	f := &Frame{}
	child, cont := sp.Spawn(f)
	if sp.ParallelWithCurrent(0) {
		t.Error("the root should precede the spawned child")
	}
	sp.Restore(cont)
	if !sp.ParallelWithCurrent(child.ID()) {
		t.Error("the spawned child should be parallel with the continuation (so left-of it)")
	}
	if sp.ParallelWithCurrent(0) {
		t.Error("the root should precede the continuation")
	}
	sync := sp.Sync(f)
	// Strand 0 = root, 1 = child, 2 = continuation, 3 = sync.
	if child.ID() != 1 || cont.ID() != 2 || sync.ID() != 3 {
		t.Fatalf("strand IDs child %d, continuation %d, sync %d; want 1, 2, 3", child.ID(), cont.ID(), sync.ID())
	}
	for id := int32(0); id < 3; id++ {
		if sp.ParallelWithCurrent(id) {
			t.Errorf("strand %d should precede the sync strand", id)
		}
	}
	if got := []int32{sp.SeqRank(0), sp.SeqRank(1), sp.SeqRank(2), sp.SeqRank(3)}; got[0] != 0 || got[1] != 1 || got[2] != 2 || got[3] != 3 {
		t.Errorf("sequential ranks %v, want [0 1 2 3]", got)
	}
	checkAgainstDAG(t, []byte("SEY"))
}

func TestTwoSpawnsOneBlock(t *testing.T) {
	checkAgainstDAG(t, []byte("SESEY"))
}

func TestSequentialSyncBlocks(t *testing.T) {
	sp := New()
	f := &Frame{}
	first, cont := sp.Spawn(f)
	sp.Restore(cont)
	sp.Sync(f)
	_, cont = sp.Spawn(f)
	// A strand spawned after a sync is in series with everything the sync
	// joined.
	if sp.ParallelWithCurrent(first.ID()) {
		t.Error("strands in consecutive sync blocks must be in series")
	}
	sp.Restore(cont)
	if sp.ParallelWithCurrent(first.ID()) {
		t.Error("a continuation after a sync must follow the block before it")
	}
	checkAgainstDAG(t, []byte("SEYSEY"))
}

func TestNoOpSync(t *testing.T) {
	sp := New()
	f := &Frame{}
	if sp.Sync(f).ID() != 0 || sp.CurrentID() != 0 {
		t.Fatal("sync with no pending spawns must not change the strand")
	}
	if sp.StrandCount() != 1 {
		t.Fatalf("no-op sync created strands: %d", sp.StrandCount())
	}
}

func TestNestedSpawns(t *testing.T) {
	// A child spawning two and syncing, then a child spawning one and
	// returning with its implicit sync, then the root's sync.
	checkAgainstDAG(t, []byte("SSESEYESSEEY"))
}

func TestDeepSerialChain(t *testing.T) {
	// Each level spawns the next and syncs it: a chain 12 tasks deep.
	script := strings.Repeat("S", 12) + strings.Repeat("EY", 12)
	checkAgainstDAG(t, []byte(script))
}

func TestWideSpawnFanout(t *testing.T) {
	sp := New()
	f := &Frame{}
	var children []int32
	for i := 0; i < 20; i++ {
		child, cont := sp.Spawn(f)
		for _, c := range children {
			if !sp.ParallelWithCurrent(c) {
				t.Fatalf("children %d and %d should be parallel", c, child.ID())
			}
		}
		children = append(children, child.ID())
		sp.Restore(cont)
	}
	sp.Sync(f)
	checkAgainstDAG(t, []byte(strings.Repeat("SE", 20)+"Y"))
}

func TestRandomProgramsAgainstOracle(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		checkAgainstDAG(t, programScript(seed, 4+int(seed)))
	}
}

// TestLargeRandomProgram checks a program of thousands of strands, past
// several slab chunks of strands and tasks.
func TestLargeRandomProgram(t *testing.T) {
	if n := checkAgainstDAG(t, programScript(99, 1500)); n < 3000 {
		t.Fatalf("random program too small: %d strands", n)
	}
}

// TestLeftOfTotalOnParallelPairs: left-of, which the detectors derive as
// not-parallel of a strand that ran, is a strict total order on pairwise
// parallel siblings — the earlier-spawned one is left-of the later.
func TestLeftOfTotalOnParallelPairs(t *testing.T) {
	sp := New()
	f := &Frame{}
	var ids []int32
	for i := 0; i < 8; i++ {
		child, cont := sp.Spawn(f)
		for _, a := range ids {
			if leftOfCur := !sp.ParallelWithCurrent(a); leftOfCur {
				t.Fatalf("child %d left-of the earlier-spawned child %d", child.ID(), a)
			}
		}
		ids = append(ids, child.ID())
		sp.Restore(cont)
	}
	sp.Sync(f)
	for _, a := range ids {
		if sp.ParallelWithCurrent(a) {
			t.Fatalf("child %d not left-of the sync strand that follows it", a)
		}
	}
}

// TestResetMatchesFresh: an SP Reset after another program answers the
// next program exactly like a fresh one — at every strand entry, the
// current strand, its rank and ParallelWithCurrent over every strand that
// ran before — and the warm rerun allocates nothing.
func TestResetMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		script := programScript(seed, 300) // past a slab chunk of strands
		frames, conts := make([]Frame, 0, len(script)+1), make([]*Strand, 0, len(script))
		answers := func(sp *SP) []int32 {
			log, ran := []int32{}, []int32{0}
			replay(sp, script, frames, conts, func(byte) {
				cur := sp.CurrentID()
				log = append(log, cur, sp.SeqRank(cur))
				for _, s := range ran {
					if sp.ParallelWithCurrent(s) {
						log = append(log, s)
					}
				}
				log = append(log, -1)
				ran = append(ran, cur)
			})
			return log
		}
		fresh, reused := New(), New()
		want := answers(fresh)
		replay(reused, programScript(seed+100, 400), frames, conts, nil)
		reused.Reset()
		got := answers(reused)
		if reused.StrandCount() != fresh.StrandCount() || len(got) != len(want) {
			t.Fatalf("seed %d: %d strands and %d answers, fresh %d and %d", seed, reused.StrandCount(), len(got), fresh.StrandCount(), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: answer %d is %d, fresh %d", seed, i, got[i], want[i])
			}
		}
		rerun := func() {
			reused.Reset()
			replay(reused, script, frames, conts, nil)
		}
		if allocs := testing.AllocsPerRun(5, rerun); allocs != 0 {
			t.Fatalf("seed %d: a warm rerun cost %v allocations, want 0", seed, allocs)
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
	var strands []int32
	for i := 0; i < 1000; i++ {
		child, cont := sp.Spawn(f)
		strands = append(strands, child.ID())
		sp.Restore(cont)
		if i%10 == 9 {
			sp.Sync(f)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.ParallelWithCurrent(strands[(i*13+7)%len(strands)])
	}
}
