package depa

import (
	"math/rand"
	"testing"

	"stint/internal/oracle"
	"stint/internal/spord"
)

// twin drives a spord.SP, a depa.Builder and the brute-force oracle.DAG
// through the same fork-join program, mirroring the event-stream
// producer's contract: Sync is only issued for blocks with outstanding
// spawns, and every child is synced before it returns. The SP fixes the
// strand numbering and sequential ranks. The DAG, the ancestor closure of
// the program's edges, is the reference for every pair: as each strand
// enters, the twin records whether each strand that ran before is parallel
// with it, and for such a pair "not parallel" is "precedes".
type twin struct {
	sp     *spord.SP
	b      *Builder
	dag    *oracle.DAG
	frames []spord.Frame
	conts  []*spord.Strand
	ran    []int32           // strands in the order they became current
	par    map[[2]int32]bool // {earlier, later}: parallel, as the later entered
}

func newTwin() *twin {
	return &twin{sp: spord.New(), b: NewBuilder(), dag: oracle.NewDAG(), frames: make([]spord.Frame, 1),
		ran: []int32{0}, par: map[[2]int32]bool{}}
}

// entered records the DAG's answers for the strand just made current.
func (tw *twin) entered() {
	cur := tw.dag.CurrentID()
	if cur != tw.sp.CurrentID() || cur != tw.b.Current() {
		panic("twin: strand id mismatch")
	}
	for _, s := range tw.ran {
		tw.par[[2]int32{s, cur}] = tw.dag.ParallelWithCurrent(s)
	}
	tw.ran = append(tw.ran, cur)
}

func (tw *twin) spawn() {
	_, cont := tw.sp.Spawn(&tw.frames[len(tw.frames)-1])
	tw.conts = append(tw.conts, cont)
	tw.frames = append(tw.frames, spord.Frame{})
	tw.b.Spawn()
	tw.dag.Spawn()
	tw.entered()
}

func (tw *twin) sync() {
	before := tw.sp.CurrentID()
	if tw.sp.Sync(&tw.frames[len(tw.frames)-1]).ID() == before {
		return // producer elides strand-free syncs
	}
	tw.b.Sync()
	tw.dag.Sync()
	tw.entered()
}

func (tw *twin) restore() {
	tw.sync() // implicit child sync before returning
	tw.frames = tw.frames[:len(tw.frames)-1]
	cont := tw.conts[len(tw.conts)-1]
	tw.conts = tw.conts[:len(tw.conts)-1]
	tw.sp.Restore(cont)
	tw.b.Restore()
	tw.dag.Restore()
	tw.entered()
}

// run executes a random program of n steps, then joins everything.
func (tw *twin) run(rng *rand.Rand, steps, maxDepth int) {
	for i := 0; i < steps; i++ {
		switch rng.Intn(6) {
		case 0, 1, 2:
			if len(tw.frames) <= maxDepth {
				tw.spawn()
			}
		case 3:
			tw.sync()
		default:
			if len(tw.frames) > 1 {
				tw.restore()
			}
		}
	}
	for len(tw.frames) > 1 {
		tw.restore()
	}
	tw.sync() // final root sync, as Run issues
}

func (tw *twin) check(t *testing.T, seed int64) {
	t.Helper()
	n := tw.sp.StrandCount()
	if got := tw.b.StrandCount(); got != n {
		t.Fatalf("seed %d: StrandCount: depa %d, spord %d", seed, got, n)
	}
	v := tw.b.View()
	if got := v.StrandCount(); got != n {
		t.Fatalf("seed %d: View.StrandCount: %d, want %d", seed, got, n)
	}
	if len(tw.ran) != n {
		t.Fatalf("seed %d: %d strands ran of %d", seed, len(tw.ran), n)
	}
	for a := int32(0); a < int32(n); a++ {
		if got, want := v.SeqRank(a), tw.sp.SeqRank(a); got != want {
			t.Fatalf("seed %d: SeqRank(%d): depa %d, spord %d", seed, a, got, want)
		}
		for b := int32(0); b < int32(n); b++ {
			// The definitions: a ∥ b when neither precedes the other; a is
			// left-of b when a ∥ b and runs first, or b precedes a.
			first := tw.sp.SeqRank(a) < tw.sp.SeqRank(b)
			par := tw.par[[2]int32{a, b}]
			if !first {
				par = tw.par[[2]int32{b, a}]
			}
			series := a != b && first && !par
			par = a != b && par
			left := a != b && par == first
			if got := v.Precedes(a, b); got != series {
				t.Fatalf("seed %d: Precedes(%d,%d): depa %v, DAG %v", seed, a, b, got, series)
			}
			if got := v.Parallel(a, b); got != par {
				t.Fatalf("seed %d: Parallel(%d,%d): depa %v, DAG %v", seed, a, b, got, par)
			}
			if got := v.LeftOf(a, b); got != left {
				t.Fatalf("seed %d: LeftOf(%d,%d): depa %v, DAG %v", seed, a, b, got, left)
			}
		}
	}
}

// TestPrecedesAgainstSpordRandomDAGs differentially verifies the whole
// label algebra — Precedes, Parallel, LeftOf, SeqRank — over every strand
// pair of randomized fork-join programs, against the ancestor closure of
// the program's DAG, with spord's strand numbering and ranks.
func TestPrecedesAgainstSpordRandomDAGs(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 25
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		tw := newTwin()
		tw.run(rng, 30+rng.Intn(70), 2+rng.Intn(5))
		tw.check(t, int64(seed))
	}
}

// TestPrecedesDeepNarrowPrograms stresses long fork paths (deep spawn
// chains) and many sync blocks in one task.
func TestPrecedesDeepNarrowPrograms(t *testing.T) {
	// Deep chain: spawn 40 levels, then unwind.
	tw := newTwin()
	for i := 0; i < 40; i++ {
		tw.spawn()
	}
	for len(tw.frames) > 1 {
		tw.restore()
	}
	tw.sync()
	tw.check(t, -1)

	// Wide: many sibling spawns across several sync blocks of the root.
	tw = newTwin()
	for blk := 0; blk < 5; blk++ {
		for s := 0; s < 6; s++ {
			tw.spawn()
			tw.restore()
		}
		tw.sync()
	}
	tw.check(t, -2)
}

// TestViewSnapshotStability verifies that a View taken mid-build keeps
// answering correctly (for the strands it covers) while the Builder grows —
// the property the sharded pipeline relies on.
func TestViewSnapshotStability(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tw := newTwin()
	tw.run(rng, 40, 4)
	v := tw.b.View()
	n := int32(v.StrandCount())
	type answer struct{ prec, par, left bool }
	saved := make(map[[2]int32]answer)
	for a := int32(0); a < n; a++ {
		for b := int32(0); b < n; b++ {
			saved[[2]int32{a, b}] = answer{v.Precedes(a, b), v.Parallel(a, b), v.LeftOf(a, b)}
		}
	}
	tw.run(rng, 60, 4) // keep building past the snapshot
	for k, want := range saved {
		got := answer{v.Precedes(k[0], k[1]), v.Parallel(k[0], k[1]), v.LeftOf(k[0], k[1])}
		if got != want {
			t.Fatalf("View answer for %v changed after Builder grew: %+v vs %+v", k, got, want)
		}
	}
}

// BenchmarkViewPerRefill measures the cost of taking one View snapshot —
// what the label stage used to pay per ring refill, and now pays only for
// batches whose structure events grew the strand set. Keeping this cheap is
// what makes the demand-driven policy a strict win.
func BenchmarkViewPerRefill(b *testing.B) {
	bl := NewBuilder()
	for i := 0; i < 1024; i++ {
		bl.Spawn()
		bl.Restore()
		bl.Sync()
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		v := bl.View()
		n += v.StrandCount()
	}
	if n == 0 {
		b.Fatal("snapshot covered no strands")
	}
}

func BenchmarkPrecedes(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	tw := newTwin()
	tw.run(rng, 400, 6)
	v := tw.b.View()
	n := int32(v.StrandCount())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := int32(i) % n
		c := int32(i*7) % n
		v.Parallel(a, c)
	}
}
