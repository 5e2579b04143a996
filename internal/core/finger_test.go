package core

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// twin pairs a tree used as the detector uses it with a reference whose
// finger is cleared before every operation, so the reference always walks
// from the root. Finger search is exact, not heuristic: the two must agree
// on everything except which nodes were visited.
type twin struct {
	tr, ref *Tree
}

func newTwin() twin { return twin{tr: newTestTree(), ref: newTestTree()} }

type overlapRec struct {
	acc    int32
	lo, hi uint64
}

func depth(t *Tree, r ref) uint64 {
	var d uint64
	for ; at(t.pool.base, r).parent != 0; r = at(t.pool.base, r).parent {
		d++
	}
	return d
}

// apply runs op for x on both trees and asserts identical overlap-callback
// sequences, identical structure (intervals, priorities, topology — shapeOf;
// parent links via checkInvariants), identical Ops and Overlaps charged, and
// that the fingered tree's NodesVisited differs from the root walk's by
// exactly the climb steps charged minus the ancestors skipped. cb, if
// non-nil, sees the fingered tree's overlaps.
func (w twin) apply(t *testing.T, x Interval, cb OverlapFunc, op func(tr *Tree, cb OverlapFunc)) {
	t.Helper()
	w.run(t, x, func(tr *Tree, b unsafe.Pointer, x span) (ref, ref) { return tr.climb(b, tr.fingerOrRoot(b, x), x) }, cb, op)
}

// read is apply for InsertRead, which seeks with readStart.
func (w twin) read(t *testing.T, x Interval, leftOf LeftOfFunc, cb OverlapFunc) {
	t.Helper()
	w.run(t, x, (*Tree).readStart, cb, func(tr *Tree, cb OverlapFunc) { tr.InsertRead(x, leftOf, cb) })
}

// checkedRead is read checked against the word oracle as checkedRead checks
// a lone tree: overlaps, projection, and one node per maximal run.
func (w twin) checkedRead(t *testing.T, o *wordOracle, x Interval, leftOf LeftOfFunc) {
	t.Helper()
	os := newOverlapSet(t)
	want := o.expectedOverlaps(x)
	w.read(t, x, leftOf, os.fn)
	w.tr.checkReadTree()
	comparePairSets(t, fmt.Sprintf("InsertRead(%v)", x), os.pairs, want)
	o.applyRead(x, leftOf)
	compareProjection(t, fmt.Sprintf("after InsertRead(%v)", x), w.tr, o)
	compareRuns(t, fmt.Sprintf("after InsertRead(%v)", x), w.tr, o)
}

// run is apply with the operation's seek.
func (w twin) run(t *testing.T, x Interval, seek func(tr *Tree, b unsafe.Pointer, x span) (ref, ref), cb OverlapFunc, op func(tr *Tree, cb OverlapFunc)) {
	t.Helper()
	// Dry-run seek: it has no side effect but the visit charge.
	before := w.tr.stats
	start, _ := seek(w.tr, w.tr.pool.base, w.tr.local(x))
	climb := w.tr.stats.NodesVisited - before.NodesVisited
	w.tr.stats = before
	var skipped uint64
	if start != 0 {
		skipped = depth(w.tr, start)
	}

	var got, want []overlapRec
	op(w.tr, func(acc int32, lo, hi uint64) {
		got = append(got, overlapRec{acc, lo, hi})
		if cb != nil {
			cb(acc, lo, hi)
		}
	})
	w.tr.checkInvariants()
	w.ref.finger = 0
	refBefore := w.ref.stats
	op(w.ref, func(acc int32, lo, hi uint64) { want = append(want, overlapRec{acc, lo, hi}) })
	w.ref.checkInvariants()

	if len(got) != len(want) {
		t.Fatalf("op on %v: %d overlap callbacks with the finger, %d from the root", x, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("op on %v: overlap callback %d is %+v with the finger, %+v from the root", x, i, got[i], want[i])
		}
	}
	a, b := shapeOf(w.tr), shapeOf(w.ref)
	if len(a) != len(b) {
		t.Fatalf("op on %v: structure diverged (fingerprint %d vs %d words)", x, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op on %v: structure diverged at fingerprint index %d", x, i)
		}
	}
	ts, rs := w.tr.stats, w.ref.stats
	if ts.Ops-before.Ops != rs.Ops-refBefore.Ops || ts.Overlaps-before.Overlaps != rs.Overlaps-refBefore.Overlaps {
		t.Fatalf("op on %v: stats %+v -> %+v with the finger, %+v -> %+v from the root", x, before, ts, refBefore, rs)
	}
	fingered := ts.NodesVisited - before.NodesVisited
	rooted := rs.NodesVisited - refBefore.NodesVisited
	if fingered+skipped != rooted+climb {
		t.Fatalf("op on %v: visited %d with the finger (climb %d, %d ancestors skipped), %d from the root",
			x, fingered, climb, skipped, rooted)
	}
}

// reset empties both trees the way the engine does: Reset pairs with a
// Pool.Reset, Drop returns the nodes itself.
func (w twin) reset(drop bool) {
	for _, tr := range []*Tree{w.tr, w.ref} {
		if drop {
			tr.Drop()
		} else {
			tr.Reset()
			tr.pool.Reset()
		}
		tr.checkInvariants()
	}
}

// mixLeftOf is a strict total order on accessors that agrees with neither
// insertion order nor its reverse, so both InsertRead outcomes are common.
func mixLeftOf(a, b int32) bool { return uint32(a)*0x9E3779B1 > uint32(b)*0x9E3779B1 }

// TestFingerMatchesRootWalk replays random sequences shaped like the runs a
// strand produces — ascending, descending and scattered steps, covering
// writes that drive removeOverlap's case C and dropSubtree, exact-match
// re-reads of what is stored, Drop and Reset mid-sequence — through a twin.
func TestFingerMatchesRootWalk(t *testing.T) {
	const space = 1 << 12
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newTwin()
		acc := int32(0)
		do := func(x Interval) {
			x.Acc = acc
			acc++
			switch rng.Intn(3) {
			case 0:
				w.apply(t, x, nil, func(tr *Tree, cb OverlapFunc) { tr.InsertWrite(x, cb) })
			case 1:
				w.read(t, x, mixLeftOf, nil)
			default:
				w.apply(t, x, nil, func(tr *Tree, cb OverlapFunc) { tr.Query(x, cb) })
			}
		}
		for phase := 0; phase < 60; phase++ {
			k := rng.Intn(24) + 1
			stride := uint64(rng.Intn(40) + 1)
			length := uint64(rng.Intn(24) + 1)
			at := uint64(rng.Intn(space))
			switch rng.Intn(7) {
			case 0, 1: // ascending run
				for i := 0; i < k; i++ {
					do(Interval{Start: at, End: at + length})
					at += stride
				}
			case 2: // descending run
				for i := 0; i < k && at >= stride; i++ {
					do(Interval{Start: at, End: at + length})
					at -= stride
				}
			case 3: // scattered
				for i := 0; i < k; i++ {
					s := uint64(rng.Intn(space))
					do(Interval{Start: s, End: s + length})
				}
			case 4: // covering write over a populated stretch
				x := Interval{Start: at, End: at + uint64(rng.Intn(space/2)+64), Acc: acc}
				acc++
				w.apply(t, x, nil, func(tr *Tree, cb OverlapFunc) { tr.InsertWrite(x, cb) })
			case 5: // exact-match reads of every other stored interval, in order
				stored := intervals(w.tr)
				for i := 0; i < len(stored); i += 2 {
					x := stored[i]
					x.Acc = acc
					acc++
					w.read(t, x, mixLeftOf, nil)
				}
			default:
				if rng.Intn(4) == 0 {
					w.reset(rng.Intn(2) == 0)
				}
			}
		}
	}
}

// TestFingerMatchesRootWalkFewReaders is the read-only leg with four readers
// that keep coming back, in runs of touching intervals and scattered: reads
// meet nodes of their own reader on both sides and inside, so every join the
// walk makes — from the node before x, over taken-over nodes, into the node
// after it, wherever the finger left the climb — is compared against the root
// walk and the word oracle.
func TestFingerMatchesRootWalkFewReaders(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, o := newTwin(), newWordOracle()
		for phase := 0; phase < 40; phase++ {
			k := rng.Intn(16) + 1
			length := uint64(rng.Intn(12) + 1)
			stride := length + uint64(rng.Intn(3)) // touching, or a gap of one or two
			at := uint64(rng.Intn(1 << 10))
			scattered := rng.Intn(3) == 0
			for i := 0; i < k; i++ {
				if scattered {
					at = uint64(rng.Intn(1 << 10))
				}
				w.checkedRead(t, o, Interval{Start: at, End: at + length, Acc: int32(rng.Intn(4))}, mixLeftOf)
				at += stride
			}
			if rng.Intn(8) == 0 { // a covering read by one of the four
				s := uint64(rng.Intn(1 << 9))
				w.checkedRead(t, o, Interval{Start: s, End: s + 1<<9, Acc: int32(rng.Intn(4))}, mixLeftOf)
			}
		}
	}
}

// TestFingerClearedByResetAndDrop: both leave no finger behind, so a reused
// tree cannot start a walk at a node that went back to the pool.
func TestFingerClearedByResetAndDrop(t *testing.T) {
	for _, drop := range []bool{false, true} {
		w := newTwin()
		for i := uint64(0); i < 64; i++ {
			w.tr.InsertWrite(Interval{Start: i * 8, End: i*8 + 4, Acc: int32(i)}, nil)
		}
		if w.tr.finger == 0 {
			t.Fatal("an insert left no finger")
		}
		w.reset(drop)
		if w.tr.finger != 0 {
			t.Fatalf("drop=%v left a finger", drop)
		}
	}
}
