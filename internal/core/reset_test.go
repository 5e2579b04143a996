package core

import (
	"math/rand"
	"testing"
)

// shapeOf captures the exact structure of a tree — intervals, priorities,
// and topology — as a preorder fingerprint.
func shapeOf(t *Tree) []uint64 {
	var out []uint64
	var walk func(r ref)
	walk = func(r ref) {
		if r == 0 {
			out = append(out, 1<<40) // nil marker, above every field value, keeps topology in the fingerprint
			return
		}
		n := at(t.pool.base, r)
		out = append(out, uint64(n.start), uint64(n.end), uint64(n.acc), uint64(n.prio))
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	return out
}

func buildRandom(t *Tree, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		start := uint64(rng.Intn(1 << 15))
		iv := Interval{Start: start, End: start + uint64(rng.Intn(32)) + 1, Acc: int32(i)}
		if rng.Intn(2) == 0 {
			t.InsertWrite(iv, nil)
		} else {
			t.InsertRead(iv, func(a, b int32) bool { return a < b }, nil)
		}
	}
}

// TestTreeResetRederivesSeed pins the reuse-exactness property the paired
// Tree.Reset/Pool.Reset contract promises: after a Reset, replaying the
// same insertion sequence rebuilds a byte-identical tree — same intervals,
// same priorities, same topology — because the priority stream rewinds to
// the named seed.
func TestTreeResetRederivesSeed(t *testing.T) {
	pool := NewPool()
	tr := NewTreeIn(pool)
	buildRandom(tr, 42, 400)
	first := shapeOf(tr)
	if tr.rng == treapSeed {
		t.Fatal("priority stream never advanced")
	}

	tr.Reset()
	pool.Reset()
	if tr.rng != treapSeed {
		t.Fatalf("Reset left rng at %#x, want the seed %#x", tr.rng, uint64(treapSeed))
	}
	if tr.root != 0 || tr.size != 0 {
		t.Fatal("Reset left the tree non-empty")
	}
	if (tr.Stats() != Stats{}) {
		t.Fatalf("Reset left stats %+v", tr.Stats())
	}

	buildRandom(tr, 42, 400)
	second := shapeOf(tr)
	if len(first) != len(second) {
		t.Fatalf("replayed tree has different shape length: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replayed tree diverges at fingerprint index %d: %#x vs %#x",
				i, first[i], second[i])
		}
	}
}

// TestPoolResetRetainsCapacity checks the allocate-once side of the
// contract: a Reset pool re-carves the slab it already owns — same capacity
// after re-carving all of it — and, since Reset clears nothing, get hands
// every node out zeroed whatever the previous run left in its slot.
func TestPoolResetRetainsCapacity(t *testing.T) {
	pool := NewPool()
	tr := NewTreeIn(pool)
	buildRandom(tr, 7, 3000) // enough inserts to outgrow the first slab
	slab := pool.Stats().Cap
	if slab <= slabMinNodes {
		t.Fatalf("want the workload to grow the slab, got capacity %d", slab)
	}

	tr.Reset()
	pool.Reset()
	if got := pool.Stats(); got != (PoolStats{Cap: slab}) {
		t.Fatalf("Pool.Reset left %+v, want only capacity %d", got, slab)
	}
	if got := pool.LiveBytes(); got != 0 {
		t.Fatalf("Pool.Reset left %d live bytes", got)
	}
	// Every node handed out after Reset must honor the fresh-node contract.
	for i := 1; i < slab; i++ {
		if n := at(pool.base, pool.get()); *n != (node{}) {
			t.Fatalf("node %d carved dirty after Reset: %+v", i, *n)
		}
	}
	if got := pool.Stats().Cap; got != slab {
		t.Fatalf("re-carving the same volume grew the pool: %d -> %d", slab, got)
	}
}

// TestReusedTreeCountsLikeFresh extends reused-equals-fresh to the finger:
// a tree that was Reset (with its pool) or Dropped mid-run keeps no finger
// from its previous life, so replaying sorted runs — where the finger decides
// what is visited — charges exactly the counters a fresh tree does.
func TestReusedTreeCountsLikeFresh(t *testing.T) {
	replay := func(tr *Tree) Stats {
		rng := rand.New(rand.NewSource(11))
		lo := func(a, b int32) bool { return a < b }
		for run := 0; run < 60; run++ {
			at := uint64(rng.Intn(1 << 12))
			for i := 0; i < 20; i++ {
				iv := Interval{Start: at, End: at + uint64(rng.Intn(12)) + 1, Acc: int32(run)}
				switch run % 3 {
				case 0:
					tr.InsertWrite(iv, nil)
				case 1:
					tr.InsertRead(iv, lo, nil)
				default:
					tr.Query(iv, nil)
				}
				at += uint64(rng.Intn(24)) + 1
			}
		}
		tr.checkInvariants()
		return tr.Stats()
	}
	want := replay(NewTree())

	pool := NewPool()
	tr := NewTreeIn(pool)
	buildRandom(tr, 3, 300)
	tr.Reset()
	pool.Reset()
	if got := replay(tr); got != want {
		t.Errorf("after Reset: stats %+v, a fresh tree reports %+v", got, want)
	}
	tr.Drop()
	if got := replay(tr); got != want {
		t.Errorf("after Drop: stats %+v, a fresh tree reports %+v", got, want)
	}
}
