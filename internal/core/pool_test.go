package core

import (
	"math/rand"
	"testing"
)

// reachableNodes collects the identity of every node linked under the root.
func (t *Tree) reachableNodes() map[ref]bool {
	seen := make(map[ref]bool)
	var rec func(r ref)
	rec = func(r ref) {
		if r == 0 {
			return
		}
		if seen[r] {
			panic("core: node reachable twice")
		}
		seen[r] = true
		rec(at(t.pool.base, r).left)
		rec(at(t.pool.base, r).right)
	}
	rec(t.root)
	return seen
}

// freeNodes collects the identity of every node on the free list.
func (t *Tree) freeNodes() map[ref]bool {
	seen := make(map[ref]bool)
	for r := t.pool.free; r != 0; r = at(t.pool.base, r).right {
		if seen[r] {
			panic("core: free list cycle")
		}
		seen[r] = true
	}
	return seen
}

// TestPoolNeverAliasesLiveNodes drives randomized write/read insertions —
// both feed the free list: RemoveOverlap, and reads taking nodes over — and
// checks after every operation that the free list and the live tree are
// disjoint, that free-list accounting matches, and that every node lies in
// the slab.
func TestPoolNeverAliasesLiveNodes(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTree()
		leftOf := func(a, b int32) bool { return a < b }
		for op := 0; op < 400; op++ {
			iv := randomInterval(rng, 1<<12, int32(op))
			if rng.Intn(2) == 0 {
				tr.InsertWrite(iv, nil)
			} else {
				tr.InsertRead(iv, leftOf, nil)
			}
			tr.checkInvariants()
			live := tr.reachableNodes()
			free := tr.freeNodes()
			for n := range free {
				if live[n] {
					t.Fatalf("seed %d op %d: node %#x is both live and on the free list", seed, op, n)
				}
			}
			ps := tr.pool.Stats()
			if len(free) != ps.Free {
				t.Fatalf("seed %d op %d: free list has %d nodes, PoolStats.Free = %d", seed, op, len(free), ps.Free)
			}
			if len(live) != tr.Size() {
				t.Fatalf("seed %d op %d: %d reachable nodes, Size = %d", seed, op, len(live), tr.Size())
			}
			if got, want := len(live)+ps.Free, int(ps.Served-ps.Recycled); got != want {
				t.Fatalf("seed %d op %d: live+free = %d, slab draws = %d", seed, op, got, want)
			}
			if got, want := tr.pool.LiveBytes(), uint64(len(live))*NodeBytes; got != want {
				t.Fatalf("seed %d op %d: LiveBytes = %d, %d reachable nodes are %d", seed, op, got, len(live), want)
			}
			for n := range live {
				if n == 0 || uint64(n)%NodeBytes != 0 || int(uint64(n)/NodeBytes) >= ps.Cap {
					t.Fatalf("seed %d op %d: ref %#x is not a node of a %d-node slab", seed, op, n, ps.Cap)
				}
			}
		}
	}
}

// TestPoolRecyclesUnderChurn checks that steady-state insert/remove churn is
// served by the free list rather than by growing the slab: overwriting the
// same address range forever must not grow the pool.
func TestPoolRecyclesUnderChurn(t *testing.T) {
	tr := NewTree()
	for i := 0; i < 10000; i++ {
		base := uint64(i%64) * 8
		tr.InsertWrite(Interval{Start: base, End: base + 16, Acc: int32(i)}, nil)
	}
	ps := tr.pool.Stats()
	if ps.Cap != slabMinNodes {
		t.Fatalf("steady-state churn grew the slab to %d nodes (stats %+v)", ps.Cap, ps)
	}
	if ps.Recycled == 0 {
		t.Fatal("churn never recycled a node")
	}
	tr.checkInvariants()
}

// TestPoolStatsBytes sanity-checks the footprint accounting.
func TestPoolStatsBytes(t *testing.T) {
	tr := NewTree()
	if got := tr.pool.Stats(); got != (PoolStats{Cap: slabMinNodes}) || tr.pool.LiveBytes() != 0 {
		t.Fatalf("empty tree reports %+v, %d live bytes", got, tr.pool.LiveBytes())
	}
	tr.InsertWrite(Interval{Start: 0, End: 4, Acc: 1}, nil)
	if ps := tr.pool.Stats(); ps.Cap != slabMinNodes || tr.pool.LiveBytes() != NodeBytes {
		t.Fatalf("after one insert: %+v, %d live bytes", ps, tr.pool.LiveBytes())
	}
}
