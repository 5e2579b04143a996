package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomInterval draws an interval over a bounded address space so that
// overlaps are frequent.
func randomInterval(rng *rand.Rand, space uint64, acc int32) Interval {
	s := rng.Uint64() % space
	length := uint64(rng.Intn(int(space/8))) + 1
	e := s + length
	if e > space {
		e = space
	}
	if e == s {
		e = s + 1
	}
	return Interval{Start: s, End: e, Acc: acc}
}

func runRandomWriteSession(t *testing.T, seed int64, ops int, space uint64) {
	rng := rand.New(rand.NewSource(seed))
	tr := newTestTree()
	o := newWordOracle()
	for i := 0; i < ops; i++ {
		iv := randomInterval(rng, space, int32(i))
		if rng.Intn(4) == 0 {
			checkedQuery(t, tr, o, randomInterval(rng, space, -1))
		}
		checkedWrite(t, tr, o, iv)
		if tr.Size() > 2*(i+1)+1 {
			t.Fatalf("seed %d: write-tree size %d exceeds 2m+1 at m=%d", seed, tr.Size(), i+1)
		}
	}
}

func runRandomReadSession(t *testing.T, seed int64, ops int, space uint64) {
	rng := rand.New(rand.NewSource(seed))
	tr := newTestTree()
	o := newWordOracle()
	// Random strict total order over accessors via random distinct ranks.
	rank := make(map[int32]int)
	lo := func(a, b int32) bool { return rank[a] > rank[b] }
	perm := rng.Perm(ops + 1)
	for i := 0; i < ops; i++ {
		acc := int32(i)
		rank[acc] = perm[i]
		iv := randomInterval(rng, space, acc)
		if rng.Intn(4) == 0 {
			checkedQuery(t, tr, o, randomInterval(rng, space, -1))
		}
		checkedRead(t, tr, o, iv, lo)
		if tr.Size() > 2*(i+1)+1 {
			t.Fatalf("seed %d: read-tree size %d exceeds 2m+1 at m=%d", seed, tr.Size(), i+1)
		}
	}
}

func TestRandomWriteSessions(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		runRandomWriteSession(t, seed, 120, 400)
	}
}

func TestRandomReadSessions(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		runRandomReadSession(t, seed, 120, 400)
	}
}

func TestRandomMixedSessions(t *testing.T) {
	// Reads and writes share nothing (separate trees in the detector), but a
	// mixed session on one tree still must preserve all invariants; this
	// models a single tree being used for both polarity-specific updates.
	for seed := int64(100); seed < 115; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wt, rt := newTestTree(), newTestTree()
		wo, ro := newWordOracle(), newWordOracle()
		rank := make(map[int32]int)
		perm := rng.Perm(400)
		lo := func(a, b int32) bool { return rank[a] > rank[b] }
		for i := 0; i < 150; i++ {
			acc := int32(i)
			rank[acc] = perm[i]
			iv := randomInterval(rng, 300, acc)
			switch rng.Intn(3) {
			case 0:
				checkedWrite(t, wt, wo, iv)
			case 1:
				checkedRead(t, rt, ro, iv, lo)
			default:
				checkedQuery(t, wt, wo, iv)
				checkedQuery(t, rt, ro, iv)
			}
		}
	}
}

func TestQuickWriteProjection(t *testing.T) {
	f := func(seed int64, opsRaw uint8, spaceRaw uint8) bool {
		ops := int(opsRaw%60) + 5
		space := uint64(spaceRaw%200) + 32
		rng := rand.New(rand.NewSource(seed))
		tr := newTestTree()
		o := newWordOracle()
		for i := 0; i < ops; i++ {
			iv := randomInterval(rng, space, int32(i))
			tr.InsertWrite(iv, nil)
			o.applyWrite(iv)
		}
		tr.checkInvariants()
		got := project(tr)
		if len(got) != len(o.bytes) {
			return false
		}
		for b, acc := range o.bytes {
			if got[b] != acc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReadProjection(t *testing.T) {
	f := func(seed int64, opsRaw uint8, spaceRaw uint8) bool {
		ops := int(opsRaw%60) + 5
		space := uint64(spaceRaw%200) + 32
		rng := rand.New(rand.NewSource(seed))
		tr := newTestTree()
		o := newWordOracle()
		rank := rng.Perm(ops)
		lo := func(a, b int32) bool { return rank[a] > rank[b] }
		for i := 0; i < ops; i++ {
			iv := randomInterval(rng, space, int32(i))
			tr.InsertRead(iv, lo, nil)
			o.applyRead(iv, lo)
		}
		tr.checkInvariants()
		got := project(tr)
		if len(got) != len(o.bytes) {
			return false
		}
		for b, acc := range o.bytes {
			if got[b] != acc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicPriorities(t *testing.T) {
	// Two trees fed the same operations must have identical shapes: the
	// priority stream is deterministic, keeping benchmark runs reproducible.
	build := func() *Tree {
		tr := newTestTree()
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 200; i++ {
			tr.InsertWrite(randomInterval(rng, 1000, int32(i)), nil)
		}
		return tr
	}
	a, b := build(), build()
	if a.Height() != b.Height() || a.Size() != b.Size() {
		t.Fatalf("non-deterministic shape: (%d,%d) vs (%d,%d)", a.Height(), a.Size(), b.Height(), b.Size())
	}
	ai, bi := intervals(a), intervals(b)
	for i := range ai {
		if ai[i] != bi[i] {
			t.Fatalf("contents diverge at %d: %v vs %v", i, ai[i], bi[i])
		}
	}
}

func BenchmarkInsertWriteDisjoint(b *testing.B) {
	const n = 1 << 15 // disjoint unit intervals one tree's span holds
	tr := NewTree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			tr.Reset()
			tr.pool.Reset()
		}
		s := uint64(i%n) * 2
		tr.InsertWrite(Interval{s, s + 1, int32(i)}, nil)
	}
}

func BenchmarkInsertWriteOverlapping(b *testing.B) {
	tr := NewTree()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := rng.Uint64() % (1 << 15)
		tr.InsertWrite(Interval{s, s + 16, int32(i)}, nil)
	}
}

func BenchmarkQueryHit(b *testing.B) {
	const n = 1 << 15
	tr := NewTree()
	for i := 0; i < n; i++ {
		tr.InsertWrite(Interval{uint64(i) * 2, uint64(i)*2 + 1, int32(i)}, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := uint64(i%n) * 2
		tr.Query(Interval{s, s + 1, 0}, nil)
	}
}
