package pagedir

import (
	"math/rand"
	"testing"
)

type payload struct{ v int }

func TestZeroValueGet(t *testing.T) {
	var d Dir[payload]
	if d.Get(0) != nil || d.Get(42) != nil || d.Last(0) != nil {
		t.Fatal("empty directory returned a page")
	}
	if d.Live() != 0 || d.Cap() != 0 || d.Made() != 0 || d.Parked() != 0 {
		t.Fatalf("empty directory: live %d cap %d made %d parked %d", d.Live(), d.Cap(), d.Made(), d.Parked())
	}
}

// TestBindGet: the first Bind of an index makes a fresh zero page and
// caches it; later Binds and Gets return the same page, not fresh.
func TestBindGet(t *testing.T) {
	var d Dir[payload]
	a, fresh := d.Bind(5)
	if a == nil || !fresh || a.v != 0 {
		t.Fatalf("first Bind: %v fresh %v, want a fresh zero page", a, fresh)
	}
	a.v = 1
	if d.Last(5) != a || d.Last(6) != nil {
		t.Fatal("Bind did not cache its page")
	}
	if p, fresh := d.Bind(5); p != a || fresh {
		t.Fatalf("second Bind: %v fresh %v, want the bound page", p, fresh)
	}
	if d.Get(5) != a || d.Live() != 1 || d.Made() != 1 {
		t.Fatalf("Get %v, live %d, made %d", d.Get(5), d.Live(), d.Made())
	}
}

// TestRetireOverKeyInProbeChain: retiring keys one by one, some of them
// displaced from their home slot along a probe chain, writes the sentinel
// over each key without breaking the chain: Get sees the sentinel there and
// every other key's page, Range skips the sentinel, Live falls and the
// retired pages are parked.
func TestRetireOverKeyInProbeChain(t *testing.T) {
	var d Dir[payload]
	pages := make([]*payload, 12) // 12 keys in 16 slots
	for i := range pages {
		pages[i], _ = d.Bind(uint64(i) << 16)
		pages[i].v = i
	}
	displaced := 0
	for i, v := range d.vals {
		if v != nil && d.home(d.keys[i]) != uint64(i) {
			displaced++
		}
	}
	if displaced == 0 || d.Cap() != 16 {
		t.Fatalf("%d keys displaced in %d slots: no probe chain to test", displaced, d.Cap())
	}
	dead := &payload{-1}
	for k := range pages {
		d.Retire(uint64(k)<<16, dead)
		d.Retire(uint64(k)<<16, dead) // a second Retire is a no-op
		pages[k] = dead
		if d.Live() != len(pages)-k-1 || d.Parked() != k+1 {
			t.Fatalf("Retire key %d: live %d parked %d, want %d %d", k, d.Live(), d.Parked(), len(pages)-k-1, k+1)
		}
		if d.Last(uint64(k)<<16) != dead {
			t.Fatalf("Retire key %d did not cache the sentinel", k)
		}
		for j, want := range pages {
			if got := d.Get(uint64(j) << 16); got != want {
				t.Fatalf("after retiring key %d: Get(%d) = %v, want %v", k, j, got, want)
			}
		}
		d.Range(func(key uint64, v *payload) {
			if v == dead || pages[key>>16] != v {
				t.Fatalf("key %d: Range %v, want %v", key>>16, v, pages[key>>16])
			}
		})
	}
	if p, fresh := d.Bind(3 << 16); p != dead || fresh {
		t.Fatal("Bind brought a retired key back")
	}
}

func TestKeyZeroIsValid(t *testing.T) {
	var d Dir[payload]
	p, _ := d.Bind(0)
	if d.Get(0) != p || d.Last(0) != p || d.Live() != 1 {
		t.Fatal("key 0 not stored")
	}
}

// TestRandomAgainstMap grows the directory through many doublings with
// adversarially clustered keys (sequential page indices, the common case
// for address prefixes) and random ones, retiring some on the way,
// comparing against a map.
func TestRandomAgainstMap(t *testing.T) {
	dead := &payload{-1}
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var d Dir[payload]
		ref := map[uint64]*payload{}
		retired := 0
		for i := 0; i < 5000; i++ {
			var k uint64
			if rng.Intn(2) == 0 {
				k = uint64(i / 2) // sequential cluster
			} else {
				k = rng.Uint64()
			}
			p, fresh := d.Bind(k)
			if fresh != (ref[k] == nil) {
				t.Fatalf("seed %d: Bind(%d) fresh %v, map has %v", seed, k, fresh, ref[k])
			}
			if ref[k] != nil && ref[k] != p {
				t.Fatalf("seed %d: Bind(%d) = %v, want %v", seed, k, p, ref[k])
			}
			ref[k] = p
			if p != dead && rng.Intn(6) == 0 {
				d.Retire(k, dead)
				ref[k] = dead
				retired++
			}
			if rng.Intn(8) == 0 {
				probe := k
				if rng.Intn(2) == 0 {
					probe = rng.Uint64()
				}
				if got, want := d.Get(probe), ref[probe]; got != want {
					t.Fatalf("seed %d: Get(%d) = %v, want %v", seed, probe, got, want)
				}
			}
		}
		if d.Live() != len(ref)-retired || d.Made() != d.Live()+d.Parked() {
			t.Fatalf("seed %d: live %d made %d parked %d, map %d with %d retired",
				seed, d.Live(), d.Made(), d.Parked(), len(ref), retired)
		}
		if 4*len(ref) > 3*d.Cap() {
			t.Fatalf("seed %d: load factor above 3/4: %d/%d", seed, len(ref), d.Cap())
		}
		seen := 0
		d.Range(func(k uint64, v *payload) {
			seen++
			if ref[k] != v {
				t.Fatalf("seed %d: Range yielded wrong page for %d", seed, k)
			}
		})
		if seen != len(ref)-retired {
			t.Fatalf("seed %d: Range visited %d, want %d", seed, seen, len(ref)-retired)
		}
	}
}

// TestResetReleasesAllAndKeepsCapacity: Reset releases and parks every live
// page, not the sentinel, empties the directory and its cache, and keeps its
// capacity; the refill binds the parked pages again, fresh, allocating
// nothing.
func TestResetReleasesAllAndKeepsCapacity(t *testing.T) {
	var d Dir[payload]
	dead := &payload{-1}
	for i := uint64(0); i < 100; i++ {
		p, _ := d.Bind(i)
		p.v = int(i)
	}
	d.Retire(7, dead)
	capBefore := d.Cap()
	var released []*payload
	d.Reset(func(p *payload) { released = append(released, p) })
	if len(released) != 99 || d.Parked() != 100 {
		t.Fatalf("released %d pages, parked %d, want 99, 100", len(released), d.Parked())
	}
	if d.Live() != 0 || d.Cap() != capBefore || d.Made() != 100 || d.Last(99) != nil {
		t.Fatalf("after reset: live %d cap %d (was %d) made %d", d.Live(), d.Cap(), capBefore, d.Made())
	}
	for i := uint64(0); i < 100; i++ {
		if d.Get(i) != nil {
			t.Fatalf("key %d survived reset", i)
		}
	}
	i := uint64(0)
	refill := func() {
		if _, fresh := d.Bind(1000 + i); !fresh {
			t.Fatal("a refilled key bound a page that was not fresh")
		}
		i++
	}
	if n := testing.AllocsPerRun(99, refill); n != 0 || d.Made() != 100 || d.Cap() != capBefore {
		t.Fatalf("refill: %v allocations, made %d, cap %d (was %d)", n, d.Made(), d.Cap(), capBefore)
	}
}

// TestBindReusesParkedPage: a page parked by Retire comes back, fresh, for
// the next new key, and only an empty freelist makes a new page.
func TestBindReusesParkedPage(t *testing.T) {
	var d Dir[payload]
	dead := &payload{-1}
	a, _ := d.Bind(1)
	a.v = 1
	d.Retire(1, dead)
	if p, fresh := d.Bind(2); p != a || !fresh || d.Made() != 1 || d.Parked() != 0 {
		t.Fatalf("Bind(2) = %v fresh %v, made %d: want the parked page, fresh", p, fresh, d.Made())
	}
	if p, fresh := d.Bind(3); p == a || !fresh || d.Made() != 2 {
		t.Fatalf("Bind(3) = %v fresh %v, made %d: want a new page", p, fresh, d.Made())
	}
}

// TestFindFillsCache: Find caches a bound page, or the sentinel of a
// retired one, and a miss binds nothing, answers nil from Last and leaves
// the cache as it was.
func TestFindFillsCache(t *testing.T) {
	var d Dir[payload]
	dead := &payload{-1}
	a, _ := d.Bind(1)
	d.Bind(2)
	d.Bind(3)
	d.Retire(3, dead)
	if d.Find(1) != a || d.Last(1) != a {
		t.Fatal("Find did not cache a bound page")
	}
	if d.Find(3) != dead || d.Last(3) != dead {
		t.Fatal("Find did not cache a retired page's sentinel")
	}
	if d.Find(4) != nil || d.Last(4) != nil || d.Last(3) != dead || d.Live() != 2 || d.Made() != 3 {
		t.Fatalf("Find on an unbound index: live %d made %d", d.Live(), d.Made())
	}
}

// TestIdlePageFillsAnEmptyCache: with an idle page set, the cache holds it
// under NoKey whenever it holds no page — at first, after Reset, after a
// miss — so Last still answers nil and Bind never hands it out.
func TestIdlePageFillsAnEmptyCache(t *testing.T) {
	var d Dir[payload]
	idle := &payload{-2}
	d.Idle(idle)
	empty := func(when string) {
		t.Helper()
		if d.LastKey != NoKey || d.LastPage != idle || d.Last(0) != nil {
			t.Fatalf("%s: cache holds (%#x, %v), want (NoKey, idle)", when, d.LastKey, d.LastPage)
		}
	}
	empty("fresh")
	if d.Find(0) != nil {
		t.Fatal("Find(0) on an empty Dir")
	}
	empty("after a miss")
	if p, _ := d.Bind(0); p == idle || d.LastKey != 0 || d.LastPage != p {
		t.Fatal("Bind(0) handed out or did not cache its page")
	}
	d.Reset(nil)
	empty("after Reset")
	if p, _ := d.Bind(1); p == idle {
		t.Fatal("Bind handed out the idle page after Reset")
	}
}

// TestGetNeverFillsCache: Get reads the cache but a miss leaves it as it
// was, so a caller outside the owner's hot loop cannot move it.
func TestGetNeverFillsCache(t *testing.T) {
	var d Dir[payload]
	a, _ := d.Bind(1)
	b, _ := d.Bind(2)
	if d.Get(1) != a || d.Last(1) != nil || d.Last(2) != b {
		t.Fatal("Get moved the cache")
	}
}
