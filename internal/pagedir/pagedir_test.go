package pagedir

import (
	"math/rand"
	"testing"
)

type payload struct{ v int }

func TestZeroValueGet(t *testing.T) {
	var d Dir[payload]
	if d.Get(0) != nil || d.Get(42) != nil {
		t.Fatal("empty directory returned a page")
	}
	if d.Len() != 0 || d.Cap() != 0 {
		t.Fatalf("empty directory: len %d cap %d", d.Len(), d.Cap())
	}
}

func TestPutGetReplace(t *testing.T) {
	var d Dir[payload]
	a, b := &payload{1}, &payload{2}
	d.Put(5, a)
	if d.Get(5) != a {
		t.Fatal("Get after Put returned wrong page")
	}
	d.Put(5, b)
	if d.Get(5) != b {
		t.Fatal("Put did not replace")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

// TestPutOverKeyInProbeChain: replacing keys one by one, some of them
// displaced from their home slot along a probe chain (how a history retires
// a page: its sentinel over the page), keeps Len, and Get and Range see each
// new value and every other key's.
func TestPutOverKeyInProbeChain(t *testing.T) {
	var d Dir[payload]
	pages := make([]*payload, 12) // 12 keys in 16 slots
	for i := range pages {
		pages[i] = &payload{i}
		d.Put(uint64(i)<<16, pages[i])
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
	sentinel := &payload{-1}
	for k := range pages {
		d.Put(uint64(k)<<16, sentinel)
		pages[k] = sentinel
		if d.Len() != len(pages) {
			t.Fatalf("Put over key %d: Len %d, want %d", k, d.Len(), len(pages))
		}
		d.Range(func(k uint64, v *payload) {
			if pages[k>>16] != v || d.Get(k) != v {
				t.Fatalf("key %d: Range %v, Get %v, want %v", k>>16, v, d.Get(k), pages[k>>16])
			}
		})
	}
}

func TestKeyZeroIsValid(t *testing.T) {
	var d Dir[payload]
	p := &payload{9}
	d.Put(0, p)
	if d.Get(0) != p {
		t.Fatal("key 0 not stored")
	}
}

func TestNilPagePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("storing nil did not panic")
		}
	}()
	var d Dir[payload]
	d.Put(1, nil)
}

// TestRandomAgainstMap grows the directory through many doublings with
// adversarially clustered keys (sequential page indices, the common case
// for address prefixes) and random ones, comparing against a map.
func TestRandomAgainstMap(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var d Dir[payload]
		ref := map[uint64]*payload{}
		for i := 0; i < 5000; i++ {
			var k uint64
			if rng.Intn(2) == 0 {
				k = uint64(i / 2) // sequential cluster
			} else {
				k = rng.Uint64()
			}
			p := &payload{i}
			d.Put(k, p)
			ref[k] = p
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
		if d.Len() != len(ref) {
			t.Fatalf("seed %d: Len %d, map %d", seed, d.Len(), len(ref))
		}
		if 4*d.Len() > 3*d.Cap() {
			t.Fatalf("seed %d: load factor above 3/4: %d/%d", seed, d.Len(), d.Cap())
		}
		seen := 0
		d.Range(func(k uint64, v *payload) {
			seen++
			if ref[k] != v {
				t.Fatalf("seed %d: Range yielded wrong page for %d", seed, k)
			}
		})
		if seen != len(ref) {
			t.Fatalf("seed %d: Range visited %d, want %d", seed, seen, len(ref))
		}
	}
}

func TestResetReleasesAllAndKeepsCapacity(t *testing.T) {
	var d Dir[payload]
	for i := uint64(0); i < 100; i++ {
		d.Put(i, &payload{int(i)})
	}
	capBefore := d.Cap()
	var released []*payload
	d.Reset(func(p *payload) { released = append(released, p) })
	if len(released) != 100 {
		t.Fatalf("released %d pages, want 100", len(released))
	}
	if d.Len() != 0 || d.Cap() != capBefore {
		t.Fatalf("after reset: len %d cap %d (was %d)", d.Len(), d.Cap(), capBefore)
	}
	for i := uint64(0); i < 100; i++ {
		if d.Get(i) != nil {
			t.Fatalf("key %d survived reset", i)
		}
	}
	// Refill at retained capacity.
	d.Put(7, &payload{7})
	if d.Get(7) == nil || d.Cap() != capBefore {
		t.Fatal("refill after reset misbehaved")
	}
}
