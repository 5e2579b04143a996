// Package pagedir is the one page lifecycle of every two-level shadow
// structure in the detector: the §3.2 bit hashmap (internal/coalesce), the
// vanilla shadow table (internal/shadow) and STINT's per-page treaps
// (internal/detect). Each maps a page index (an address prefix) to a lazily
// bound second-level page, and each wants the same things around that map:
// a one-entry cache in front of it, a freelist so a warm structure binds
// parked pages instead of allocating, a dead sentinel for a retired page,
// and a Reset that parks every page and keeps the capacity.
//
// The paper's artifact uses a flat first-level array; a Go map[uint64]*page
// stood in for it in the seed implementation but paid bucket allocations,
// hash-interface overhead, and pointer-chasing on every miss of the cache.
// Dir's table is a power-of-two array using multiplicative (Fibonacci)
// hashing and linear probing, grown at 3/4 load. It is insert-only: a page
// is retired by storing its owner's dead sentinel over it, so the key stays
// in its probe chain and the cache answers "dead" like any other page.
package pagedir

// fibMult is the 64-bit Fibonacci hashing constant (2^64 / phi, odd).
const fibMult = 0x9E3779B97F4A7C15

// minCap is the initial capacity on first insert. Page indices are address
// prefixes, so even small workloads touch a handful of pages; starting at 16
// avoids the first couple of growth steps without wasting memory.
const minCap = 16

// Dir maps uint64 page indices to *P and owns the pages' lifecycle. The
// zero value is an empty directory. The cache sits first so that a hot
// caller's inline probe reads the Dir's first two words.
type Dir[P any] struct {
	// Last's one entry, exported for an inline arm (a call to Last costs 14
	// of its budget of 80) and written only by Dir: LastPage is bound to
	// LastKey, or LastKey is NoKey and LastPage is idle (nil unless Idle).
	LastKey  uint64
	LastPage *P
	idle     *P
	keys     []uint64
	vals     []*P // nil marks an empty slot
	shift    uint // 64 - log2(len(vals)); hash top bits select the home slot
	n        int  // occupied slots
	free     []*P // parked pages, handed out again by Bind
	dead     *P   // the owner's sentinel, from the last Retire
	retired  int  // slots holding dead
	made     int  // pages ever allocated (live plus parked)
}

// NoKey is LastKey while the cache holds no page: no address prefix.
const NoKey = ^uint64(0)

// Idle sets, on an empty Dir, the page the cache holds while it holds none,
// so an arm may read LastPage before it tests LastKey. Dir never writes it.
func (d *Dir[P]) Idle(p *P) { d.idle, d.LastKey, d.LastPage = p, NoKey, p }

// Last returns the page bound to idx if idx is the page asked for last,
// and nil otherwise. It is the hot path's inline probe: call Bind on nil.
func (d *Dir[P]) Last(idx uint64) *P {
	if idx == d.LastKey {
		return d.LastPage
	}
	return nil
}

// Bind returns the page bound to idx, binding one first if there is none:
// a parked page if any, else a new zero P. fresh reports a newly bound page,
// which its owner must initialize. A retired idx returns its sentinel. The
// result becomes the cached last page.
func (d *Dir[P]) Bind(idx uint64) (p *P, fresh bool) {
	if p = d.Last(idx); p != nil {
		return p, false
	}
	if p = d.Find(idx); p != nil {
		return p, false
	}
	if n := len(d.free); n > 0 {
		p = d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
	} else {
		p = new(P)
		d.made++
	}
	d.put(idx, p)
	d.LastKey, d.LastPage = idx, p
	return p, true
}

// Find returns the page bound to idx (a retired idx's sentinel) and caches
// it, or nil, leaving the cache, if idx holds none. It inlines, so a hot
// caller that probes Find before Bind pays no call on a cache miss.
func (d *Dir[P]) Find(idx uint64) *P {
	p := d.get(idx)
	if p != nil {
		d.LastKey, d.LastPage = idx, p
	}
	return p
}

// Get returns the page bound to idx (a retired idx's sentinel), or nil. It
// reads the cache but never fills it, so a caller outside the owner's hot
// loop cannot move the owner's cache.
func (d *Dir[P]) Get(idx uint64) *P {
	if p := d.Last(idx); p != nil {
		return p
	}
	return d.get(idx)
}

// Retire parks the page bound to idx and writes the sentinel dead over its
// key, so idx reads as dead until Reset. It is a no-op if idx holds no live
// page. Every Retire of one Dir must pass the same sentinel.
func (d *Dir[P]) Retire(idx uint64, dead *P) {
	p := d.get(idx)
	if p == nil || p == dead {
		return
	}
	d.put(idx, dead)
	d.free = append(d.free, p)
	d.dead = dead
	d.retired++
	d.LastKey, d.LastPage = idx, dead
}

// Range calls fn for every live (key, page) pair in unspecified order; the
// sentinel is skipped.
func (d *Dir[P]) Range(fn func(key uint64, p *P)) {
	for i, v := range d.vals {
		if v != nil && v != d.dead {
			fn(d.keys[i], v)
		}
	}
}

// Reset parks every live page, calling release (if non-nil) on each first
// so the owner can clean it, and empties the directory and its cache. The
// table's capacity and every page are kept, so Reset+refill allocates
// nothing.
func (d *Dir[P]) Reset(release func(*P)) {
	if d.n > 0 {
		for i, v := range d.vals {
			if v == nil {
				continue
			}
			if v != d.dead {
				if release != nil {
					release(v)
				}
				d.free = append(d.free, v)
			}
			d.vals[i] = nil
		}
	}
	d.n, d.retired = 0, 0
	d.LastKey, d.LastPage = NoKey, d.idle
}

// Live returns the number of bound pages, retired ones excluded.
func (d *Dir[P]) Live() int { return d.n - d.retired }

// Made returns the number of pages ever allocated: live plus parked.
func (d *Dir[P]) Made() int { return d.made }

// Parked returns the number of pages waiting on the freelist.
func (d *Dir[P]) Parked() int { return len(d.free) }

// Cap returns the current slot capacity (0 before the first Bind).
func (d *Dir[P]) Cap() int { return len(d.vals) }

func (d *Dir[P]) home(key uint64) uint64 {
	return (key * fibMult) >> d.shift
}

// get probes for key. An empty slot ends the probe and returns its nil,
// whatever its stale key; an empty table has no slot to probe. The home
// slot is written out so that Find stays within the inlining budget.
func (d *Dir[P]) get(key uint64) *P {
	n := uint64(len(d.vals))
	for i := key * fibMult >> d.shift; i < n; i = (i + 1) & (n - 1) {
		if v := d.vals[i]; v == nil || d.keys[i] == key {
			return v
		}
	}
	return nil
}

// put stores v (non-nil) for key, replacing any existing entry.
func (d *Dir[P]) put(key uint64, v *P) {
	if 4*(d.n+1) > 3*len(d.vals) {
		d.grow()
	}
	mask := uint64(len(d.vals) - 1)
	for i := d.home(key); ; i = (i + 1) & mask {
		if d.vals[i] == nil {
			d.keys[i], d.vals[i] = key, v
			d.n++
			return
		}
		if d.keys[i] == key {
			d.vals[i] = v
			return
		}
	}
}

// grow doubles the capacity (or allocates the initial table) and rehashes
// every entry. Linear probing with no deletions keeps this a straight
// reinsert.
func (d *Dir[P]) grow() {
	newCap := minCap
	if len(d.vals) > 0 {
		newCap = 2 * len(d.vals)
	}
	oldKeys, oldVals := d.keys, d.vals
	d.keys = make([]uint64, newCap)
	d.vals = make([]*P, newCap)
	d.shift = 64 - log2(uint(newCap))
	mask := uint64(newCap - 1)
	for i, v := range oldVals {
		if v == nil {
			continue
		}
		k := oldKeys[i]
		j := d.home(k)
		for d.vals[j] != nil {
			j = (j + 1) & mask
		}
		d.keys[j], d.vals[j] = k, v
	}
}

func log2(v uint) uint {
	var b uint
	for v > 1 {
		v >>= 1
		b++
	}
	return b
}
