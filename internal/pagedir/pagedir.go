// Package pagedir provides the first-level page directory shared by the
// access-history shadow structures: an open-addressed hash table from page
// indices (address prefixes) to lazily allocated second-level pages.
//
// The paper's artifact uses a flat first-level array; a Go map[uint64]*page
// stands in for it in the seed implementation but pays bucket allocations,
// hash-interface overhead, and pointer-chasing on every miss of the
// one-entry cache in front of it. Dir replaces the map with a power-of-two
// table using multiplicative (Fibonacci) hashing and linear probing, grown
// at 3/4 load. It is insert-only — detectors never delete individual pages
// (a history retires one by storing its own dead sentinel over it, so the
// key stays in its probe chain and the cache in front of the directory
// answers "dead" like any other page); whole-table reuse goes through
// Reset, which hands every page back to the caller (typically a freelist)
// and keeps the table's capacity.
package pagedir

// fibMult is the 64-bit Fibonacci hashing constant (2^64 / phi, odd).
const fibMult = 0x9E3779B97F4A7C15

// minCap is the initial capacity on first insert. Page indices are address
// prefixes, so even small workloads touch a handful of pages; starting at 16
// avoids the first couple of growth steps without wasting memory.
const minCap = 16

// Dir maps uint64 page indices to *P. The zero value is an empty directory.
// A nil *P cannot be stored: vals[i] == nil marks an empty slot.
type Dir[P any] struct {
	keys  []uint64
	vals  []*P
	shift uint // 64 - log2(len(vals)); hash top bits select the home slot
	n     int  // occupied slots
}

// Len returns the number of pages stored.
func (d *Dir[P]) Len() int { return d.n }

// Cap returns the current slot capacity (0 before the first Put).
func (d *Dir[P]) Cap() int { return len(d.vals) }

func (d *Dir[P]) home(key uint64) uint64 {
	return (key * fibMult) >> d.shift
}

// Get returns the page stored for key, or nil.
func (d *Dir[P]) Get(key uint64) *P {
	if d.n == 0 {
		return nil
	}
	mask := uint64(len(d.vals) - 1)
	for i := d.home(key); ; i = (i + 1) & mask {
		v := d.vals[i]
		if v == nil {
			return nil
		}
		if d.keys[i] == key {
			return v
		}
	}
}

// Put stores v (which must be non-nil) for key, replacing any existing
// entry.
func (d *Dir[P]) Put(key uint64, v *P) {
	if v == nil {
		panic("pagedir: nil page")
	}
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

// Range calls fn for every stored (key, page) pair in unspecified order.
func (d *Dir[P]) Range(fn func(key uint64, v *P)) {
	if d.n == 0 {
		return
	}
	for i, v := range d.vals {
		if v != nil {
			fn(d.keys[i], v)
		}
	}
}

// Reset empties the directory, invoking release (if non-nil) on every stored
// page so the caller can recycle it. Capacity is retained, making
// Reset+refill allocation-free.
func (d *Dir[P]) Reset(release func(*P)) {
	if d.n == 0 {
		return
	}
	for i, v := range d.vals {
		if v != nil {
			if release != nil {
				release(v)
			}
			d.vals[i] = nil
		}
	}
	d.n = 0
}

func log2(v uint) uint {
	var b uint
	for v > 1 {
		v >>= 1
		b++
	}
	return b
}
