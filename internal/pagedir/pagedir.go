// Package pagedir provides the first-level page directory shared by the
// access-history shadow structures: an open-addressed hash table from page
// indices (address prefixes) to lazily allocated second-level pages.
//
// The paper's artifact uses a flat first-level array; a Go map[uint64]*page
// stands in for it in the seed implementation but pays bucket allocations,
// hash-interface overhead, and pointer-chasing on every miss of the
// one-entry cache in front of it. Dir replaces the map with a power-of-two
// table using multiplicative (Fibonacci) hashing and linear probing, grown
// at 3/4 load. It is insert-only — detectors never delete individual pages;
// whole-table reuse goes through Reset, which hands every page back to the
// caller (typically a freelist) and keeps the table's capacity.
package pagedir

// fibMult is the 64-bit Fibonacci hashing constant (2^64 / phi, odd).
const fibMult = 0x9E3779B97F4A7C15

// minCap is the initial capacity on first insert. Page indices are address
// prefixes, so even small workloads touch a handful of pages; starting at 16
// avoids the first couple of growth steps without wasting memory.
const minCap = 16

// Dir maps uint64 page indices to *P. The zero value is an empty directory.
// A nil *P cannot be stored: vals[i] == nil marks an empty slot — unless the
// slot's quiesce bit is set, in which case the slot is a keyed tombstone (see
// Quiesce) that keeps probe chains intact while storing no page.
type Dir[P any] struct {
	keys  []uint64
	vals  []*P
	shift uint // 64 - log2(len(vals)); hash top bits select the home slot
	n     int  // live (page-bearing) slots
	// qbits marks quiesced slots: the key is valid and the slot counts as
	// occupied for probing and load factor, but no page is stored and Get
	// reports a miss. Allocated lazily on the first Quiesce.
	qbits []uint64
	nq    int // quiesced slots
}

// Len returns the number of pages stored (quiesced slots excluded).
func (d *Dir[P]) Len() int { return d.n }

func (d *Dir[P]) qbit(i uint64) bool {
	return d.qbits != nil && d.qbits[i>>6]&(1<<(i&63)) != 0
}

func (d *Dir[P]) setQbit(i uint64) {
	if d.qbits == nil {
		d.qbits = make([]uint64, (len(d.vals)+63)/64)
	}
	d.qbits[i>>6] |= 1 << (i & 63)
}

func (d *Dir[P]) clearQbit(i uint64) {
	if d.qbits != nil {
		d.qbits[i>>6] &^= 1 << (i & 63)
	}
}

// occupied reports whether slot i terminates a probe chain (live page or
// quiesced tombstone).
func (d *Dir[P]) occupied(i uint64) bool {
	return d.vals[i] != nil || d.qbit(i)
}

// Cap returns the current slot capacity (0 before the first Put).
func (d *Dir[P]) Cap() int { return len(d.vals) }

func (d *Dir[P]) home(key uint64) uint64 {
	return (key * fibMult) >> d.shift
}

// Get returns the page stored for key, or nil. Quiesced keys report a miss.
func (d *Dir[P]) Get(key uint64) *P {
	if d.n == 0 {
		return nil
	}
	mask := uint64(len(d.vals) - 1)
	for i := d.home(key); ; i = (i + 1) & mask {
		v := d.vals[i]
		if v == nil {
			if !d.qbit(i) {
				return nil
			}
			if d.keys[i] == key {
				return nil // quiesced: no live page
			}
			continue // tombstone for another key; keep probing
		}
		if d.keys[i] == key {
			return v
		}
	}
}

// Quiesced reports whether key has been quiesced (and not since revived by a
// Put).
func (d *Dir[P]) Quiesced(key uint64) bool {
	if d.nq == 0 {
		return false
	}
	mask := uint64(len(d.vals) - 1)
	for i := d.home(key); ; i = (i + 1) & mask {
		if !d.occupied(i) {
			return false
		}
		if d.keys[i] == key {
			return d.vals[i] == nil && d.qbit(i)
		}
	}
}

// Quiesce retires key's slot: the stored page is removed and returned to the
// caller (typically for a freelist), and the slot becomes a keyed tombstone
// so later Get/Quiesced lookups report the key as quiesced rather than
// absent. Returns nil if key holds no live page.
func (d *Dir[P]) Quiesce(key uint64) *P {
	if d.n == 0 {
		return nil
	}
	mask := uint64(len(d.vals) - 1)
	for i := d.home(key); ; i = (i + 1) & mask {
		if !d.occupied(i) {
			return nil
		}
		if d.keys[i] == key {
			v := d.vals[i]
			if v == nil {
				return nil // already quiesced
			}
			d.vals[i] = nil
			d.setQbit(i)
			d.n--
			d.nq++
			return v
		}
	}
}

// Put stores v (which must be non-nil) for key, replacing any existing
// entry and reviving the slot if key was quiesced.
func (d *Dir[P]) Put(key uint64, v *P) {
	if v == nil {
		panic("pagedir: nil page")
	}
	if 4*(d.n+d.nq+1) > 3*len(d.vals) {
		d.grow()
	}
	mask := uint64(len(d.vals) - 1)
	for i := d.home(key); ; i = (i + 1) & mask {
		if !d.occupied(i) {
			d.keys[i], d.vals[i] = key, v
			d.n++
			return
		}
		if d.keys[i] == key {
			if d.vals[i] == nil { // revive a quiesced slot
				d.clearQbit(i)
				d.nq--
				d.n++
			}
			d.vals[i] = v
			return
		}
	}
}

// grow doubles the capacity (or allocates the initial table) and rehashes
// every entry, including quiesced tombstones — their keyed "quiesced" state
// must survive growth.
func (d *Dir[P]) grow() {
	newCap := minCap
	if len(d.vals) > 0 {
		newCap = 2 * len(d.vals)
	}
	oldKeys, oldVals, oldQbits := d.keys, d.vals, d.qbits
	d.keys = make([]uint64, newCap)
	d.vals = make([]*P, newCap)
	if oldQbits != nil {
		d.qbits = make([]uint64, (newCap+63)/64)
	}
	d.shift = 64 - log2(uint(newCap))
	mask := uint64(newCap - 1)
	for i, v := range oldVals {
		q := v == nil && oldQbits != nil && oldQbits[i>>6]&(1<<(uint(i)&63)) != 0
		if v == nil && !q {
			continue
		}
		k := oldKeys[i]
		j := d.home(k)
		for d.occupied(j) {
			j = (j + 1) & mask
		}
		d.keys[j], d.vals[j] = k, v
		if q {
			d.setQbit(j)
		}
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
// page so the caller can recycle it. Quiesced tombstones are cleared too.
// Capacity is retained, making Reset+refill allocation-free.
func (d *Dir[P]) Reset(release func(*P)) {
	if d.n == 0 && d.nq == 0 {
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
	for i := range d.qbits {
		d.qbits[i] = 0
	}
	d.n = 0
	d.nq = 0
}

func log2(v uint) uint {
	var b uint
	for v > 1 {
		v >>= 1
		b++
	}
	return b
}
