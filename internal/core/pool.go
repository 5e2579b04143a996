package core

import "unsafe"

// NodeBytes is the size of one treap node — the unit every footprint figure
// (live history bytes, the engines' AccessHistoryBytes) is counted in, so a
// change of node layout moves them all from this one place.
const NodeBytes = uint64(unsafe.Sizeof(node{}))

// ref names a node of a Pool by its byte offset into the pool's slab, so
// following a link is one add onto the slab's base (at), with the dependency
// chain a pointer has. 0 is nil: slot 0 is a sentinel no tree links to.
type ref uint32

// at resolves r against a slab base. It is the only pointer arithmetic in
// the repository (CI guards that). A *node it returns dies with the slab: a
// base, and every pointer derived from it, must be re-read from the pool
// after anything that can grow the slab (Tree.newNode).
func at(base unsafe.Pointer, r ref) *node { return (*node)(unsafe.Add(base, r)) }

const (
	// slabMinNodes is the first slab's capacity, allocated with the pool (so
	// a base is never nil and slot 0 can always be read); the slab then
	// doubles, by make + copy — per-node append from empty leaves enough
	// growth garbage to move an RSS peak (DESIGN.md §3, "Node layout").
	slabMinNodes = 1024

	// maxSlabNodes is the ref space: a uint32 byte offset addresses 4 GiB.
	maxSlabNodes = (1 << 32) / int(NodeBytes)
)

// Pool is the node allocator the trees of one engine share: one flat slab
// of pointer-free nodes (so the Go heap allocates it noscan and a warm
// history costs the collector no mark time), carved in order, with retired
// nodes recycled through an intrusive free list threaded over their `right`
// links. InsertWrite's RemoveOverlap cases and the nodes InsertRead's new
// reader takes over feed the free list; in steady state — where the paper's
// Lemma 4.1 bounds the live interval count — insertion allocates nothing. A Pool is single-owner: in the sharded
// pipeline each shard worker owns one, with no cross-shard synchronization.
type Pool struct {
	nodes    []node         // nodes[0] is the nil sentinel; len is the carve cursor
	base     unsafe.Pointer // &nodes[0]
	free     ref            // intrusive free list (linked via right)
	nfree    int
	served   uint64 // total get() calls
	recycled uint64 // get() calls satisfied by the free list
	limit    int    // most nodes the slab may hold; tests shrink it
	moveSlab bool   // test seam: reallocate the slab on every get
}

// NewPool returns an empty Pool: a first slab with the sentinel carved.
func NewPool() *Pool {
	p := &Pool{limit: maxSlabNodes}
	p.realloc(slabMinNodes)
	p.nodes = p.nodes[:1]
	return p
}

// get returns a zeroed node ready for attach.
func (p *Pool) get() ref {
	p.served++
	if p.moveSlab {
		p.realloc(cap(p.nodes))
	}
	if r := p.free; r != 0 {
		n := at(p.base, r)
		p.free = n.right
		p.nfree--
		p.recycled++
		*n = node{}
		return r
	}
	if len(p.nodes) == cap(p.nodes) {
		p.grow()
	}
	i := len(p.nodes)
	p.nodes = p.nodes[:i+1]
	p.nodes[i] = node{}
	return ref(uint64(i) * NodeBytes)
}

// grow doubles the slab, within the ref space.
func (p *Pool) grow() {
	c := min(2*cap(p.nodes), p.limit)
	if c <= len(p.nodes) {
		panic("core: node pool out of ref space (callers check HasRoom first)")
	}
	p.realloc(c)
}

// realloc moves the carved nodes into a new slab of capacity c.
func (p *Pool) realloc(c int) {
	s := make([]node, len(p.nodes), c)
	copy(s, p.nodes)
	p.nodes, p.base = s, unsafe.Pointer(unsafe.SliceData(s))
}

// put retires a node that has been unlinked from the tree. Links are
// cleared so a pooled node can never lead back into live structure.
func (p *Pool) put(r ref) {
	n := at(p.base, r)
	n.left, n.parent = 0, 0
	n.right = p.free
	p.free = r
	p.nfree++
}

// Reset returns the Pool to its freshly-constructed state while retaining
// its slab: the carve cursor rewinds to the sentinel and the free list is
// discarded (its nodes live inside the slab). Nothing is cleared — get
// zeroes each node it hands out — so Reset is O(1), and the slab's capacity,
// the pool's heap footprint, stops growing once the pool has seen its peak
// run. Every tree drawing from the pool must be Reset (or discarded)
// alongside it: all previously handed-out nodes are recycled wholesale.
func (p *Pool) Reset() {
	p.nodes = p.nodes[:1]
	p.free, p.nfree = 0, 0
	p.served, p.recycled = 0, 0
}

// HasRoom reports whether n more nodes fit in the ref space; the engine asks
// before each operation and turns false into its history-cap error.
func (p *Pool) HasRoom(n int) bool {
	return len(p.nodes)-p.nfree+n <= p.limit
}

// MaxBytes returns the ref space in bytes: what LiveBytes can reach.
func (p *Pool) MaxBytes() uint64 { return uint64(p.limit) * NodeBytes }

// LiveBytes returns the bytes of pool nodes currently linked into trees:
// nodes carved from the slab minus nodes parked on the free list. It
// excludes retained-but-uncarved slab capacity, so it rewinds to zero on
// Reset — the measure a per-run memory cap wants.
func (p *Pool) LiveBytes() uint64 {
	return uint64(len(p.nodes)-1-p.nfree) * NodeBytes
}

// PoolStats describes the state of a Pool.
type PoolStats struct {
	Cap      int    // nodes the slab holds without growing, sentinel included
	Free     int    // nodes parked on the free list
	Served   uint64 // total node requests
	Recycled uint64 // requests satisfied by the free list
}

// Stats returns the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Cap: cap(p.nodes), Free: p.nfree, Served: p.served, Recycled: p.recycled}
}
