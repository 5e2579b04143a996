package core

import "unsafe"

// NodeBytes is the size of one treap node — the unit every footprint figure
// (pool bytes, live history bytes, the engines' AccessHistoryBytes) is
// counted in, so a change of node layout moves them all from this one place.
const NodeBytes = uint64(unsafe.Sizeof(node{}))

// chunkNodes is the slab granularity: one heap allocation amortized over
// this many treap nodes. 512 nodes ≈ 28 KiB per chunk — big enough to make
// node allocation disappear from profiles, small enough that tiny trees
// don't overcommit.
const chunkNodes = 512

// nodePool is a slab allocator for treap nodes. Nodes are carved out of
// chunked arrays (restoring the locality a per-insert new(node) destroys)
// and recycled through an intrusive free list threaded over the `right`
// pointers of retired nodes. InsertWrite's RemoveOverlap cases feed the
// free list; in steady state — where the paper's Lemma 4.1 bounds the live
// interval count — insertion allocates nothing.
type nodePool struct {
	chunks   [][]node
	cur      int   // chunk currently being carved
	used     int   // nodes handed out from chunks[cur]
	free     *node // intrusive free list (linked via right)
	nfree    int
	served   uint64 // total get() calls
	recycled uint64 // get() calls satisfied by the free list
	heapOnly bool   // benchmark ablation: fall back to one heap object per node
}

// get returns a zero-linked node ready for attach.
func (p *nodePool) get() *node {
	p.served++
	if p.heapOnly {
		return &node{}
	}
	if n := p.free; n != nil {
		p.free = n.right
		p.nfree--
		p.recycled++
		n.right = nil
		return n
	}
	if p.used == chunkNodes {
		p.cur++
		p.used = 0
	}
	if p.cur == len(p.chunks) {
		p.chunks = append(p.chunks, make([]node, chunkNodes))
	}
	n := &p.chunks[p.cur][p.used]
	p.used++
	return n
}

// reset parks every chunk for re-carving without releasing any of them:
// the free list is discarded (its nodes live inside the chunks), the
// carve cursor rewinds to the first chunk, and all carved memory is
// zeroed so get() keeps its fresh-node contract. Reset costs one memclr
// over the carved region; the chunk count — the pool's heap footprint —
// never shrinks and stops growing once the pool has seen its peak run.
func (p *nodePool) reset() {
	hi := p.cur
	if hi >= len(p.chunks) {
		hi = len(p.chunks) - 1
	}
	for i := 0; i < hi; i++ {
		clear(p.chunks[i])
	}
	if hi >= 0 {
		clear(p.chunks[hi][:p.used])
	}
	p.cur, p.used = 0, 0
	p.free, p.nfree = nil, 0
	p.served, p.recycled = 0, 0
}

// Pool is a shareable treap-node slab allocator. Many trees (e.g. the
// per-page read/write treaps of one detector engine) can draw from one Pool
// via NewTreeIn, so the 512-node chunk granularity is amortized across the
// whole page directory instead of paid per tree. A Pool is single-owner:
// trees sharing it must belong to the same goroutine — in the sharded
// pipeline each shard worker owns one Pool, with zero cross-shard
// synchronization.
type Pool struct {
	nodePool
}

// NewPool returns an empty Pool.
func NewPool() *Pool { return &Pool{} }

// Reset returns the Pool to its freshly-constructed state while retaining
// every chunk it ever allocated, so trees rebuilt over it after a Reset
// carve the same memory again instead of growing the heap. Every tree
// drawing from the pool must be Reset (or discarded) alongside it: after
// Pool.Reset all previously handed-out nodes are recycled wholesale.
func (p *Pool) Reset() { p.reset() }

// put retires a node that has been unlinked from the tree. Links are
// cleared so a pooled node can never lead back into live structure.
func (p *nodePool) put(n *node) {
	if p.heapOnly {
		return // dropped for the garbage collector, like the seed code
	}
	n.left, n.parent = nil, nil
	n.right = p.free
	p.free = n
	p.nfree++
}

// PoolStats describes the state of a Tree's slab allocator.
type PoolStats struct {
	Chunks   int    // slab chunks allocated from the Go heap
	Live     int    // nodes currently linked in the tree
	Free     int    // nodes parked on the free list
	Served   uint64 // total node requests
	Recycled uint64 // requests satisfied without touching the heap
}

// Bytes returns the pool's total heap footprint.
func (ps PoolStats) Bytes() uint64 {
	return uint64(ps.Chunks) * chunkNodes * NodeBytes
}

// LiveBytes returns the bytes of pool nodes currently linked into trees:
// nodes carved from chunks minus nodes parked on the free list. Unlike
// PoolStats.Bytes it excludes retained-but-uncarved chunk capacity, so it
// rewinds to zero on Reset — the measure a per-run memory cap wants.
func (p *Pool) LiveBytes() uint64 {
	carved := p.cur*chunkNodes + p.used
	return uint64(carved-p.nfree) * NodeBytes
}

// Stats returns the pool-level slab counters. Live is zero at pool level:
// the pool does not know how many of its carved nodes are still linked
// into trees (Tree.PoolStats fills it in for a single tree).
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Chunks:   len(p.chunks),
		Free:     p.nfree,
		Served:   p.served,
		Recycled: p.recycled,
	}
}

// PoolStats returns the tree's slab-allocator counters.
func (t *Tree) PoolStats() PoolStats {
	return PoolStats{
		Chunks:   len(t.pool.chunks),
		Live:     t.size,
		Free:     t.pool.nfree,
		Served:   t.pool.served,
		Recycled: t.pool.recycled,
	}
}
