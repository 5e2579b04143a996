package core

// node is one stored interval. Nodes are keyed by start; the tree-wide
// invariant that stored intervals are pairwise disjoint makes the key order
// identical to the address order of the intervals themselves.
type node struct {
	start, end uint64
	acc        int32
	prio       uint64
	left       *node
	right      *node
	parent     *node
}

func (n *node) interval() Interval { return Interval{Start: n.start, End: n.end, Acc: n.acc} }

// Stats aggregates the per-operation counters reported in Figure 8 of the
// paper: how many tree nodes an operation visits and how many stored
// intervals it finds overlapping its argument.
type Stats struct {
	Ops          uint64 // top-level Insert/Query operations
	NodesVisited uint64 // nodes touched across all operations
	Overlaps     uint64 // overlapping stored intervals across all operations
}

// Tree is a non-overlapping interval treap with randomized
// (deterministically seeded) priorities; use SetBalancing to turn
// priorities off and degrade to a plain BST for the ablation run. Construct
// trees with NewTree (private node pool) or NewTreeIn (shared pool), or Init
// a zero Tree that lives inside another struct.
type Tree struct {
	root   *node
	finger *node // where the previous operation ended; see seek
	size   int
	rng    uint64
	unbal  bool // when true, skip rotations (plain BST ablation)
	fresh  []*node
	work   []piece // reusable InsertRead worklist
	pool   *Pool
	stats  Stats
}

// treapSeed is the deterministic xorshift64* seed every tree starts from.
// Reset must restore exactly this value: reused trees re-derive the same
// priority stream as fresh ones, so tree shapes — and therefore every
// traversal counter — are identical between a reused and a fresh detector.
const treapSeed = 0x9E3779B97F4A7C15

// NewTree returns an empty tree seeded deterministically, with its own
// node pool.
func NewTree() *Tree { return NewTreeIn(NewPool()) }

// NewTreeIn returns an empty tree seeded deterministically that draws its
// nodes from the given shared pool. Because every tree starts from the same
// seed and the priority stream is a per-tree field, tree shapes depend only
// on each tree's own insertion sequence — not on pool sharing — which keeps
// per-page trees byte-identical across shard counts.
func NewTreeIn(pool *Pool) *Tree {
	t := new(Tree)
	t.Init(pool)
	return t
}

// Init makes a zero Tree, in place, what NewTreeIn(pool) returns.
func (t *Tree) Init(pool *Pool) { t.rng, t.pool = treapSeed, pool }

// Reset empties the tree and re-arms it for reuse: the root and the finger
// are dropped (without walking the tree — the caller resets the shared Pool
// wholesale), the priority stream rewinds to the seed, and the counters
// zero. A Reset tree is indistinguishable from a fresh NewTreeIn over the
// same pool; only the retained capacity of its worklists differs. The caller owns the pool
// lifecycle: Tree.Reset must be paired with a Pool.Reset (or the pool's
// nodes leak until then), which is why it does not free nodes itself.
func (t *Tree) Reset() {
	t.root, t.finger = nil, nil
	t.size = 0
	t.rng = treapSeed
	t.fresh = t.fresh[:0]
	t.work = t.work[:0]
	t.stats = Stats{}
}

// Drop empties the tree like Reset but returns every node to the pool's
// free list first, so the pool can recycle them for other trees without a
// wholesale Pool.Reset. This is the quiescing path: a page that has hit its
// race threshold hands its history back while sibling pages keep growing
// out of the same pool. A dropped tree, like a Reset one, is
// indistinguishable from a fresh NewTreeIn over the same pool.
func (t *Tree) Drop() {
	t.putSubtree(t.root)
	t.Reset()
}

// putSubtree returns every node under n (inclusive) to the pool, without
// stats or overlap reporting — this is bulk disposal, not a query.
func (t *Tree) putSubtree(n *node) {
	if n == nil {
		return
	}
	l, r := n.left, n.right
	t.pool.put(n)
	t.putSubtree(l)
	t.putSubtree(r)
}

// SetBalancing enables (default) or disables treap rotations. Disabling
// turns the structure into an unbalanced BST, used by the "any balanced BST
// would work" ablation to show the cost of imbalance.
func (t *Tree) SetBalancing(on bool) { t.unbal = !on }

// Size returns the number of intervals currently stored.
func (t *Tree) Size() int { return t.size }

// Stats returns the accumulated operation counters.
func (t *Tree) Stats() Stats { return t.stats }

// ResetStats zeroes the operation counters.
func (t *Tree) ResetStats() { t.stats = Stats{} }

// nextPrio draws the next deterministic xorshift64* priority.
func (t *Tree) nextPrio() uint64 {
	x := t.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	t.rng = x
	return x * 0x2545F4914F6CDD1D
}

func (t *Tree) visit(*node) { t.stats.NodesVisited++ }

// newNode draws a node from the slab pool for iv with a fresh priority.
func (t *Tree) newNode(iv Interval) *node {
	if iv.Start >= iv.End {
		panic("core: empty interval")
	}
	n := t.pool.get()
	n.start, n.end, n.acc, n.prio = iv.Start, iv.End, iv.Acc, t.nextPrio()
	return n
}

// attach links child into the given child slot of parent (parent nil means
// the root slot), registers it for post-operation rebalancing, and adjusts
// the size. The slot must be empty. It returns child.
func (t *Tree) attach(parent *node, toLeft bool, child *node) *node {
	child.parent = parent
	if parent == nil {
		if t.root != nil {
			panic("core: attach to occupied root")
		}
		t.root = child
	} else if toLeft {
		if parent.left != nil {
			panic("core: attach to occupied left slot")
		}
		parent.left = child
	} else {
		if parent.right != nil {
			panic("core: attach to occupied right slot")
		}
		parent.right = child
	}
	t.size++
	t.fresh = append(t.fresh, child)
	return child
}

// replaceChild makes repl occupy the tree position of old (whose parent is
// known by the caller). repl may be nil.
func (t *Tree) replaceChild(old, repl *node) {
	p := old.parent
	if repl != nil {
		repl.parent = p
	}
	switch {
	case p == nil:
		t.root = repl
	case p.left == old:
		p.left = repl
	default:
		p.right = repl
	}
}

// dropSubtree removes the whole subtree rooted at n (already detached by the
// caller), reporting every stored interval as overlapping x via onOverlap.
// The paper's REMOVEOVERLAP cases B and C remove entire subtrees this way;
// walking them is what makes race checks on removed intervals possible.
func (t *Tree) dropSubtree(n *node, x Interval, onOverlap OverlapFunc) {
	if n == nil {
		return
	}
	t.visit(n)
	t.stats.Overlaps++
	if onOverlap != nil {
		lo, hi := maxU64(n.start, x.Start), minU64(n.end, x.End)
		if lo >= hi {
			panic("core: dropped interval does not overlap")
		}
		onOverlap(n.acc, lo, hi)
	}
	t.size--
	l, r := n.left, n.right
	t.pool.put(n)
	t.dropSubtree(l, x, onOverlap)
	t.dropSubtree(r, x, onOverlap)
}

// rotateLeft rotates the edge between n and its right child, raising the
// child. rotateRight is the mirror image.
func (t *Tree) rotateLeft(n *node) {
	r := n.right
	n.right = r.left
	if r.left != nil {
		r.left.parent = n
	}
	r.parent = n.parent
	switch {
	case n.parent == nil:
		t.root = r
	case n.parent.left == n:
		n.parent.left = r
	default:
		n.parent.right = r
	}
	r.left = n
	n.parent = r
}

func (t *Tree) rotateRight(n *node) {
	l := n.left
	n.left = l.right
	if l.right != nil {
		l.right.parent = n
	}
	l.parent = n.parent
	switch {
	case n.parent == nil:
		t.root = l
	case n.parent.left == n:
		n.parent.left = l
	default:
		n.parent.right = l
	}
	l.right = n
	n.parent = l
}

// rebalance bubbles every node attached during the current operation up to
// its heap position. Each attached node is a leaf at bubble time, so this is
// the standard treap insertion fix-up; doing it after the structural phase
// keeps the paper's recursive case analysis free of concurrent restructuring.
func (t *Tree) rebalance() {
	if t.unbal {
		t.fresh = t.fresh[:0]
		return
	}
	for _, n := range t.fresh {
		for n.parent != nil && n.parent.prio < n.prio {
			if n.parent.left == n {
				t.rotateRight(n.parent)
			} else {
				t.rotateLeft(n.parent)
			}
		}
	}
	t.fresh = t.fresh[:0]
}

// insertFresh walks from the given child slot of parent down to the
// correct empty slot for iv — which is guaranteed not to overlap anything in
// that subtree — and attaches a new node there.
func (t *Tree) insertFresh(parent *node, toLeft bool, iv Interval) {
	cur := parent.right
	if toLeft {
		cur = parent.left
	}
	if cur == nil {
		t.attach(parent, toLeft, t.newNode(iv))
		return
	}
	for {
		t.visit(cur)
		if iv.Start >= cur.end {
			if cur.right == nil {
				t.attach(cur, false, t.newNode(iv))
				return
			}
			cur = cur.right
		} else if iv.End <= cur.start {
			if cur.left == nil {
				t.attach(cur, true, t.newNode(iv))
				return
			}
			cur = cur.left
		} else {
			panic("core: insertFresh found an overlap")
		}
	}
}

// seek returns the node an operation on x starts its top-down walk at: the
// root, or — finger search — a node further down that the root walk would
// reach by side-effect-free case-A steps alone (DESIGN.md §3 has the proof).
// A strand's intervals arrive address-sorted, so x usually lies just right of
// where the previous operation ended. Given x.Start >= finger.start, x lies
// entirely right of every ancestor the finger hangs right of, so seek climbs
// looking at the ones it hangs left of: one that starts at or after x.End has
// x entirely to its left and ends the climb; one that starts before x.End may
// overlap x or hold it in its right subtree, so it becomes the start node and
// the climb goes on. The climb also ends at the top, or once x ends inside
// the start node's own interval. Only the nodes visited change (climb steps
// are charged to NodesVisited; expected O(lg d) for rank distance d from the
// finger). No finger, or a step to its left, starts at the root.
func (t *Tree) seek(x Interval) *node {
	low := t.finger
	if low == nil || x.Start < low.start {
		return t.root
	}
	for n := low; x.End > low.end && n.parent != nil; n = n.parent {
		p := n.parent
		t.visit(p)
		if p.left == n {
			if p.start >= x.End {
				break
			}
			low = p
		}
	}
	return low
}

// Query enumerates, without modifying the tree, every stored interval that
// overlaps x, reporting the overlapping range for each. Because stored
// intervals are disjoint and keyed by start, the overlapping intervals form
// a contiguous run in key order: Query descends to the first stored interval
// whose end exceeds x.Start and then walks in-order successors while their
// start precedes x.End — O(h + k) with no augmentation. The finger is left
// on the rightmost interval found to start before x.End.
func (t *Tree) Query(x Interval, onOverlap OverlapFunc) {
	if x.Start >= x.End {
		panic("core: empty query interval")
	}
	t.stats.Ops++
	// Find the leftmost node with end > x.Start. Disjointness makes "end"
	// monotone in key order, so this is a standard monotone-predicate search;
	// last is the nearest node it passed that lies entirely left of x.
	var first, last *node
	cur := t.seek(x)
	for cur != nil {
		t.visit(cur)
		if cur.end > x.Start {
			first = cur
			if cur.start <= x.Start {
				break // cur holds x.Start: nothing left of it reaches x
			}
			cur = cur.left
		} else {
			last = cur
			cur = cur.right
		}
	}
	for n := first; n != nil && n.start < x.End; n = successor(t, n) {
		t.stats.Overlaps++
		if onOverlap != nil {
			onOverlap(n.acc, maxU64(n.start, x.Start), minU64(n.end, x.End))
		}
		last = n
		if n.end >= x.End {
			break // disjointness: the next interval starts at or after x.End
		}
	}
	if last != nil {
		t.finger = last
	}
}

// successor returns the in-order successor of n, charging visited nodes to
// the tree's stats.
func successor(t *Tree, n *node) *node {
	if n.right != nil {
		n = n.right
		t.visit(n)
		for n.left != nil {
			n = n.left
			t.visit(n)
		}
		return n
	}
	for n.parent != nil && n.parent.right == n {
		n = n.parent
		t.visit(n)
	}
	return n.parent
}

// Walk calls fn on every stored interval in address order. It is used by
// tests and by tools that dump the access history.
func (t *Tree) Walk(fn func(Interval)) {
	var rec func(n *node)
	rec = func(n *node) {
		if n == nil {
			return
		}
		rec(n.left)
		fn(n.interval())
		rec(n.right)
	}
	rec(t.root)
}

// Height returns the height of the tree (0 for an empty tree), used by
// balance diagnostics and the plain-BST ablation.
func (t *Tree) Height() int {
	var rec func(n *node) int
	rec = func(n *node) int {
		if n == nil {
			return 0
		}
		l, r := rec(n.left), rec(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return rec(t.root)
}

// checkInvariants panics if the BST order, the parent links, the heap
// property (when balancing is on), the disjointness invariant or the
// finger's liveness (nil, or a node of this tree) is violated. Tests call
// this after every operation.
func (t *Tree) checkInvariants() {
	var prevEnd uint64
	var count int
	first := true
	var rec func(n *node)
	rec = func(n *node) {
		if n == nil {
			return
		}
		if n.left != nil && n.left.parent != n {
			panic("core: bad left parent link")
		}
		if n.right != nil && n.right.parent != n {
			panic("core: bad right parent link")
		}
		if !t.unbal {
			if n.left != nil && n.left.prio > n.prio {
				panic("core: heap violation (left)")
			}
			if n.right != nil && n.right.prio > n.prio {
				panic("core: heap violation (right)")
			}
		}
		rec(n.left)
		if n.start >= n.end {
			panic("core: empty stored interval")
		}
		if !first && n.start < prevEnd {
			panic("core: overlapping stored intervals")
		}
		first = false
		prevEnd = n.end
		count++
		rec(n.right)
	}
	if t.root != nil && t.root.parent != nil {
		panic("core: root has a parent")
	}
	rec(t.root)
	if count != t.size {
		panic("core: size mismatch")
	}
	if f := t.finger; f != nil {
		for f.parent != nil {
			f = f.parent
		}
		if f != t.root {
			panic("core: finger not reachable from the root")
		}
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
