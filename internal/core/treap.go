package core

import (
	"fmt"
	"unsafe"
)

// node is one stored interval: 24 bytes, no pointers. Its bounds are offsets
// from the owning tree's base, its links refs into the pool's slab, its
// priority the high half of the tree's 64-bit stream. Nodes are keyed by
// start; the tree-wide invariant that stored intervals are pairwise disjoint
// makes the key order the address order of the intervals themselves.
type node struct {
	start, end          uint16
	acc                 int32
	left, right, parent ref
	prio                uint32
}

// maxSpan is the largest offset from a tree's base a node can store.
const maxSpan = 1<<16 - 1

// span is an operation's argument in the tree's own coordinates.
type span struct {
	start, end uint16
	acc        int32
}

// Stats aggregates the per-operation counters reported in Figure 8 of the
// paper: how many tree nodes an operation visits and how many stored
// intervals it finds overlapping its argument.
type Stats struct {
	Ops          uint64 // top-level Insert/Query operations
	NodesVisited uint64 // nodes touched across all operations
	Overlaps     uint64 // overlapping stored intervals across all operations
}

// Tree is a non-overlapping interval treap with randomized
// (deterministically seeded) priorities. Construct trees with NewTree
// (private node pool) or NewTreeIn (shared pool), or Init a zero Tree that
// lives inside another struct. A tree takes and reports absolute positions
// in [base, base+maxSpan]: one shadow page, in the engine.
type Tree struct {
	root   ref
	finger ref // where the previous operation ended; see seek
	size   int
	rng    uint64
	base   uint64 // absolute position of offset 0; see SetBase
	fresh  []ref
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

// SetBase moves the empty tree's span to [base, base+65535].
func (t *Tree) SetBase(base uint64) {
	if t.size != 0 {
		panic("core: SetBase on a non-empty tree")
	}
	t.base = base
}

// local converts x to the tree's coordinates.
func (t *Tree) local(x Interval) span {
	lo, hi := x.Start-t.base, x.End-t.base // a start below base wraps to a huge lo
	if lo|hi > maxSpan {
		panic(spanError{x, t.base})
	}
	return span{start: uint16(lo), end: uint16(hi), acc: x.Acc}
}

// spanError is what local panics with: an error, so the message is built
// only if somebody prints it and local stays small enough to inline.
type spanError struct {
	x    Interval
	base uint64
}

func (e spanError) Error() string {
	return fmt.Sprintf("core: interval %v outside the tree's span [%#x,%#x]", e.x, e.base, e.base+maxSpan)
}

// Reset empties the tree and re-arms it for reuse: the root and the finger
// are dropped (without walking the tree — the caller resets the shared Pool
// wholesale), the priority stream rewinds to the seed, and the counters
// zero. A Reset tree is indistinguishable from a fresh NewTreeIn over the
// same pool; only its base and the retained capacity of its rebalancing list
// differ. The caller owns the pool lifecycle: Tree.Reset must be paired with
// a Pool.Reset (or the pool's nodes leak until then), which is why it does
// not free nodes itself.
func (t *Tree) Reset() {
	t.root, t.finger = 0, 0
	t.size = 0
	t.rng = treapSeed
	t.fresh = t.fresh[:0]
	t.stats = Stats{}
}

// Drop empties the tree like Reset but returns every node to the pool's
// free list first, so the pool can recycle them for other trees without a
// wholesale Pool.Reset. This is the quiescing path: a page that has hit its
// race threshold hands its history back while sibling pages keep growing
// out of the same pool. A dropped tree, like a Reset one, is
// indistinguishable from a fresh NewTreeIn over the same pool.
func (t *Tree) Drop() {
	t.putSubtree(t.pool.base, t.root)
	t.Reset()
}

// putSubtree returns every node under r (inclusive) to the pool, without
// stats or overlap reporting — this is bulk disposal, not a query.
func (t *Tree) putSubtree(b unsafe.Pointer, r ref) {
	if r == 0 {
		return
	}
	n := at(b, r)
	left, right := n.left, n.right
	t.pool.put(r)
	t.putSubtree(b, left)
	t.putSubtree(b, right)
}

// Size returns the number of intervals currently stored.
func (t *Tree) Size() int { return t.size }

// Stats returns the accumulated operation counters.
func (t *Tree) Stats() Stats { return t.stats }

// ResetStats zeroes the operation counters.
func (t *Tree) ResetStats() { t.stats = Stats{} }

// nextPrio draws the next deterministic xorshift64* priority and keeps its
// high half. rebalance compares strictly, so equal priorities simply do not
// rotate: shape stays a pure function of the tree's insertion sequence.
func (t *Tree) nextPrio() uint32 {
	x := t.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	t.rng = x
	return uint32((x * 0x2545F4914F6CDD1D) >> 32)
}

func (t *Tree) visit() { t.stats.NodesVisited++ }

// newNode draws a node from the pool for x with a fresh priority. It is the
// one step that can grow the slab: a slab base or *node read before it is
// stale after it.
func (t *Tree) newNode(x span) ref {
	if x.start >= x.end {
		panic("core: empty interval")
	}
	r := t.pool.get()
	n := at(t.pool.base, r)
	n.start, n.end, n.acc, n.prio = x.start, x.end, x.acc, t.nextPrio()
	return r
}

// attach links child into the given child slot of parent (parent 0 means
// the root slot), registers it for post-operation rebalancing, and adjusts
// the size. The slot must be empty. It returns child.
func (t *Tree) attach(parent ref, toLeft bool, child ref) ref {
	b := t.pool.base
	at(b, child).parent = parent
	slot := &t.root
	if parent != 0 {
		if slot = &at(b, parent).right; toLeft {
			slot = &at(b, parent).left
		}
	}
	if *slot != 0 {
		panic("core: attach to an occupied slot")
	}
	*slot = child
	t.size++
	t.fresh = append(t.fresh, child)
	return child
}

// setChild makes repl occupy the slot of parent p (0: the root slot) that
// old occupies. It does not touch repl's own parent link.
func (t *Tree) setChild(b unsafe.Pointer, p, old, repl ref) {
	if p == 0 {
		t.root = repl
	} else if pn := at(b, p); pn.left == old {
		pn.left = repl
	} else {
		pn.right = repl
	}
}

// replaceChild makes repl occupy the tree position of old. repl may be 0.
func (t *Tree) replaceChild(b unsafe.Pointer, old, repl ref) {
	p := at(b, old).parent
	if repl != 0 {
		at(b, repl).parent = p
	}
	t.setChild(b, p, old, repl)
}

// dropSubtree removes the whole subtree rooted at r (already detached by the
// caller), reporting every stored interval as overlapping x via onOverlap.
// The paper's REMOVEOVERLAP cases B and C remove entire subtrees this way;
// walking them is what makes race checks on removed intervals possible.
func (t *Tree) dropSubtree(b unsafe.Pointer, r ref, x span, onOverlap OverlapFunc) {
	if r == 0 {
		return
	}
	n := at(b, r)
	t.visit()
	lo, hi := max(n.start, x.start), min(n.end, x.end)
	if lo >= hi {
		panic("core: dropped interval does not overlap")
	}
	t.emitOverlap(onOverlap, n.acc, lo, hi)
	t.size--
	left, right := n.left, n.right
	t.pool.put(r)
	t.dropSubtree(b, left, x, onOverlap)
	t.dropSubtree(b, right, x, onOverlap)
}

// rotateLeft rotates the edge between n and its right child, raising the
// child. rotateRight is the mirror image.
func (t *Tree) rotateLeft(b unsafe.Pointer, nr ref) {
	n := at(b, nr)
	rr := n.right
	r := at(b, rr)
	n.right = r.left
	if r.left != 0 {
		at(b, r.left).parent = nr
	}
	r.parent = n.parent
	t.setChild(b, n.parent, nr, rr)
	r.left = nr
	n.parent = rr
}

func (t *Tree) rotateRight(b unsafe.Pointer, nr ref) {
	n := at(b, nr)
	lr := n.left
	l := at(b, lr)
	n.left = l.right
	if l.right != 0 {
		at(b, l.right).parent = nr
	}
	l.parent = n.parent
	t.setChild(b, n.parent, nr, lr)
	l.right = nr
	n.parent = lr
}

// rebalance bubbles every node attached during the current operation up to
// its heap position. Each attached node is a leaf at bubble time, so this is
// the standard treap insertion fix-up; doing it after the structural phase
// keeps the paper's recursive case analysis free of concurrent restructuring.
func (t *Tree) rebalance() {
	b := t.pool.base
	for _, r := range t.fresh {
		n := at(b, r)
		for n.parent != 0 && at(b, n.parent).prio < n.prio {
			if at(b, n.parent).left == r {
				t.rotateRight(b, n.parent)
			} else {
				t.rotateLeft(b, n.parent)
			}
		}
	}
	t.fresh = t.fresh[:0]
}

// insertFresh walks from the given child slot of parent down to the
// correct empty slot for x — which is guaranteed not to overlap anything in
// that subtree — and attaches a new node there, which it returns.
func (t *Tree) insertFresh(parent ref, toLeft bool, x span) ref {
	b := t.pool.base
	c := at(b, parent).right
	if toLeft {
		c = at(b, parent).left
	}
	for c != 0 {
		cur := at(b, c)
		t.visit()
		switch {
		case x.start >= cur.end:
			parent, toLeft, c = c, false, cur.right
		case x.end <= cur.start:
			parent, toLeft, c = c, true, cur.left
		default:
			panic("core: insertFresh found an overlap")
		}
	}
	return t.attach(parent, toLeft, t.newNode(x))
}

// seek returns the node an operation on x starts its top-down walk at: the
// root, or — finger search — a node further down that the root walk would
// reach by side-effect-free case-A steps alone (DESIGN.md §3 has the proof).
// A strand's intervals arrive address-sorted, so x usually lies just right of
// where the previous operation ended. Given x.start >= finger.start, x lies
// entirely right of every ancestor the finger hangs right of, so seek climbs
// looking for the ones it hangs left of: one that starts at or after x.end has
// x entirely to its left and ends the climb (only such an ancestor can: one
// the finger hangs right of starts before the finger, so before x); one that
// starts before x.end may overlap x or hold it in its right subtree, so it
// becomes the start node and the climb goes on. The climb also ends at the
// top, or once x ends inside the start node's own interval. Only the nodes
// visited change (climb steps are charged to NodesVisited; expected O(lg d)
// for rank distance d from the finger). No finger, or a step to its left,
// starts at the root.
//
// It comes in two halves, t.climb(b, t.fingerOrRoot(b, x), x): each fits the
// compiler's inlining budget, the whole does not, and the call it would cost
// every operation is ≈ 5 % of a sorted run (BenchmarkTreapSortedRun).
func (t *Tree) fingerOrRoot(b unsafe.Pointer, x span) ref {
	if f := t.finger; f != 0 && x.start >= at(b, f).start {
		return f
	}
	return t.root
}

// climb is seek's second half. From the root, or from 0 in an empty tree —
// slot 0, the sentinel, has no parent either — it returns low as it is. It
// also returns up, the ancestor that ended the climb if one did: the nearest
// node the start node hangs left of, so the leftmost node past its subtree.
func (t *Tree) climb(b unsafe.Pointer, low ref, x span) (start, up ref) {
	n := at(b, low)
	for end := n.end; x.end > end && n.parent != 0; {
		p := at(b, n.parent)
		t.visit()
		if p.start >= x.end {
			return low, n.parent
		}
		if n.start < p.start { // n hangs left of p
			low, end = n.parent, p.end
		}
		n = p
	}
	return low, 0
}

// Query enumerates, without modifying the tree, every stored interval that
// overlaps x, reporting the overlapping range for each. Because stored
// intervals are disjoint and keyed by start, the overlapping intervals form
// a contiguous run in key order: Query descends to the first stored interval
// whose end exceeds x.Start and then walks in-order successors while their
// start precedes x.End — O(h + k) with no augmentation. The finger is left
// on the rightmost interval found to start before x.End.
func (t *Tree) Query(iv Interval, onOverlap OverlapFunc) {
	if iv.Start >= iv.End {
		panic("core: empty query interval")
	}
	x, b := t.local(iv), t.pool.base
	t.stats.Ops++
	low, up := t.climb(b, t.fingerOrRoot(b, x), x)
	first, last := t.lowerBound(b, low, up, x)
	for r := first; r != 0; r = t.successor(b, r) {
		n := at(b, r)
		if n.start >= x.end {
			break
		}
		t.emitOverlap(onOverlap, n.acc, max(n.start, x.start), min(n.end, x.end))
		last = r
		if n.end >= x.end {
			break // disjointness: the next interval starts at or after x.end
		}
	}
	if last != 0 {
		t.finger = last
	}
}

// lowerBound descends from low, where seek says to start, to first, the
// leftmost node whose end exceeds x.start — up, climb's ancestor, if nothing
// under low qualifies — and last, the nearest node passed on the way that
// lies entirely left of x. Disjointness makes "end" monotone in key order,
// so this is a standard monotone-predicate search. Unless first holds
// x.start, last is its in-order predecessor.
func (t *Tree) lowerBound(b unsafe.Pointer, low, up ref, x span) (first, last ref) {
	first = up
	for c := low; c != 0; {
		cur := at(b, c)
		t.visit()
		if cur.end > x.start {
			first = c
			if cur.start <= x.start {
				break // cur holds x.start: nothing left of it reaches x
			}
			c = cur.left
		} else {
			last, c = c, cur.right
		}
	}
	return first, last
}

// successor returns the in-order successor of r, charging visited nodes to
// the tree's stats.
func (t *Tree) successor(b unsafe.Pointer, r ref) ref {
	if c := at(b, r).right; c != 0 {
		for ; c != 0; c = at(b, c).left { // leftmost of the right subtree
			r = c
			t.visit()
		}
		return r
	}
	for {
		p := at(b, r).parent
		if p == 0 || at(b, p).right != r {
			return p
		}
		r = p
		t.visit()
	}
}

// Walk calls fn on every stored interval in address order. It is used by
// tests and by tools that dump the access history.
func (t *Tree) Walk(fn func(Interval)) {
	b := t.pool.base
	var rec func(r ref)
	rec = func(r ref) {
		if r == 0 {
			return
		}
		n := at(b, r)
		rec(n.left)
		fn(Interval{Start: t.base + uint64(n.start), End: t.base + uint64(n.end), Acc: n.acc})
		rec(n.right)
	}
	rec(t.root)
}

// Height returns the height of the tree (0 for an empty tree), used by
// balance diagnostics.
func (t *Tree) Height() int {
	b := t.pool.base
	var rec func(r ref) int
	rec = func(r ref) int {
		if r == 0 {
			return 0
		}
		return 1 + max(rec(at(b, r).left), rec(at(b, r).right))
	}
	return rec(t.root)
}
