package core

import "unsafe"

// InsertWrite inserts a write interval x into the tree, implementing
// InsertWriteInterval from §4.1 of the paper. The current strand is always
// the last writer of every word it writes, so x always survives intact:
// every stored interval overlapping x is reported via onOverlap (the caller
// checks it for races) and then trimmed or removed to keep the tree's
// intervals disjoint.
//
// Walking down from where seek (fingerOrRoot, climb) starts it, each visited interval y falls
// into one of the paper's four cases:
//
//   - A (no overlap): descend toward the side of y that can still contain
//     overlaps; attach x if that side is empty.
//   - B (partial overlap): trim y back to the non-overlapping part and keep
//     descending with x unchanged.
//   - C (y strictly covers x): y splits into up to three pieces; the middle
//     becomes x in place, and the outer pieces re-attach as fresh leaves
//     that cannot overlap anything else.
//   - D (x covers y): y's node is rewritten as x, and RemoveOverlap scans
//     both subtrees for further victims.
//
// The finger ends on the node that holds x; RemoveOverlap only frees nodes
// below it.
func (t *Tree) InsertWrite(iv Interval, onOverlap OverlapFunc) {
	if iv.Start >= iv.End {
		panic("core: empty write interval")
	}
	x, b := t.local(iv), t.pool.base
	t.stats.Ops++
	low, _ := t.climb(b, t.fingerOrRoot(b, x), x)
	t.finger = t.insertWrite(b, low, x, onOverlap)
	if len(t.fresh) > 0 {
		t.rebalance()
	}
}

// insertWrite runs the case walk from c (0 only in an empty tree) and
// returns the node that ends up holding x.
func (t *Tree) insertWrite(b unsafe.Pointer, c ref, x span, onOverlap OverlapFunc) ref {
	if c == 0 {
		return t.attach(0, false, t.newNode(x))
	}
	for {
		cur := at(b, c)
		t.visit()
		switch {
		case x.start >= cur.end: // case A: x entirely right of cur
			if cur.right == 0 {
				return t.attach(c, false, t.newNode(x))
			}
			c = cur.right

		case x.end <= cur.start: // case A: x entirely left of cur
			if cur.left == 0 {
				return t.attach(c, true, t.newNode(x))
			}
			c = cur.left

		case x.start <= cur.start && cur.end <= x.end: // case D: x covers cur
			t.emitOverlap(onOverlap, cur.acc, cur.start, cur.end)
			cur.start, cur.end, cur.acc = x.start, x.end, x.acc
			t.removeOverlapLeft(b, c, x, onOverlap)
			t.removeOverlapRight(b, c, x, onOverlap)
			return c

		case cur.start <= x.start && x.end <= cur.end: // case C: cur covers x
			t.emitOverlap(onOverlap, cur.acc, x.start, x.end)
			left := span{start: cur.start, end: x.start, acc: cur.acc}
			right := span{start: x.end, end: cur.end, acc: cur.acc}
			cur.start, cur.end, cur.acc = x.start, x.end, x.acc
			if left.start < left.end {
				t.insertFresh(c, true, left)
			}
			if right.start < right.end {
				t.insertFresh(c, false, right)
			}
			return c

		case cur.start < x.start: // case B: x overlaps cur's right part
			t.emitOverlap(onOverlap, cur.acc, x.start, cur.end)
			cur.end = x.start
			if cur.right == 0 {
				return t.attach(c, false, t.newNode(x))
			}
			c = cur.right

		default: // case B: x overlaps cur's left part
			t.emitOverlap(onOverlap, cur.acc, cur.start, x.end)
			cur.start = x.end
			if cur.left == 0 {
				return t.attach(c, true, t.newNode(x))
			}
			c = cur.left
		}
	}
}

// emitOverlap counts one overlap and reports it in absolute positions.
func (t *Tree) emitOverlap(onOverlap OverlapFunc, acc int32, lo, hi uint16) {
	t.stats.Overlaps++
	if onOverlap != nil {
		onOverlap(acc, t.base+uint64(lo), t.base+uint64(hi))
	}
}

// removeOverlapLeft implements RemoveOverlapLeft(y.left, x): x has just been
// installed at y, so every interval in y's old left subtree ends at or
// before x.end; those that reach past x.start overlap x and must be trimmed
// or removed. Nothing here draws a node, so b stays good throughout.
func (t *Tree) removeOverlapLeft(b unsafe.Pointer, y ref, x span, onOverlap OverlapFunc) {
	for zr := at(b, y).left; zr != 0; {
		z := at(b, zr)
		t.visit()
		switch {
		case z.end <= x.start: // case A: no overlap; only z's right side can overlap
			zr = z.right

		case z.start < x.start: // case B: partial overlap; trim z, right subtree dies
			t.emitOverlap(onOverlap, z.acc, x.start, z.end)
			z.end = x.start
			sub := z.right
			z.right = 0
			t.dropSubtree(b, sub, x, onOverlap)
			return

		default: // case C: x covers z; splice z out, keep scanning its left subtree
			t.emitOverlap(onOverlap, z.acc, z.start, z.end)
			sub := z.right
			z.right = 0
			t.dropSubtree(b, sub, x, onOverlap)
			repl := z.left
			t.replaceChild(b, zr, repl)
			t.size--
			t.pool.put(zr)
			zr = repl
		}
	}
}

// removeOverlapRight is the mirror image of removeOverlapLeft for y's right
// subtree: every interval there starts at or after x.start; those starting
// before x.end overlap x.
func (t *Tree) removeOverlapRight(b unsafe.Pointer, y ref, x span, onOverlap OverlapFunc) {
	for zr := at(b, y).right; zr != 0; {
		z := at(b, zr)
		t.visit()
		switch {
		case z.start >= x.end: // case A
			zr = z.left

		case z.end > x.end: // case B: partial overlap; trim z, left subtree dies
			t.emitOverlap(onOverlap, z.acc, z.start, x.end)
			z.start = x.end
			sub := z.left
			z.left = 0
			t.dropSubtree(b, sub, x, onOverlap)
			return

		default: // case C: x covers z
			t.emitOverlap(onOverlap, z.acc, z.start, z.end)
			sub := z.left
			z.left = 0
			t.dropSubtree(b, sub, x, onOverlap)
			repl := z.right
			t.replaceChild(b, zr, repl)
			t.size--
			t.pool.put(zr)
			zr = repl
		}
	}
}
