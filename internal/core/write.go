package core

// InsertWrite inserts a write interval x into the tree, implementing
// InsertWriteInterval from §4.1 of the paper. The current strand is always
// the last writer of every word it writes, so x always survives intact:
// every stored interval overlapping x is reported via onOverlap (the caller
// checks it for races) and then trimmed or removed to keep the tree's
// intervals disjoint.
//
// Walking down from where seek starts it, each visited interval y falls
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
func (t *Tree) InsertWrite(x Interval, onOverlap OverlapFunc) {
	if x.Start >= x.End {
		panic("core: empty write interval")
	}
	t.stats.Ops++
	t.finger = t.insertWrite(t.seek(x), x, onOverlap)
	t.rebalance()
}

// insertWrite runs the case walk from cur (nil only in an empty tree) and
// returns the node that ends up holding x.
func (t *Tree) insertWrite(cur *node, x Interval, onOverlap OverlapFunc) *node {
	if cur == nil {
		return t.attach(nil, false, t.newNode(x))
	}
	for {
		t.visit(cur)
		switch {
		case x.Start >= cur.end: // case A: x entirely right of cur
			if cur.right == nil {
				return t.attach(cur, false, t.newNode(x))
			}
			cur = cur.right

		case x.End <= cur.start: // case A: x entirely left of cur
			if cur.left == nil {
				return t.attach(cur, true, t.newNode(x))
			}
			cur = cur.left

		case x.Start <= cur.start && cur.end <= x.End: // case D: x covers cur
			t.emitOverlap(onOverlap, cur.acc, cur.start, cur.end)
			cur.start, cur.end, cur.acc = x.Start, x.End, x.Acc
			t.removeOverlapLeft(cur, x, onOverlap)
			t.removeOverlapRight(cur, x, onOverlap)
			return cur

		case cur.start <= x.Start && x.End <= cur.end: // case C: cur covers x
			t.emitOverlap(onOverlap, cur.acc, x.Start, x.End)
			left := Interval{Start: cur.start, End: x.Start, Acc: cur.acc}
			right := Interval{Start: x.End, End: cur.end, Acc: cur.acc}
			cur.start, cur.end, cur.acc = x.Start, x.End, x.Acc
			if left.Start < left.End {
				t.insertFresh(cur, true, left)
			}
			if right.Start < right.End {
				t.insertFresh(cur, false, right)
			}
			return cur

		case cur.start < x.Start: // case B: x overlaps cur's right part
			t.emitOverlap(onOverlap, cur.acc, x.Start, cur.end)
			cur.end = x.Start
			if cur.right == nil {
				return t.attach(cur, false, t.newNode(x))
			}
			cur = cur.right

		default: // case B: x overlaps cur's left part
			t.emitOverlap(onOverlap, cur.acc, cur.start, x.End)
			cur.start = x.End
			if cur.left == nil {
				return t.attach(cur, true, t.newNode(x))
			}
			cur = cur.left
		}
	}
}

func (t *Tree) emitOverlap(onOverlap OverlapFunc, acc int32, lo, hi uint64) {
	t.stats.Overlaps++
	if onOverlap != nil {
		onOverlap(acc, lo, hi)
	}
}

// removeOverlapLeft implements RemoveOverlapLeft(y.left, x): x has just been
// installed at y, so every interval in y's old left subtree ends at or
// before x.End; those that reach past x.Start overlap x and must be trimmed
// or removed.
func (t *Tree) removeOverlapLeft(y *node, x Interval, onOverlap OverlapFunc) {
	z := y.left
	for z != nil {
		t.visit(z)
		switch {
		case z.end <= x.Start: // case A: no overlap; only z's right side can overlap
			z = z.right

		case z.start < x.Start: // case B: partial overlap; trim z, right subtree dies
			t.emitOverlap(onOverlap, z.acc, x.Start, z.end)
			z.end = x.Start
			sub := z.right
			z.right = nil
			t.dropSubtree(sub, x, onOverlap)
			return

		default: // case C: x covers z; splice z out, keep scanning its left subtree
			t.emitOverlap(onOverlap, z.acc, z.start, z.end)
			sub := z.right
			z.right = nil
			t.dropSubtree(sub, x, onOverlap)
			repl := z.left
			t.replaceChild(z, repl)
			t.size--
			t.pool.put(z)
			z = repl
		}
	}
}

// removeOverlapRight is the mirror image of removeOverlapLeft for y's right
// subtree: every interval there starts at or after x.Start; those starting
// before x.End overlap x.
func (t *Tree) removeOverlapRight(y *node, x Interval, onOverlap OverlapFunc) {
	z := y.right
	for z != nil {
		t.visit(z)
		switch {
		case z.start >= x.End: // case A
			z = z.left

		case z.end > x.End: // case B: partial overlap; trim z, left subtree dies
			t.emitOverlap(onOverlap, z.acc, z.start, x.End)
			z.start = x.End
			sub := z.left
			z.left = nil
			t.dropSubtree(sub, x, onOverlap)
			return

		default: // case C: x covers z
			t.emitOverlap(onOverlap, z.acc, z.start, z.end)
			sub := z.left
			z.left = nil
			t.dropSubtree(sub, x, onOverlap)
			repl := z.right
			t.replaceChild(z, repl)
			t.size--
			t.pool.put(z)
			z = repl
		}
	}
}
