package core

// piece is a left remainder of the interval being inserted, set aside by
// case D: it belongs in the left subtree of under, which may be empty. Read
// insertion defers these through a worklist so that all structural changes
// finish before any rebalancing rotation runs.
type piece struct {
	under      ref
	start, end uint16
}

// InsertRead inserts a read interval x, implementing InsertReadInterval from
// §4.2 of the paper. The read tree stores the leftmost reader of every word,
// so on overlap the stored accessor survives unless the new accessor is
// left-of it — which means the new interval, not the old one, may be split
// into pieces that recurse into both subtrees (case D).
//
// leftOf decides the winner; onOverlap (optional) reports every stored
// interval the operation overlaps, mirroring InsertWrite's accounting. The
// finger ends where x's own walk did, on its rightmost piece.
func (t *Tree) InsertRead(iv Interval, leftOf LeftOfFunc, onOverlap OverlapFunc) {
	if iv.Start >= iv.End {
		panic("core: empty read interval")
	}
	x, b := t.local(iv), t.pool.base
	t.stats.Ops++
	if c := t.climb(b, t.fingerOrRoot(b, x), x); c == 0 {
		t.finger = t.attach(0, false, t.newNode(x))
	} else {
		t.finger = t.insertRead(c, x, leftOf, onOverlap)
	}
	for len(t.work) > 0 {
		p := t.work[len(t.work)-1]
		t.work = t.work[:len(t.work)-1]
		rest := span{start: p.start, end: p.end, acc: x.acc}
		if c := at(t.pool.base, p.under).left; c == 0 {
			t.attach(p.under, true, t.newNode(rest))
		} else {
			t.insertRead(c, rest, leftOf, onOverlap)
		}
	}
	if len(t.fresh) > 0 {
		t.rebalance()
	}
}

// insertRead performs the §4.2 case walk for one pending interval from c
// down and returns the node the walk ended on. Case D carries on with the
// remainder right of the covered node and leaves the one left of it on the
// worklist instead of recursing. Every path that draws a node returns right
// after, so the slab base read on entry serves the whole walk.
func (t *Tree) insertRead(c ref, x span, leftOf LeftOfFunc, onOverlap OverlapFunc) ref {
	b := t.pool.base
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
			if leftOf(x.acc, cur.acc) {
				cur.acc = x.acc
			}
			if x.start < cur.start {
				t.work = append(t.work, piece{under: c, start: x.start, end: cur.start})
			}
			if cur.end >= x.end {
				return c
			}
			x.start = cur.end
			if cur.right == 0 {
				return t.attach(c, false, t.newNode(x))
			}
			c = cur.right

		case cur.start <= x.start && x.end <= cur.end: // case C: cur covers x
			t.emitOverlap(onOverlap, cur.acc, x.start, x.end)
			if !leftOf(x.acc, cur.acc) {
				return c // old reader keeps the whole interval
			}
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
			if leftOf(x.acc, cur.acc) {
				cur.end = x.start // new reader takes the overlap
			} else {
				x.start = cur.end // old reader keeps it; trim x
			}
			if cur.right == 0 {
				return t.attach(c, false, t.newNode(x))
			}
			c = cur.right

		default: // case B: x overlaps cur's left part
			t.emitOverlap(onOverlap, cur.acc, cur.start, x.end)
			if leftOf(x.acc, cur.acc) {
				cur.start = x.end
			} else {
				x.end = cur.start
			}
			if cur.left == 0 {
				return t.attach(c, true, t.newNode(x))
			}
			c = cur.left
		}
	}
}
