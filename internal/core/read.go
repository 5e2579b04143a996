package core

// piece is a left remainder of the interval being inserted, set aside by
// case D: it belongs in the left subtree of under, which may be empty. Read
// insertion defers these through a worklist so that all structural changes
// finish before any rebalancing rotation runs.
type piece struct {
	under      *node
	start, end uint64
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
func (t *Tree) InsertRead(x Interval, leftOf LeftOfFunc, onOverlap OverlapFunc) {
	if x.Start >= x.End {
		panic("core: empty read interval")
	}
	t.stats.Ops++
	if cur := t.seek(x); cur == nil {
		t.finger = t.attach(nil, false, t.newNode(x))
	} else {
		t.finger = t.insertRead(cur, x, leftOf, onOverlap)
	}
	for len(t.work) > 0 {
		p := t.work[len(t.work)-1]
		t.work = t.work[:len(t.work)-1]
		rest := Interval{Start: p.start, End: p.end, Acc: x.Acc}
		if p.under.left == nil {
			t.attach(p.under, true, t.newNode(rest))
		} else {
			t.insertRead(p.under.left, rest, leftOf, onOverlap)
		}
	}
	t.rebalance()
}

// insertRead performs the §4.2 case walk for one pending interval from cur
// down and returns the node the walk ended on. Case D carries on with the
// remainder right of the covered node and leaves the one left of it on the
// worklist instead of recursing.
func (t *Tree) insertRead(cur *node, x Interval, leftOf LeftOfFunc, onOverlap OverlapFunc) *node {
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
			if leftOf(x.Acc, cur.acc) {
				cur.acc = x.Acc
			}
			if x.Start < cur.start {
				t.work = append(t.work, piece{under: cur, start: x.Start, end: cur.start})
			}
			if cur.end >= x.End {
				return cur
			}
			x.Start = cur.end
			if cur.right == nil {
				return t.attach(cur, false, t.newNode(x))
			}
			cur = cur.right

		case cur.start <= x.Start && x.End <= cur.end: // case C: cur covers x
			t.emitOverlap(onOverlap, cur.acc, x.Start, x.End)
			if !leftOf(x.Acc, cur.acc) {
				return cur // old reader keeps the whole interval
			}
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
			if leftOf(x.Acc, cur.acc) {
				cur.end = x.Start // new reader takes the overlap
			} else {
				x.Start = cur.end // old reader keeps it; trim x
			}
			if cur.right == nil {
				return t.attach(cur, false, t.newNode(x))
			}
			cur = cur.right

		default: // case B: x overlaps cur's left part
			t.emitOverlap(onOverlap, cur.acc, cur.start, x.End)
			if leftOf(x.Acc, cur.acc) {
				cur.start = x.End
			} else {
				x.End = cur.start
			}
			if cur.left == nil {
				return t.attach(cur, true, t.newNode(x))
			}
			cur = cur.left
		}
	}
}
