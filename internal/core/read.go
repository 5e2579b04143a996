package core

import "unsafe"

// InsertRead inserts a read interval x, implementing InsertReadInterval from
// §4.2 of the paper. The read tree stores the leftmost reader of every word,
// so on overlap the stored accessor survives unless the new accessor is
// left-of it — which means the new interval, not the old one, may be split
// around the nodes it loses to.
//
// The tree is also kept maximal — no two touching nodes have the same
// accessor — so it holds one node per (reader, contiguous range) of its word
// projection, a count Lemma 4.1's 2m+1 bounds. InsertRead visits the nodes
// that overlap or touch x in address order, from the leftmost (found as
// Query finds it) through successors:
//
//   - a node x loses to stays whole and splits x;
//   - a node x beats gives up what it shares with x: trimmed if it reaches
//     past one end of x (case B), split if it covers x (case C), taken over
//     if x covers it (case D);
//   - a node of x's accessor, a taken-over one included, joins x's run,
//     whose node grows over it (absorb): one of the two goes to the pool;
//   - what of x no node holds extends the run, or starts a new node (fill).
//
// leftOf decides the winner; onOverlap (optional) reports every stored
// interval the operation overlaps, mirroring InsertWrite's accounting. The
// finger ends on the node starting at x.end if the walk met one, else on the
// node holding the last word it settled.
func (t *Tree) InsertRead(iv Interval, leftOf LeftOfFunc, onOverlap OverlapFunc) {
	if iv.Start >= iv.End {
		panic("core: empty read interval")
	}
	x, b := t.local(iv), t.pool.base
	t.stats.Ops++
	low, up := t.readStart(b, x)
	n, prev := t.lowerBound(b, low, up, x)
	// Below pos, x is settled: run is the node holding x's accessor up to pos,
	// if one does, prev the node the walk left in place just before n, and
	// edge a node starting at x.end, once the walk has met one.
	pos, run, edge := x.start, ownBefore(b, prev, x), ref(0)
loop:
	for n != 0 {
		cur := at(b, n)
		if cur.start > x.end || cur.start == x.end && cur.acc != x.acc {
			if cur.start == x.end {
				edge = n
			}
			break
		}
		own := cur.acc == x.acc
		takes := own
		if cur.start < x.end && cur.end > x.start {
			t.emitOverlap(onOverlap, cur.acc, max(cur.start, x.start), min(cur.end, x.end))
			takes = own || leftOf(x.acc, cur.acc)
		}
		switch {
		case !takes: // x loses cur: the run ends
			end := cur.end
			if pos < cur.start {
				t.fill(prev, n, run, span{start: pos, end: cur.start, acc: x.acc})
				b = t.pool.base
			}
			pos, run, prev = max(pos, end), 0, n
		case !own && cur.start < x.start && x.end < cur.end: // case C: cur covers x
			right := span{start: x.end, end: cur.end, acc: cur.acc}
			cur.end = x.start
			mid := t.insertFresh(n, false, x)
			t.finger = t.attach(mid, false, t.newNode(right))
			t.rebalance()
			return
		case !own && cur.start < x.start: // case B: cur keeps what precedes x
			cur.end = x.start
			prev = n
		default: // x holds cur from its start on
			if cur.start == x.start && cur.left != 0 { // cur's predecessor is under it
				for prev = cur.left; at(b, prev).right != 0; prev = at(b, prev).right {
					t.visit()
				}
				t.visit()
				run = ownBefore(b, prev, x)
			}
			if !own && x.end < cur.end { // case B: cur keeps what follows x
				cur.start, edge = x.end, n
				break loop
			}
			// Case D, or cur already holds x's accessor: it joins the run.
			// Only a node of x's accessor touching x.end could join after it.
			end, c := cur.end, n
			if end <= x.end {
				n = t.successor(b, c) // while c is still linked in
			}
			if cur.acc = x.acc; run == 0 {
				cur.start, run = min(cur.start, pos), c
			} else {
				run = t.absorb(b, run, c)
			}
			if pos, prev = end, run; end > x.end {
				break loop
			}
			continue
		}
		if pos >= x.end {
			break
		}
		n = t.successor(b, n)
	}
	if pos < x.end {
		prev = t.fill(prev, n, run, span{start: pos, end: x.end, acc: x.acc})
	}
	if t.finger = prev; edge != 0 {
		t.finger = edge
	}
	if len(t.fresh) > 0 {
		t.rebalance()
	}
}

// ownBefore returns p if it is a node of x's accessor that ends where x
// starts — the run x continues — and 0 otherwise.
func ownBefore(b unsafe.Pointer, p ref, x span) ref {
	if n := at(b, p); p != 0 && n.end == x.start && n.acc == x.acc {
		return p
	}
	return 0
}

// readStart is seek for InsertRead, which must also see a node that ends
// where x starts: an ancestor the finger hangs right of ends at or before the
// finger's start, so the finger serves only an x that starts past it.
func (t *Tree) readStart(b unsafe.Pointer, x span) (start, up ref) {
	s := x
	s.start -= min(s.start, 1)
	return t.climb(b, t.fingerOrRoot(b, s), x)
}

// fill gives s, a gap between in-order neighbours prev and next (either may
// be 0), to the run ending at s.start, or, with no run, to a new node in
// whichever of prev's right and next's left slot is empty — of two in-order
// neighbours, exactly one has that slot free. It returns the node holding s.
func (t *Tree) fill(prev, next, run ref, s span) ref {
	if run != 0 {
		at(t.pool.base, run).end = s.end
		return run
	}
	r := t.newNode(s)
	if prev != 0 && at(t.pool.base, prev).right == 0 {
		return t.attach(prev, false, r)
	}
	return t.attach(next, true, r)
}

// absorb merges c into a, its in-order predecessor with the same accessor,
// over any gap between them, and returns the node that holds the union. Of
// two in-order neighbours one descends from the other with no child on the
// side facing it, so that one is spliced out — replaced by its other child,
// which keeps the heap order — and goes back to the pool.
func (t *Tree) absorb(b unsafe.Pointer, a, c ref) ref {
	an, cn := at(b, a), at(b, c)
	keep, drop, child := a, c, cn.right
	if an.right != 0 { // c is the leftmost node of a's right subtree
		an.end = cn.end
	} else { // a is the rightmost node of c's left subtree
		cn.start = an.start
		keep, drop, child = c, a, an.left
	}
	t.replaceChild(b, drop, child)
	t.size--
	t.pool.put(drop)
	return keep
}
