package core

// checkInvariants panics if the BST order, the parent links, the heap
// property, the disjointness invariant or the finger's liveness (0, or a
// node of this tree) is violated. Tests call this after every operation.
func (t *Tree) checkInvariants() {
	b := t.pool.base
	var prevEnd uint16
	var count int
	var rec func(r ref)
	rec = func(r ref) {
		if r == 0 {
			return
		}
		n := at(b, r)
		for _, c := range []ref{n.left, n.right} {
			if c == 0 {
				continue
			}
			if at(b, c).parent != r {
				panic("core: bad parent link")
			}
			if at(b, c).prio > n.prio {
				panic("core: heap violation")
			}
		}
		rec(n.left)
		if n.start >= n.end {
			panic("core: empty stored interval")
		}
		if n.start < prevEnd {
			panic("core: overlapping stored intervals")
		}
		prevEnd = n.end
		count++
		rec(n.right)
	}
	if t.root != 0 && at(b, t.root).parent != 0 {
		panic("core: root has a parent")
	}
	rec(t.root)
	if count != t.size {
		panic("core: size mismatch")
	}
	if f := t.finger; f != 0 {
		for at(b, f).parent != 0 {
			f = at(b, f).parent
		}
		if f != t.root {
			panic("core: finger not reachable from the root")
		}
	}
}

// checkReadTree is checkInvariants for a tree only InsertRead has built,
// which is also maximal: no two touching nodes have the same accessor.
func (t *Tree) checkReadTree() {
	t.checkInvariants()
	var last Interval
	t.Walk(func(iv Interval) {
		if iv.Start == last.End && iv.Acc == last.Acc && last.Start < last.End {
			panic("core: touching read nodes with one accessor")
		}
		last = iv
	})
}
