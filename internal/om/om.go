// Package om implements an order-maintenance list.
//
// An order-maintenance (OM) list supports two operations: insert a new
// element immediately after an existing one, and ask whether element a
// precedes element b, both in amortized constant time. SP-Order (Bender,
// Fineman, Gilbert, Leiserson; SPAA 2004) maintains two such lists — the
// "English" and "Hebrew" total orders over strands — and answers
// series/parallel reachability queries for fork-join programs with two order
// queries. This package is the data-structure substrate for
// stint/internal/spord.
//
// The implementation is the classic two-level scheme: elements are packed
// into groups of O(1) size whose members carry 64-bit labels inside the
// group, and the groups themselves form a linked list labeled with the
// Dietz–Sleator relabeling strategy (scan forward until the label gap
// exceeds the square of the number of nodes scanned, then spread those
// labels evenly). Order queries compare (group label, element label) pairs.
// Deletions are not supported: race detection never discards a strand that
// may still be referenced by the access history.
package om

import (
	"math"

	"stint/internal/slab"
)

// Node is an element of an order-maintenance list. Nodes are created only by
// List.InsertAfter and are valid for the lifetime of the list.
type Node struct {
	group *group
	label uint64
	prev  *Node
	next  *Node
}

// group is a bounded run of consecutive nodes sharing one top-level label.
type group struct {
	label uint64
	size  int
	first *Node
	last  *Node
	prev  *group
	next  *group
	list  *List
}

const (
	// maxGroupSize bounds the number of nodes per group. Splitting at this
	// size keeps intra-group relabels O(1).
	maxGroupSize = 64
	// nodeStride spaces node labels inside a group far enough apart that a
	// group fills up before its label space does.
	nodeStride = 1 << 32
	// groupStride is the initial spacing between consecutive group labels.
	groupStride = 1 << 32
)

// List is an order-maintenance list. The zero value is an empty list ready
// for use.
type List struct {
	head *group // first group, nil when empty
	tail *group
	len  int
	// Nodes and groups are carved out of slabs: they stay valid until
	// Reset, which rewinds both and keeps the chunks the last run used, so
	// steady-state reuse allocates nothing.
	nodes  slab.Slab[Node]
	groups slab.Slab[group]
}

// Reset empties the list for reuse, keeping the chunks the last run used
// (slab.Slab.Trim frees the rest past twice that). All Nodes returned by
// InsertAfter are recycled wholesale — the caller must drop every reference
// before Reset (race detection only ever does this between runs, when the
// whole strand set dies at once). A Reset list is indistinguishable from
// NewList() except for its retained capacity.
func (l *List) Reset() {
	l.nodes.Trim()
	l.groups.Trim()
	l.head, l.tail, l.len = nil, nil, 0
}

// Retained returns how many nodes and groups the list's slabs hold.
func (l *List) Retained() int { return l.nodes.Cap() + l.groups.Cap() }

// NewList returns an empty order-maintenance list.
func NewList() *List { return &List{} }

// Len returns the number of nodes in the list.
func (l *List) Len() int { return l.len }

// Front returns the first node in the list, or nil if the list is empty.
func (l *List) Front() *Node {
	if l.head == nil {
		return nil
	}
	return l.head.first
}

// InsertAfter inserts a new node immediately after x and returns it.
// If x is nil the node is inserted at the front of the list.
func (l *List) InsertAfter(x *Node) *Node {
	l.len++
	if x == nil {
		return l.pushFront()
	}
	g := x.group
	n := l.nodes.New()
	n.group, n.prev, n.next = g, x, x.next
	if x.next != nil {
		x.next.prev = n
	}
	x.next = n
	if g.last == x {
		g.last = n
	}
	g.size++
	l.assignLabel(n, x)
	if g.size > maxGroupSize {
		g.split()
	}
	return n
}

// pushFront handles insertion at the head of the list.
func (l *List) pushFront() *Node {
	n := l.nodes.New()
	if l.head == nil {
		g := l.groups.New()
		g.label, g.size, g.first, g.last, g.list = math.MaxUint64/2, 1, n, n, l
		n.group = g
		n.label = math.MaxUint64 / 2
		l.head = g
		l.tail = g
		return n
	}
	g := l.head
	first := g.first
	n.group = g
	n.next = first
	first.prev = n
	g.first = n
	g.size++
	if first.label == 0 {
		g.relabelNodes()
	} else {
		n.label = first.label / 2
	}
	if g.size > maxGroupSize {
		g.split()
	}
	return n
}

// assignLabel gives n, already linked after x inside x's group, a label
// strictly between x and its successor, relabeling the group if the gap is
// exhausted.
func (l *List) assignLabel(n, x *Node) {
	var hi uint64
	if n.next != nil && n.next.group == n.group {
		hi = n.next.label
	} else {
		hi = math.MaxUint64
	}
	if hi-x.label >= 2 {
		n.label = x.label + (hi-x.label)/2
		return
	}
	n.group.relabelNodes()
}

// relabelNodes spreads the labels of every node in g evenly.
func (g *group) relabelNodes() {
	label := uint64(nodeStride)
	for n := g.first; ; n = n.next {
		n.label = label
		label += nodeStride
		if n == g.last {
			break
		}
	}
}

// split divides g into two groups of half size and inserts the second half
// as a new group after g in the top-level list.
func (g *group) split() {
	half := g.size / 2
	mid := g.first
	for i := 1; i < half; i++ {
		mid = mid.next
	}
	ng := g.list.groups.New()
	ng.size, ng.first, ng.last = g.size-half, mid.next, g.last
	ng.prev, ng.next, ng.list = g, g.next, g.list
	for n := ng.first; ; n = n.next {
		n.group = ng
		if n == ng.last {
			break
		}
	}
	g.size = half
	g.last = mid
	if g.next != nil {
		g.next.prev = ng
	} else {
		g.list.tail = ng
	}
	g.next = ng
	g.relabelNodes()
	ng.relabelNodes()
	g.list.insertGroupLabel(ng)
}

// insertGroupLabel assigns ng, already linked after ng.prev, a top-level
// label, relabeling a window of following groups Dietz–Sleator style when
// the immediate gap is exhausted.
func (l *List) insertGroupLabel(ng *group) {
	prev := ng.prev
	gap := l.gapAfter(prev, ng.next)
	if gap >= 2 {
		ng.label = prev.label + gap/2
		return
	}
	// Relabel: scan forward from prev until the label gap over the scanned
	// window exceeds the square of the window size, then spread evenly.
	count := uint64(0)
	w := ng.next
	for {
		count++
		var wGap uint64
		if w == nil {
			wGap = math.MaxUint64 - prev.label
		} else {
			wGap = w.label - prev.label
		}
		if wGap > count*count {
			// Spread the count-1 scanned groups (everything strictly between
			// prev and w) plus ng evenly across (prev.label, prev.label+wGap).
			stride := wGap / (count + 1)
			if stride == 0 {
				stride = 1
			}
			label := prev.label + stride
			for g := ng; g != w; g = g.next {
				g.label = label
				label += stride
			}
			return
		}
		if w == nil {
			// The whole tail is scanned and even the full remaining label
			// space is dense; renumber every group from scratch.
			l.renumberAllGroups()
			return
		}
		w = w.next
	}
}

// gapAfter returns the label distance from g to its successor succ (nil
// meaning end of list).
func (l *List) gapAfter(g, succ *group) uint64 {
	if succ == nil {
		return math.MaxUint64 - g.label
	}
	return succ.label - g.label
}

// renumberAllGroups spaces every group label groupStride apart.
func (l *List) renumberAllGroups() {
	label := uint64(groupStride)
	for g := l.head; g != nil; g = g.next {
		g.label = label
		label += groupStride
	}
}

// Before reports whether a precedes b in the list order. A node does not
// precede itself.
func Before(a, b *Node) bool {
	if a.group == b.group {
		return a.label < b.label
	}
	return a.group.label < b.group.label
}

// Next returns the node after n, or nil at the end of the list. It is
// provided for tests and iteration; detector code uses only Before.
func (n *Node) Next() *Node { return n.next }

// Prev returns the node before n, or nil at the front of the list.
func (n *Node) Prev() *Node { return n.prev }
