package om

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveList mirrors an OM list as a plain slice so every test can compare
// Before against ground-truth positions.
type naiveList struct {
	nodes []*Node
}

func (nl *naiveList) indexOf(n *Node) int {
	for i, x := range nl.nodes {
		if x == n {
			return i
		}
	}
	return -1
}

func (nl *naiveList) insertAfter(x, n *Node) {
	if x == nil {
		nl.nodes = append([]*Node{n}, nl.nodes...)
		return
	}
	i := nl.indexOf(x)
	if i < 0 {
		panic("naiveList: unknown node")
	}
	nl.nodes = append(nl.nodes, nil)
	copy(nl.nodes[i+2:], nl.nodes[i+1:])
	nl.nodes[i+1] = n
}

func checkAgainstNaive(t *testing.T, nl *naiveList) {
	t.Helper()
	for i, a := range nl.nodes {
		for j, b := range nl.nodes {
			got := Before(a, b)
			want := i < j
			if got != want {
				t.Fatalf("Before(#%d, #%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestEmptyList(t *testing.T) {
	l := NewList()
	if l.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", l.Len())
	}
	if l.Front() != nil {
		t.Fatalf("Front() = %v, want nil", l.Front())
	}
}

func TestSingleNode(t *testing.T) {
	l := NewList()
	n := l.InsertAfter(nil)
	if l.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", l.Len())
	}
	if l.Front() != n {
		t.Fatalf("Front() != inserted node")
	}
	if Before(n, n) {
		t.Fatal("node precedes itself")
	}
}

func TestAppendChain(t *testing.T) {
	l := NewList()
	nl := &naiveList{}
	cur := l.InsertAfter(nil)
	nl.nodes = append(nl.nodes, cur)
	for i := 0; i < 500; i++ {
		n := l.InsertAfter(cur)
		nl.insertAfter(cur, n)
		cur = n
	}
	if l.Len() != 501 {
		t.Fatalf("Len() = %d, want 501", l.Len())
	}
	checkAgainstNaive(t, nl)
}

func TestPrependChain(t *testing.T) {
	l := NewList()
	nl := &naiveList{}
	for i := 0; i < 500; i++ {
		n := l.InsertAfter(nil)
		nl.insertAfter(nil, n)
	}
	checkAgainstNaive(t, nl)
}

func TestInsertAllAfterFront(t *testing.T) {
	// Repeated insertion at the same point exhausts label gaps fastest and
	// exercises both node and group relabeling.
	l := NewList()
	nl := &naiveList{}
	front := l.InsertAfter(nil)
	nl.nodes = append(nl.nodes, front)
	for i := 0; i < 1000; i++ {
		n := l.InsertAfter(front)
		nl.insertAfter(front, n)
	}
	checkAgainstNaive(t, nl)
}

func TestInsertMiddleRepeatedly(t *testing.T) {
	l := NewList()
	nl := &naiveList{}
	a := l.InsertAfter(nil)
	b := l.InsertAfter(a)
	nl.nodes = []*Node{a, b}
	target := a
	for i := 0; i < 800; i++ {
		n := l.InsertAfter(target)
		nl.insertAfter(target, n)
		if i%2 == 0 {
			target = n // drift the insertion point
		}
	}
	checkAgainstNaive(t, nl)
}

func TestRandomInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := NewList()
	nl := &naiveList{}
	first := l.InsertAfter(nil)
	nl.nodes = append(nl.nodes, first)
	for i := 0; i < 2000; i++ {
		after := nl.nodes[rng.Intn(len(nl.nodes))]
		n := l.InsertAfter(after)
		nl.insertAfter(after, n)
	}
	if l.Len() != len(nl.nodes) {
		t.Fatalf("Len() = %d, want %d", l.Len(), len(nl.nodes))
	}
	// Full O(n^2) check is too slow at 2000 nodes; sample pairs instead.
	for trial := 0; trial < 20000; trial++ {
		i := rng.Intn(len(nl.nodes))
		j := rng.Intn(len(nl.nodes))
		if got, want := Before(nl.nodes[i], nl.nodes[j]), i < j; got != want {
			t.Fatalf("Before(#%d, #%d) = %v, want %v", i, j, got, want)
		}
	}
}

func TestLinkedTraversalMatchesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewList()
	nl := &naiveList{}
	first := l.InsertAfter(nil)
	nl.nodes = append(nl.nodes, first)
	for i := 0; i < 300; i++ {
		after := nl.nodes[rng.Intn(len(nl.nodes))]
		n := l.InsertAfter(after)
		nl.insertAfter(after, n)
	}
	// Walking Next from Front must visit nodes in naive order.
	i := 0
	for n := l.Front(); n != nil; n = n.Next() {
		if nl.nodes[i] != n {
			t.Fatalf("traversal position %d: wrong node", i)
		}
		i++
	}
	if i != len(nl.nodes) {
		t.Fatalf("traversed %d nodes, want %d", i, len(nl.nodes))
	}
	// And Prev from the last node must visit them in reverse.
	last := nl.nodes[len(nl.nodes)-1]
	i = len(nl.nodes) - 1
	for n := last; n != nil; n = n.Prev() {
		if nl.nodes[i] != n {
			t.Fatalf("reverse traversal position %d: wrong node", i)
		}
		i--
	}
	if i != -1 {
		t.Fatalf("reverse traversal stopped at index %d", i)
	}
}

// TestQuickRandomSequences drives random insert scripts through the list and
// verifies total-order consistency, via testing/quick.
func TestQuickRandomSequences(t *testing.T) {
	f := func(seed int64, opsRaw uint16) bool {
		ops := int(opsRaw%400) + 1
		rng := rand.New(rand.NewSource(seed))
		l := NewList()
		nl := &naiveList{}
		for i := 0; i < ops; i++ {
			var after *Node
			if len(nl.nodes) > 0 && rng.Intn(8) != 0 {
				after = nl.nodes[rng.Intn(len(nl.nodes))]
			}
			n := l.InsertAfter(after)
			nl.insertAfter(after, n)
		}
		for trial := 0; trial < 500; trial++ {
			i := rng.Intn(len(nl.nodes))
			j := rng.Intn(len(nl.nodes))
			if Before(nl.nodes[i], nl.nodes[j]) != (i < j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTransitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := NewList()
	var nodes []*Node
	nodes = append(nodes, l.InsertAfter(nil))
	for i := 0; i < 200; i++ {
		nodes = append(nodes, l.InsertAfter(nodes[rng.Intn(len(nodes))]))
	}
	for trial := 0; trial < 5000; trial++ {
		a := nodes[rng.Intn(len(nodes))]
		b := nodes[rng.Intn(len(nodes))]
		c := nodes[rng.Intn(len(nodes))]
		if Before(a, b) && Before(b, c) && !Before(a, c) {
			t.Fatal("transitivity violated")
		}
		if a != b && Before(a, b) == Before(b, a) {
			t.Fatal("antisymmetry violated")
		}
	}
}

func BenchmarkInsertAfterSequential(b *testing.B) {
	l := NewList()
	cur := l.InsertAfter(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur = l.InsertAfter(cur)
	}
}

func BenchmarkInsertAfterSamePoint(b *testing.B) {
	l := NewList()
	front := l.InsertAfter(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.InsertAfter(front)
	}
}

func BenchmarkBefore(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	l := NewList()
	var nodes []*Node
	nodes = append(nodes, l.InsertAfter(nil))
	for i := 0; i < 10000; i++ {
		nodes = append(nodes, l.InsertAfter(nodes[rng.Intn(len(nodes))]))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Before(nodes[i%len(nodes)], nodes[(i*7+1)%len(nodes)])
	}
}

// insertScript returns n random insertion points: entry i is the index of
// the node the i-th insert goes after, or -1 for the front.
func insertScript(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	script := make([]int, n)
	for i := range script {
		script[i] = rng.Intn(i+1) - 1
	}
	return script
}

// replayInserts runs script on l into nodes, which must have room for it.
func replayInserts(l *List, script []int, nodes []*Node) {
	for i, after := range script {
		var x *Node
		if after >= 0 {
			x = nodes[after]
		}
		nodes[i] = l.InsertAfter(x)
	}
}

// TestResetMatchesFresh: a list Reset after another script answers the next
// script exactly like a fresh list — every label and group label, so every
// Before — and the warm rerun allocates nothing.
func TestResetMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		script := insertScript(seed, 700) // past several groups and slab chunks
		fresh, reused := NewList(), NewList()
		want, got := make([]*Node, len(script)), make([]*Node, len(script))
		replayInserts(fresh, script, want)
		replayInserts(reused, insertScript(seed+100, 900), make([]*Node, 900))
		reused.Reset()
		replayInserts(reused, script, got)
		if reused.Len() != fresh.Len() {
			t.Fatalf("seed %d: Len %d, fresh %d", seed, reused.Len(), fresh.Len())
		}
		for i := range script {
			if got[i].label != want[i].label || got[i].group.label != want[i].group.label {
				t.Fatalf("seed %d: node %d labelled (%d, %d), fresh (%d, %d)", seed, i,
					got[i].group.label, got[i].label, want[i].group.label, want[i].label)
			}
			for j := range script {
				if Before(got[i], got[j]) != Before(want[i], want[j]) {
					t.Fatalf("seed %d: Before(%d, %d) differs from the fresh list", seed, i, j)
				}
			}
		}
		rerun := func() {
			reused.Reset()
			replayInserts(reused, script, got)
		}
		if n := testing.AllocsPerRun(5, rerun); n != 0 {
			t.Fatalf("seed %d: a warm rerun cost %v allocations, want 0", seed, n)
		}
	}
}
