// Package dag extends the race detector to arbitrary task DAGs — the
// paper's first future-work direction (§7): "for programming constructs
// such as futures, it is not sufficient to store one reader per memory
// location, and generalizing our shadow memory to such programs would be
// interesting."
//
// The user declares the DAG explicitly — nodes and dependency edges — and
// the runner executes the nodes serially in a topological order, shadowing
// their memory accesses. Reachability for an arbitrary static DAG is
// precomputed as ancestor bitsets (O(V·E/64) time, O(V²/64) space), making
// Parallel queries O(1); this bounds the runner to moderate DAG sizes
// (tens of thousands of nodes), which is the intended scope — schedulers,
// build graphs, futures patterns — rather than the million-strand fork-join
// programs the stint runner handles with SP-Order.
//
// The access history generalizes the paper's design exactly where theory
// requires it:
//
//   - writes still need only the last writer per word (for any DAG, the
//     execution order is a linear extension, so an earlier writer parallel
//     with a future node either already raced with the stored writer or is
//     ordered before it); the write history is the paper's interval treap,
//     unchanged — one per 64 KiB page, as in the fork-join engine;
//   - reads need a set of readers: with no series-parallel structure there
//     is no "leftmost" single witness. The read history is
//     stint/internal/multiread: intervals carrying antichains of readers,
//     pruned by the happens-before relation.
//
// The rest is the fork-join detector's own: Run hands the ancestor bitsets to
// stint.Runner.RunStrands as a Reach whose Series selects that read history.
// By the paper's §7 a DAG needs a different *history* and nothing else.
package dag

import (
	"errors"
	"fmt"

	"stint"
)

// NodeID identifies a node of a Graph.
type NodeID = int32

// Graph is a user-declared task DAG. Build it with Node and Edge, then
// execute it with Runner.Run.
type Graph struct {
	names []string
	preds [][]NodeID
	succs [][]NodeID
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// Node adds a node with a diagnostic name and returns its ID.
func (g *Graph) Node(name string) NodeID {
	id := NodeID(len(g.names))
	g.names = append(g.names, name)
	g.preds = append(g.preds, nil)
	g.succs = append(g.succs, nil)
	return id
}

// Edge declares that from must complete before to starts.
func (g *Graph) Edge(from, to NodeID) {
	if int(from) >= len(g.names) || int(to) >= len(g.names) || from < 0 || to < 0 {
		panic(fmt.Sprintf("dag: edge (%d,%d) references unknown nodes", from, to))
	}
	if from == to {
		panic(fmt.Sprintf("dag: self-edge on node %d", from))
	}
	g.succs[from] = append(g.succs[from], to)
	g.preds[to] = append(g.preds[to], from)
}

// Serial chains the given nodes with edges in order — a convenience for
// sequential segments.
func (g *Graph) Serial(ids ...NodeID) {
	for i := 1; i < len(ids); i++ {
		g.Edge(ids[i-1], ids[i])
	}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.names) }

// Name returns the diagnostic name of a node.
func (g *Graph) Name(id NodeID) string { return g.names[id] }

// topoOrder returns a deterministic topological order (smallest ready ID
// first) or an error if the graph has a cycle.
func (g *Graph) topoOrder() ([]NodeID, error) {
	n := len(g.names)
	indeg := make([]int, n)
	for _, ss := range g.succs {
		for _, s := range ss {
			indeg[s]++
		}
	}
	// A simple binary heap keyed by ID keeps the order deterministic.
	var ready intHeap
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready.push(NodeID(i))
		}
	}
	order := make([]NodeID, 0, n)
	for ready.len() > 0 {
		v := ready.pop()
		order = append(order, v)
		for _, s := range g.succs[v] {
			indeg[s]--
			if indeg[s] == 0 {
				ready.push(s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("dag: graph has a cycle (%d of %d nodes unreachable from sources)", n-len(order), n)
	}
	return order, nil
}

// intHeap is a minimal binary min-heap of NodeIDs.
type intHeap struct{ v []NodeID }

func (h *intHeap) len() int { return len(h.v) }

func (h *intHeap) push(x NodeID) {
	h.v = append(h.v, x)
	i := len(h.v) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.v[p] <= h.v[i] {
			break
		}
		h.v[p], h.v[i] = h.v[i], h.v[p]
		i = p
	}
}

func (h *intHeap) pop() NodeID {
	top := h.v[0]
	last := len(h.v) - 1
	h.v[0] = h.v[last]
	h.v = h.v[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.v) && h.v[l] < h.v[small] {
			small = l
		}
		if r < len(h.v) && h.v[r] < h.v[small] {
			small = r
		}
		if small == i {
			return top
		}
		h.v[i], h.v[small] = h.v[small], h.v[i]
		i = small
	}
}

// reach holds the precomputed ancestor bitsets.
type reach struct {
	words int
	anc   []uint64 // node i's ancestors at anc[i*words : (i+1)*words]
	cur   NodeID
}

func newReach(g *Graph, order []NodeID) *reach {
	n := g.Len()
	words := (n + 63) / 64
	r := &reach{words: words, anc: make([]uint64, n*words)}
	for _, v := range order {
		row := r.anc[int(v)*words : (int(v)+1)*words]
		for _, p := range g.preds[v] {
			prow := r.anc[int(p)*words : (int(p)+1)*words]
			for w := range row {
				row[w] |= prow[w]
			}
			row[p/64] |= 1 << (uint(p) % 64)
		}
	}
	return r
}

// Series reports a happens-before b. It makes reach a general-DAG
// stint.Reach: the engine keeps antichains of readers and prunes them by it.
func (r *reach) Series(a, b int32) bool {
	return r.anc[int(b)*r.words+int(a)/64]&(1<<(uint(a)%64)) != 0
}

// Parallel reports whether a and b are logically parallel.
func (r *reach) Parallel(a, b int32) bool {
	return a != b && !r.Series(a, b) && !r.Series(b, a)
}

// CurrentID returns the executing node.
func (r *reach) CurrentID() int32 { return int32(r.cur) }

// LeftOf is unused by the multi-reader engine but completes stint.Reach
// (and serves the brute-force oracle): execution order stands in for the
// sequential order.
func (r *reach) LeftOf(a, b int32) bool { return a > b }

// Options configures a DAG runner.
type Options struct {
	// OnRace receives every race as it is found.
	OnRace func(stint.Race)
	// MaxRacesRecorded bounds Report.Races (default 64).
	MaxRacesRecorded int
}

// Runner executes declared DAGs under multi-reader race detection.
type Runner struct {
	sr *stint.Runner
}

// NewRunner validates opts with stint.NewRunner and keeps that Runner.
func NewRunner(opts Options) (*Runner, error) {
	sr, err := stint.NewRunner(stint.Options{Detector: stint.DetectorSTINT, OnRace: opts.OnRace, MaxRacesRecorded: opts.MaxRacesRecorded})
	if err != nil {
		return nil, err
	}
	return &Runner{sr: sr}, nil
}

// Arena returns the Runner's address arena.
func (r *Runner) Arena() *stint.Arena { return r.sr.Arena() }

// Node is the hook receiver for one DAG node's execution: a stint.Task,
// whose Load/Store/LoadRange/StoreRange it offers. The DAG is declared, so
// Spawn panics.
type Node = stint.Task

// Run executes the graph's nodes in topological order under multi-reader
// detection and returns the report. Report.Races are in canonical order,
// ranked by each race's later node's position in that order.
func (r *Runner) Run(g *Graph, body func(n *Node, id NodeID)) (*stint.Report, error) {
	if g.Len() == 0 {
		return nil, errors.New("dag: empty graph")
	}
	order, err := g.topoOrder()
	if err != nil {
		return nil, err
	}
	rc := newReach(g, order)
	return r.sr.RunStrands(rc, len(order), func(n *Node, i int) {
		rc.cur = order[i]
		body(n, rc.cur)
	})
}
