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
// Runtime coalescing carries over unchanged — it is the fork-join
// detectors' own detect.Coalescer, flushed per node: by the paper's §7 a
// DAG needs a different *history* and nothing else.
package dag

import (
	"errors"
	"fmt"
	"time"

	"stint"
	"stint/internal/coalesce"
	"stint/internal/core"
	"stint/internal/detect"
	"stint/internal/mem"
	"stint/internal/multiread"
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

// series reports a happens-before b.
func (r *reach) series(a, b int32) bool {
	return r.anc[int(b)*r.words+int(a)/64]&(1<<(uint(a)%64)) != 0
}

// Parallel reports whether a and b are logically parallel.
func (r *reach) Parallel(a, b int32) bool {
	return a != b && !r.series(a, b) && !r.series(b, a)
}

// CurrentID returns the executing node.
func (r *reach) CurrentID() int32 { return int32(r.cur) }

// LeftOf is unused by the multi-reader engine but satisfies
// detect.Reach-style callers (the brute-force oracle): execution order
// stands in for the sequential order.
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
	opts  Options
	arena *stint.Arena
}

// NewRunner validates opts with stint.NewRunner and keeps that Runner's empty Arena.
func NewRunner(opts Options) (*Runner, error) {
	sr, err := stint.NewRunner(stint.Options{MaxRacesRecorded: opts.MaxRacesRecorded})
	if err != nil {
		return nil, err
	}
	if opts.MaxRacesRecorded == 0 {
		opts.MaxRacesRecorded = stint.DefaultMaxRacesRecorded
	}
	return &Runner{opts: opts, arena: sr.Arena()}, nil
}

// Arena returns the Runner's address arena.
func (r *Runner) Arena() *stint.Arena { return r.arena }

// Node is the hook receiver for one DAG node's execution.
type Node struct {
	eng *engine
}

// Load reports a read of element i of b.
func (n *Node) Load(b *stint.Buffer, i int) { n.access(b, i, false) }

// Store reports a write of element i of b.
func (n *Node) Store(b *stint.Buffer, i int) { n.access(b, i, true) }

// access is the stint runner's slot arm (the engine's Coalescer has no
// quiesce registry, so Bits is never nil) with the general hook behind it.
func (n *Node) access(b *stint.Buffer, i int, write bool) {
	addr, size, c := b.Addr(i), uint64(b.ElemBytes()), n.eng.bits
	switch {
	case coalesce.InSlot(addr, size):
		c.Bits(write).SetSlot(addr, size)
	case write:
		c.WriteHook(addr, size)
	default:
		c.ReadHook(addr, size)
	}
}

// LoadRange reports a read of elements [i, i+n) of b.
func (n *Node) LoadRange(b *stint.Buffer, i, cnt int) {
	if cnt != 0 {
		n.eng.bits.ReadHook(b.Range(i, cnt))
	}
}

// StoreRange reports a write of elements [i, i+n) of b.
func (n *Node) StoreRange(b *stint.Buffer, i, cnt int) {
	if cnt != 0 {
		n.eng.bits.WriteHook(b.Range(i, cnt))
	}
}

// engine is the multi-reader detector: the paper's write treap plus the
// multiread antichain map, fed by runtime coalescing.
type engine struct {
	reach     *reach
	writeHist map[uint64]*core.Tree // by page; Flush's intervals never cross one
	pool      *core.Pool
	readHist  *multiread.Map
	bits      *detect.Coalescer
	stats     stint.Stats
	onRace    func(stint.Race)
}

func (e *engine) race(rc stint.Race) {
	e.stats.Races++
	if e.onRace != nil {
		e.onRace(rc)
	}
}

// writeTree returns the write history of the page holding start, and the
// interval [start, start+size) in the word positions the trees store (a page
// of words fits a core.Tree's span).
func (e *engine) writeTree(start mem.Addr, size uint64, cur int32) (*core.Tree, core.Interval) {
	idx := start >> coalesce.PageBytesBits
	t := e.writeHist[idx]
	if t == nil {
		t = core.NewTreeIn(e.pool)
		t.SetBase(idx << (coalesce.PageBytesBits - mem.WordShift))
		e.writeHist[idx] = t
	}
	return t, core.Interval{Start: start >> mem.WordShift, End: (start + size) >> mem.WordShift, Acc: cur}
}

// readInterval and writeInterval apply one flushed interval of the
// finishing node to the access history.
func (e *engine) readInterval(start mem.Addr, size uint64) {
	cur := e.reach.CurrentID()
	e.stats.ReadIntervals++
	e.stats.ReadIntervalBytes += size
	t, iv := e.writeTree(start, size, cur)
	t.Query(iv, func(acc int32, lo, hi uint64) {
		if e.reach.Parallel(acc, cur) {
			e.race(stint.Race{Addr: lo << mem.WordShift, Size: (hi - lo) << mem.WordShift, Prev: acc, Cur: cur, PrevWrite: true})
		}
	})
	e.readHist.Insert(start, start+size, cur, e.reach.series)
}

func (e *engine) writeInterval(start mem.Addr, size uint64) {
	cur := e.reach.CurrentID()
	e.stats.WriteIntervals++
	e.stats.WriteIntervalBytes += size
	e.readHist.Query(start, start+size, func(acc int32, lo, hi uint64) {
		if e.reach.Parallel(acc, cur) {
			e.race(stint.Race{Addr: lo, Size: hi - lo, Prev: acc, Cur: cur, CurWrite: true})
		}
	})
	t, iv := e.writeTree(start, size, cur)
	t.InsertWrite(iv, func(acc int32, lo, hi uint64) {
		if e.reach.Parallel(acc, cur) {
			e.race(stint.Race{Addr: lo << mem.WordShift, Size: (hi - lo) << mem.WordShift, Prev: acc, Cur: cur, PrevWrite: true, CurWrite: true})
		}
	})
}

// Run executes the graph's nodes in topological order under multi-reader
// detection and returns the report.
func (r *Runner) Run(g *Graph, body func(n *Node, id NodeID)) (*stint.Report, error) {
	if g.Len() == 0 {
		return nil, errors.New("dag: empty graph")
	}
	order, err := g.topoOrder()
	if err != nil {
		return nil, err
	}
	rep := &stint.Report{}
	e := &engine{
		reach:     newReach(g, order),
		writeHist: map[uint64]*core.Tree{},
		pool:      core.NewPool(),
		readHist:  &multiread.Map{},
		bits:      detect.NewCoalescer(nil),
	}
	maxRec := r.opts.MaxRacesRecorded
	user := r.opts.OnRace
	e.onRace = func(rc stint.Race) {
		if len(rep.Races) < maxRec {
			rep.Races = append(rep.Races, rc)
		}
		if user != nil {
			user(rc)
		}
	}
	node := &Node{eng: e}
	start := time.Now()
	for _, id := range order {
		e.reach.cur = id
		body(node, id)
		e.bits.Flush(e.readInterval, e.writeInterval)
	}
	rep.WallTime = time.Since(start)
	rep.Strands = g.Len()
	e.stats.TreapOps = e.readHist.Ops()
	for _, t := range e.writeHist {
		ws := t.Stats()
		e.stats.TreapOps += ws.Ops
		e.stats.TreapNodesVisited += ws.NodesVisited
		e.stats.TreapOverlaps += ws.Overlaps
	}
	e.stats.Accumulate(e.bits.Hooks())
	rep.Stats = e.stats
	rep.RaceCount = e.stats.Races
	return rep, nil
}
