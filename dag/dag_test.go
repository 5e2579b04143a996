package dag

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"stint"
	"stint/internal/oracle"
)

func TestTopoOrderValid(t *testing.T) {
	g := NewGraph()
	a, b, c, d := g.Node("a"), g.Node("b"), g.Node("c"), g.Node("d")
	g.Edge(a, b)
	g.Edge(a, c)
	g.Edge(b, d)
	g.Edge(c, d)
	order, err := g.topoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	for from, succs := range g.succs {
		for _, to := range succs {
			if pos[NodeID(from)] >= pos[to] {
				t.Fatalf("edge (%d,%d) violated by order %v", from, to, order)
			}
		}
	}
}

func TestCycleDetected(t *testing.T) {
	g := NewGraph()
	a, b, c := g.Node("a"), g.Node("b"), g.Node("c")
	g.Serial(a, b, c)
	g.Edge(c, a)
	r, _ := NewRunner(Options{})
	if _, err := r.Run(g, func(*Node, NodeID) {}); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	r, _ := NewRunner(Options{})
	if _, err := r.Run(NewGraph(), func(*Node, NodeID) {}); err == nil {
		t.Fatal("empty graph accepted")
	}
	// stint.NewRunner's table refuses a negative race budget, which would
	// record nothing while RaceCount counts.
	if _, err := NewRunner(Options{MaxRacesRecorded: -1}); err == nil {
		t.Fatal("negative MaxRacesRecorded accepted")
	}
}

func TestBadEdgePanics(t *testing.T) {
	g := NewGraph()
	a := g.Node("a")
	for _, f := range []func(){
		func() { g.Edge(a, 99) },
		func() { g.Edge(a, a) },
		func() { g.Edge(-1, a) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestReachabilityBitsets(t *testing.T) {
	// Diamond: a → b,c → d plus a detached node e.
	g := NewGraph()
	a, b, c, d, e := g.Node("a"), g.Node("b"), g.Node("c"), g.Node("d"), g.Node("e")
	g.Edge(a, b)
	g.Edge(a, c)
	g.Edge(b, d)
	g.Edge(c, d)
	order, _ := g.topoOrder()
	r := newReach(g, order)
	series := [][2]NodeID{{a, b}, {a, c}, {a, d}, {b, d}, {c, d}}
	for _, p := range series {
		if !r.Series(p[0], p[1]) {
			t.Errorf("series(%d,%d) = false", p[0], p[1])
		}
		if r.Series(p[1], p[0]) {
			t.Errorf("series(%d,%d) = true (reversed)", p[1], p[0])
		}
		if r.Parallel(p[0], p[1]) {
			t.Errorf("Parallel(%d,%d) = true for series pair", p[0], p[1])
		}
	}
	for _, p := range [][2]NodeID{{b, c}, {e, a}, {e, d}} {
		if !r.Parallel(p[0], p[1]) || !r.Parallel(p[1], p[0]) {
			t.Errorf("Parallel(%d,%d) = false", p[0], p[1])
		}
	}
}

// runGraph executes accesses[id] on each node and returns the report.
type acc struct {
	write bool
	idx   int
	n     int
}

func runGraph(t *testing.T, g *Graph, accesses map[NodeID][]acc, bufWords int) *stint.Report {
	t.Helper()
	r, err := NewRunner(Options{MaxRacesRecorded: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	buf := r.Arena().AllocWords("data", bufWords)
	rep, err := r.Run(g, func(n *Node, id NodeID) {
		for _, a := range accesses[id] {
			if a.write {
				n.StoreRange(buf, a.idx, a.n)
			} else {
				n.LoadRange(buf, a.idx, a.n)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestDiamondJoinOrdersAccesses(t *testing.T) {
	g := NewGraph()
	a, b, c, d := g.Node("a"), g.Node("b"), g.Node("c"), g.Node("d")
	g.Edge(a, b)
	g.Edge(a, c)
	g.Edge(b, d)
	g.Edge(c, d)
	rep := runGraph(t, g, map[NodeID][]acc{
		a: {{write: true, idx: 0, n: 8}},
		b: {{idx: 0, n: 8}},
		c: {{idx: 0, n: 4}},
		d: {{write: true, idx: 0, n: 8}}, // after the join: ordered
	}, 16)
	if rep.Racy() {
		t.Fatalf("diamond with join reported races: %v", rep.Races)
	}
}

func TestParallelBranchesRace(t *testing.T) {
	g := NewGraph()
	a, b, c := g.Node("a"), g.Node("b"), g.Node("c")
	g.Edge(a, b)
	g.Edge(a, c)
	rep := runGraph(t, g, map[NodeID][]acc{
		b: {{write: true, idx: 4, n: 4}},
		c: {{write: true, idx: 6, n: 4}},
	}, 16)
	if !rep.Racy() {
		t.Fatal("parallel overlapping writes missed")
	}
}

func TestSingleReaderWouldMissThisRace(t *testing.T) {
	// The §7 counterexample: two parallel readers r1 and r2; a writer w
	// ordered after r2 only. Whatever single reader a fork-join-style
	// access history kept, one choice (r2) hides the race with r1. The
	// multi-reader antichain keeps both and reports w racing with r1.
	g := NewGraph()
	a := g.Node("src")
	r1 := g.Node("r1")
	r2 := g.Node("r2")
	w := g.Node("w")
	g.Edge(a, r1)
	g.Edge(a, r2)
	g.Edge(r2, w) // w sees r2's read as ordered; r1 stays parallel
	rep := runGraph(t, g, map[NodeID][]acc{
		a:  {{write: true, idx: 0, n: 4}},
		r1: {{idx: 0, n: 4}},
		r2: {{idx: 0, n: 4}},
		w:  {{write: true, idx: 0, n: 4}},
	}, 8)
	if !rep.Racy() {
		t.Fatal("multi-reader history missed the r1-w race")
	}
	found := false
	for _, rc := range rep.Races {
		if rc.Prev == r1 && rc.Cur == w && !rc.PrevWrite && rc.CurWrite {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a (r1 read, w write) report; got %v", rep.Races)
	}
}

func TestAntichainPruningKeepsHistorySmall(t *testing.T) {
	// A long serial chain re-reading one buffer: the reader set must stay
	// at size one throughout. The Report's footprint counts the readers
	// kept; a one-node graph's is the unit.
	chain := func(nodes int) *stint.Report {
		g := NewGraph()
		var prev NodeID = g.Node("n0")
		for i := 1; i < nodes; i++ {
			n := g.Node("n")
			g.Edge(prev, n)
			prev = n
		}
		r, _ := NewRunner(Options{})
		buf := r.Arena().AllocWords("data", 16)
		rep, err := r.Run(g, func(n *Node, id NodeID) { n.LoadRange(buf, 0, 16) })
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	one, rep := chain(1).Stats, chain(50)
	if rep.Racy() {
		t.Fatal("serial chain raced")
	}
	if one.AccessHistoryBytes == 0 || rep.Stats.AccessHistoryBytes != one.AccessHistoryBytes ||
		rep.Stats.HistoryBytesPeak != one.HistoryBytesPeak {
		t.Fatalf("reader footprint %d (peak %d); pruning should keep a serial chain at one reader, %d",
			rep.Stats.AccessHistoryBytes, rep.Stats.HistoryBytesPeak, one.AccessHistoryBytes)
	}
}

// TestFootprintCountsReaders: the Report's footprint counts the readers the
// antichains keep. A fan of 50 parallel readers of one buffer keeps all 50,
// at the end and at the last strand boundary.
func TestFootprintCountsReaders(t *testing.T) {
	run := func(readers int) stint.Stats {
		g := NewGraph()
		src := g.Node("src")
		for i := 0; i < readers; i++ {
			g.Edge(src, g.Node("reader"))
		}
		r, _ := NewRunner(Options{})
		buf := r.Arena().AllocWords("data", 16)
		rep, err := r.Run(g, func(n *Node, id NodeID) {
			if id != src {
				n.LoadRange(buf, 0, 16)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Stats
	}
	one, fan := run(1), run(50)
	unit := one.AccessHistoryBytes
	if unit == 0 || fan.AccessHistoryBytes != 50*unit || fan.HistoryBytesPeak != one.HistoryBytesPeak+49*unit {
		t.Fatalf("50 parallel readers: footprint %d, peak %d; one reader: %d, peak %d",
			fan.AccessHistoryBytes, fan.HistoryBytesPeak, unit, one.HistoryBytesPeak)
	}
}

// TestRandomDAGsMatchOracle runs random DAGs with random accesses against
// the brute-force oracle.
func TestRandomDAGsMatchOracle(t *testing.T) {
	const bufWords = 32
	matchOracle(t, 50, bufWords, func(rng *rand.Rand) acc {
		idx := rng.Intn(bufWords)
		return acc{write: rng.Intn(2) == 0, idx: idx, n: rng.Intn(bufWords-idx) + 1}
	})
}

// TestCrossPageDAGsMatchOracle is the same over a buffer of three 64 KiB
// pages — the write history is one treap per page — with accesses that sit
// on the page boundaries, straddle them, or cover every page at once.
func TestCrossPageDAGsMatchOracle(t *testing.T) {
	const pageWords = 1 << 14
	const bufWords = 3 * pageWords
	matchOracle(t, 30, bufWords, func(rng *rand.Rand) acc {
		a := acc{write: rng.Intn(2) == 0}
		switch rng.Intn(8) {
		case 0: // everything
			a.idx, a.n = 0, bufWords
		case 1: // the tail of one page and the whole next one
			a.idx, a.n = pageWords-rng.Intn(16)-1, pageWords+16
		default: // a few words around a boundary
			a.idx = (rng.Intn(2)+1)*pageWords - 8 + rng.Intn(12)
			a.n = rng.Intn(12) + 1
		}
		return a
	})
}

// matchOracle builds seeds random DAGs whose nodes make up to three accesses
// drawn from gen to a bufWords buffer, and checks the racing words reported
// against the brute-force oracle's.
func matchOracle(t *testing.T, seeds int64, bufWords int, gen func(rng *rand.Rand) acc) {
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		n := rng.Intn(12) + 4
		for i := 0; i < n; i++ {
			g.Node("n")
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(4) == 0 {
					g.Edge(NodeID(i), NodeID(j))
				}
			}
		}
		accesses := make(map[NodeID][]acc)
		for i := 0; i < n; i++ {
			k := rng.Intn(4)
			for a := 0; a < k; a++ {
				accesses[NodeID(i)] = append(accesses[NodeID(i)], gen(rng))
			}
		}

		// Oracle: drive the brute-force detector over the same order.
		order, err := g.topoOrder()
		if err != nil {
			t.Fatal(err)
		}
		rc := newReach(g, order)
		det := oracle.New(rc)
		oArena, _ := NewRunner(Options{})
		oBuf := oArena.Arena().AllocWords("data", bufWords)
		for _, id := range order {
			rc.cur = id
			for _, a := range accesses[id] {
				addr, size := oBuf.Range(a.idx, a.n)
				if a.write {
					det.WriteHook(addr, size)
				} else {
					det.ReadHook(addr, size)
				}
			}
		}
		want := det.RacingWords()

		words := make(map[stint.Addr]bool)
		r, _ := NewRunner(Options{MaxRacesRecorded: 1, OnRace: func(rcx stint.Race) {
			for a := rcx.Addr &^ 3; a < rcx.Addr+rcx.Size; a += 4 {
				words[a] = true
			}
		}})
		buf := r.Arena().AllocWords("data", bufWords)
		if _, err := r.Run(g, func(nd *Node, id NodeID) {
			for _, a := range accesses[id] {
				if a.write {
					nd.StoreRange(buf, a.idx, a.n)
				} else {
					nd.LoadRange(buf, a.idx, a.n)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		if len(words) != len(want) {
			t.Fatalf("seed %d: %d racing words, oracle %d", seed, len(words), len(want))
		}
		for w := range want {
			if !words[w] {
				t.Fatalf("seed %d: missed racing word %#x", seed, w)
			}
		}
	}
}

// TestSlotArmMatchesRangeHooks: Node.Load/Store send an element inside one
// bitmap slot straight to its BitSet, while a one-element LoadRange/
// StoreRange always takes the Coalescer's general hook. Races and every
// counter must agree for 4-, 8- and 16-byte elements, and for 12-byte ones,
// some of which straddle a slot and fall back to the general hook.
func TestSlotArmMatchesRangeHooks(t *testing.T) {
	for _, elem := range []int{4, 8, 12, 16} {
		run := func(perElement bool) *stint.Report {
			r, _ := NewRunner(Options{MaxRacesRecorded: 1 << 16})
			buf := r.Arena().Alloc("data", 512, elem)
			g := NewGraph()
			src, a, b, join := g.Node("src"), g.Node("a"), g.Node("b"), g.Node("join")
			g.Edge(src, a)
			g.Edge(src, b)
			g.Edge(a, join)
			g.Edge(b, join)
			rep, err := r.Run(g, func(n *Node, id NodeID) {
				for i := 0; i < buf.Len(); i++ {
					write := (i+int(id))%3 == 0
					switch {
					case perElement && write:
						n.Store(buf, i)
					case perElement:
						n.Load(buf, i)
					case write:
						n.StoreRange(buf, i, 1)
					default:
						n.LoadRange(buf, i, 1)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		slot, generic := run(true), run(false)
		slot.Stats.AllocObjects, slot.Stats.AllocBytes = 0, 0
		generic.Stats.AllocObjects, generic.Stats.AllocBytes = 0, 0
		if slot.RaceCount == 0 || slot.Stats.ReadHookCalls == 0 {
			t.Fatalf("%d-byte elements: %d races, %d read hooks: the program exercises nothing", elem, slot.RaceCount, slot.Stats.ReadHookCalls)
		}
		if slot.Stats != generic.Stats || !reflect.DeepEqual(slot.Races, generic.Races) {
			t.Fatalf("%d-byte elements: slot arm %+v, %d races; general hook %+v, %d races",
				elem, slot.Stats, len(slot.Races), generic.Stats, len(generic.Races))
		}
	}
}

func TestGraphNames(t *testing.T) {
	g := NewGraph()
	id := g.Node("compile")
	if g.Name(id) != "compile" || g.Len() != 1 {
		t.Fatal("node bookkeeping broken")
	}
}

// canonical sorts races as Report.Races orders them: by the position of the
// later node in the run, then read-phase before write-phase, address, size,
// earlier access's kind and node.
func canonical(races []stint.Race, pos func(NodeID) int) {
	key := func(r stint.Race) []uint64 {
		return []uint64{uint64(pos(r.Cur)), b2u(r.CurWrite), r.Addr, r.Size, b2u(r.PrevWrite), uint64(r.Prev)}
	}
	sort.SliceStable(races, func(i, j int) bool {
		ki, kj := key(races[i]), key(races[j])
		for n := range ki {
			if ki[n] != kj[n] {
				return ki[n] < kj[n]
			}
		}
		return false
	})
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestRacesRecordedInCanonicalOrder: with a race budget, Report.Races keeps
// the first races in canonical order, not the first the history happened to
// find. The futures example's build graph: four compiles, a link that reads
// their objects, and a cleanup, with no edge from the link, that scrubs them.
func TestRacesRecordedInCanonicalOrder(t *testing.T) {
	g := NewGraph()
	var srcs []NodeID
	for i := 0; i < 4; i++ {
		srcs = append(srcs, g.Node(fmt.Sprintf("compile-%d", i)))
	}
	link := g.Node("link")
	for _, s := range srcs {
		g.Edge(s, link)
	}
	cleanup := g.Node("cleanup")
	run := func(budget int) []stint.Race {
		r, _ := NewRunner(Options{MaxRacesRecorded: budget})
		objects := r.Arena().AllocWords("objects", 4*64)
		binary := r.Arena().AllocWords("binary", 256)
		rep, err := r.Run(g, func(n *Node, id NodeID) {
			switch id {
			case link:
				n.LoadRange(objects, 0, 4*64)
				n.StoreRange(binary, 0, 256)
			case cleanup:
				n.StoreRange(objects, 0, 4*64)
			default:
				n.StoreRange(objects, int(id)*64, 64)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Races
	}
	order, _ := g.topoOrder()
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	got, all := run(2), run(1<<16)
	canonical(all, func(id NodeID) int { return pos[id] })
	if !reflect.DeepEqual(got, all[:2]) {
		t.Fatalf("recorded %v, want the canonical first two %v", got, all[:2])
	}
	var names []string
	for _, rc := range got {
		names = append(names, g.Name(rc.Prev)+" vs "+g.Name(rc.Cur))
	}
	if want := []string{"compile-0 vs cleanup", "link vs cleanup"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("recorded %q, want %q", names, want)
	}
}
