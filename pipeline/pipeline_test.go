package pipeline

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"stint"
	"stint/internal/oracle"
)

var pipelineDetectors = []stint.Detector{
	stint.DetectorVanilla, stint.DetectorCompiler, stint.DetectorCompRTS,
	stint.DetectorSTINT,
}

func TestGridReachability(t *testing.T) {
	g := &grid{stages: 4, items: 8}
	type q struct {
		s1, i1, s2, i2 int
		parallel       bool
	}
	cases := []q{
		{0, 0, 1, 0, false}, // same item, consecutive stages: series
		{0, 0, 3, 0, false}, // same item, distant stages: series
		{2, 1, 2, 5, false}, // same stage: series
		{0, 0, 1, 1, false}, // downstream both ways: series
		{1, 3, 0, 5, true},  // later stage & earlier item vs earlier stage & later item
		{3, 0, 0, 7, true},
		{2, 2, 2, 2, false}, // self
	}
	for _, c := range cases {
		a, b := g.encode(c.s1, c.i1), g.encode(c.s2, c.i2)
		if got := g.Parallel(a, b); got != c.parallel {
			t.Errorf("Parallel((%d,%d),(%d,%d)) = %v, want %v", c.s1, c.i1, c.s2, c.i2, got, c.parallel)
		}
		if got := g.Parallel(b, a); got != c.parallel {
			t.Errorf("Parallel symmetric ((%d,%d),(%d,%d)) = %v, want %v", c.s2, c.i2, c.s1, c.i1, got, c.parallel)
		}
	}
}

// TestGridLeftOfIsStrictTotalOrder: the left-of the detector derives for a
// node over every node that ran before it in item-major order, "not
// parallel", is lexicographic (stage, item) order, greater side left-of — a
// strict total order.
func TestGridLeftOfIsStrictTotalOrder(t *testing.T) {
	g := &grid{stages: 4, items: 5}
	n := int32(g.stages * g.items)
	for cur := int32(0); cur < n; cur++ {
		g.cur = cur
		sc, ic := g.decode(cur)
		for stored := int32(0); stored < cur; stored++ {
			ss, is := g.decode(stored)
			lex := sc > ss || (sc == ss && ic > is)
			if left := !g.ParallelWithCurrent(stored); left != lex {
				t.Errorf("(%d,%d) left-of (%d,%d) = %v, lexicographic %v", sc, ic, ss, is, left, lex)
			}
		}
	}
}

func TestPerItemScratchIsRaceFree(t *testing.T) {
	// The canonical pipeline: each item owns a scratch region that every
	// stage reads and writes in turn — serial along the item, so race-free.
	for _, d := range pipelineDetectors {
		r, err := NewRunner(Options{Detector: d})
		if err != nil {
			t.Fatal(err)
		}
		buf := r.Arena().AllocWords("scratch", 16*8)
		rep, err := r.Run(4, 8, func(c *Cell, stage, item int) {
			c.LoadRange(buf, item*16, 16)
			c.StoreRange(buf, item*16, 16)
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Racy() {
			t.Errorf("%v: per-item scratch flagged: %v", d, rep.Races[0])
		}
	}
}

func TestPerStageStateIsRaceFree(t *testing.T) {
	// Stage-local state (e.g. a dictionary updated by one stage across
	// items) is serial along the stage axis.
	for _, d := range pipelineDetectors {
		r, err := NewRunner(Options{Detector: d})
		if err != nil {
			t.Fatal(err)
		}
		buf := r.Arena().AllocWords("stagestate", 4*32)
		rep, err := r.Run(4, 8, func(c *Cell, stage, item int) {
			c.LoadRange(buf, stage*32, 32)
			c.StoreRange(buf, stage*32, 32)
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Racy() {
			t.Errorf("%v: per-stage state flagged: %v", d, rep.Races[0])
		}
	}
}

func TestCrossStageSharedWriteRaces(t *testing.T) {
	// A shared accumulator written by two different stages: stage 0 of item
	// 5 and stage 2 of item 1 are parallel, so this must race.
	for _, d := range pipelineDetectors {
		r, err := NewRunner(Options{Detector: d})
		if err != nil {
			t.Fatal(err)
		}
		buf := r.Arena().AllocWords("shared", 4)
		rep, err := r.Run(3, 6, func(c *Cell, stage, item int) {
			if stage == 0 || stage == 2 {
				c.Store(buf, 0)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Racy() {
			t.Errorf("%v: cross-stage shared write not flagged", d)
		}
	}
}

func TestSlidingWindowReadsRace(t *testing.T) {
	// Stage 1 reads its item's neighbor's region (a sliding window) while
	// stage 0 writes each region: stage 0 of item j+1 is parallel with
	// stage 1 of item j, so the read of region j+1 races with its write.
	for _, d := range pipelineDetectors {
		r, err := NewRunner(Options{Detector: d})
		if err != nil {
			t.Fatal(err)
		}
		buf := r.Arena().AllocWords("window", 8*4)
		rep, err := r.Run(2, 8, func(c *Cell, stage, item int) {
			switch stage {
			case 0:
				c.StoreRange(buf, item*4, 4)
			case 1:
				if item+1 < 8 {
					c.LoadRange(buf, (item+1)*4, 4) // peeks at unwritten neighbor
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Racy() {
			t.Errorf("%v: sliding-window race not flagged", d)
		}
	}
}

// gridProgram is a deterministic random access pattern per node.
type gridProgram struct {
	stages, items int
	accesses      map[int][]gridAccess
}

type gridAccess struct {
	write bool
	rng   bool
	idx   int
	n     int
}

func genGridProgram(seed int64, stages, items, bufWords int) *gridProgram {
	rng := rand.New(rand.NewSource(seed))
	p := &gridProgram{stages: stages, items: items, accesses: make(map[int][]gridAccess)}
	for s := 0; s < stages; s++ {
		for i := 0; i < items; i++ {
			n := rng.Intn(4)
			var acc []gridAccess
			for k := 0; k < n; k++ {
				idx := rng.Intn(bufWords)
				a := gridAccess{
					write: rng.Intn(2) == 0,
					rng:   rng.Intn(2) == 0,
					idx:   idx,
				}
				if a.rng {
					a.n = rng.Intn(bufWords-idx) + 1
				}
				acc = append(acc, a)
			}
			p.accesses[s*10000+i] = acc
		}
	}
	return p
}

func (p *gridProgram) run(c *Cell, buf *stint.Buffer, stage, item int) {
	for _, a := range p.accesses[stage*10000+item] {
		switch {
		case a.rng && a.write:
			c.StoreRange(buf, a.idx, a.n)
		case a.rng:
			c.LoadRange(buf, a.idx, a.n)
		case a.write:
			c.Store(buf, a.idx)
		default:
			c.Load(buf, a.idx)
		}
	}
}

func TestPipelineDetectorsMatchOracle(t *testing.T) {
	const stages, items, bufWords = 3, 10, 48
	for seed := int64(0); seed < 40; seed++ {
		p := genGridProgram(seed, stages, items, bufWords)

		// Brute-force oracle, driven over the same grid order.
		g := &grid{stages: stages, items: items}
		det := oracle.New(g)
		orArena, _ := NewRunner(Options{})
		orBuf := orArena.Arena().AllocWords("data", bufWords)
		for item := 0; item < items; item++ {
			for stage := 0; stage < stages; stage++ {
				g.cur = g.encode(stage, item)
				for _, a := range p.accesses[stage*10000+item] {
					addr, size := orBuf.Addr(a.idx), uint64(orBuf.ElemBytes())
					if a.rng {
						addr, size = orBuf.Range(a.idx, a.n)
					}
					if a.write {
						det.Write(addr, size)
					} else {
						det.Read(addr, size)
					}
				}
			}
		}
		want := det.RacingWords()

		for _, d := range pipelineDetectors {
			words := make(map[stint.Addr]bool)
			r, err := NewRunner(Options{Detector: d, OnRace: func(rc stint.Race) {
				for a := rc.Addr &^ 3; a < rc.Addr+rc.Size; a += 4 {
					words[a] = true
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			buf := r.Arena().AllocWords("data", bufWords)
			if _, err := r.Run(stages, items, func(c *Cell, stage, item int) {
				p.run(c, buf, stage, item)
			}); err != nil {
				t.Fatal(err)
			}
			if len(words) != len(want) {
				t.Fatalf("seed %d: %v reports %d racing words, oracle %d", seed, d, len(words), len(want))
			}
			for w := range want {
				if !words[w] {
					t.Fatalf("seed %d: %v missed racing word %#x", seed, d, w)
				}
			}
		}
	}
}

func TestRunValidation(t *testing.T) {
	r, _ := NewRunner(Options{Detector: stint.DetectorSTINT})
	if _, err := r.Run(0, 5, func(*Cell, int, int) {}); err == nil {
		t.Error("accepted empty grid")
	}
	if _, err := r.Run(1<<16, 1<<16, func(*Cell, int, int) {}); err == nil {
		t.Error("accepted overflowing grid")
	}
	// The options go through stint.NewRunner's table: an unknown detector
	// and a negative race budget (which would record nothing) are refused.
	for _, opts := range []Options{{Detector: stint.Detector(99)}, {Detector: stint.DetectorSTINT, MaxRacesRecorded: -1}} {
		if _, err := NewRunner(opts); err == nil {
			t.Errorf("NewRunner(%+v) accepted", opts)
		}
	}
}

func TestDetectorOffRunsBody(t *testing.T) {
	r, _ := NewRunner(Options{})
	count := 0
	rep, err := r.Run(3, 4, func(c *Cell, stage, item int) {
		if c.Detecting() {
			t.Error("Detecting() under DetectorOff")
		}
		count++
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 12 {
		t.Errorf("body ran %d times, want 12", count)
	}
	if rep.Racy() {
		t.Error("DetectorOff found races")
	}
}

func TestReachOnlySkipsHooks(t *testing.T) {
	r, _ := NewRunner(Options{Detector: stint.DetectorReachOnly})
	buf := r.Arena().AllocWords("b", 8)
	rep, err := r.Run(2, 2, func(c *Cell, stage, item int) {
		c.Store(buf, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.WriteAccesses != 0 || rep.Racy() {
		t.Errorf("ReachOnly recorded accesses: %+v", rep.Stats)
	}
}

// TestRacesRecordedInCanonicalOrder: with a race budget, Report.Races keeps
// the first races in canonical order — by the later node's position in the
// item-major run, then read-phase before write-phase, address, size, earlier
// access's kind and node — not the first the history happened to find. In
// the 2×3 grid, node (1,0) writes words [8,12) and reads [12,16); node (0,1),
// parallel with it, then writes all eight: its check against the readers
// finds the race at word 12 before its write insert finds the one at word 8.
// A later pair, (1,1) and (0,2), races at word 0: a lower address, but a
// later node.
func TestRacesRecordedInCanonicalOrder(t *testing.T) {
	run := func(budget int) []stint.Race {
		r, _ := NewRunner(Options{Detector: stint.DetectorSTINT, MaxRacesRecorded: budget})
		buf := r.Arena().AllocWords("buf", 16)
		rep, err := r.Run(2, 3, func(c *Cell, stage, item int) {
			switch {
			case stage == 1 && item == 0:
				c.StoreRange(buf, 8, 4)
				c.LoadRange(buf, 12, 4)
			case stage == 0 && item == 1:
				c.StoreRange(buf, 8, 8)
			case stage == 1 && item == 1, stage == 0 && item == 2:
				c.StoreRange(buf, 0, 4)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Races
	}
	got, all := run(1), run(1<<16)
	key := func(r stint.Race) []uint64 {
		b2u := map[bool]uint64{true: 1}
		return []uint64{uint64(r.Cur), b2u[r.CurWrite], r.Addr, r.Size, b2u[r.PrevWrite], uint64(r.Prev)}
	}
	sort.SliceStable(all, func(i, j int) bool {
		ki, kj := key(all[i]), key(all[j])
		for n := range ki {
			if ki[n] != kj[n] {
				return ki[n] < kj[n]
			}
		}
		return false
	})
	if len(all) != 3 || !reflect.DeepEqual(got, all[:1]) || !all[0].PrevWrite || all[0].Cur != 2 {
		t.Fatalf("recorded %v, want the canonical first %v of %v, the write-write race", got, all[:1], all)
	}
}
