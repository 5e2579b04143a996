// Package pipeline extends the race detector to pipeline parallelism —
// the 2D-grid DAGs of Dimitrov, Vechev, and Sarkar (SPAA '15) — realizing
// the paper's §7 claim that the interval access history "would work out of
// the box in other instances, such as race detectors for pipelines or 2D
// grids, since it is still sufficient to store one reader and one writer
// for each memory location".
//
// A pipeline computation is a grid of nodes: node (stage, item) processes
// one item at one stage and depends on (stage-1, item) — earlier stages of
// the same item — and (stage, item-1) — the same stage on the previous
// item. Two nodes are logically parallel exactly when one has a strictly
// earlier stage and a strictly later item than the other. Reachability is
// therefore pure index arithmetic; no order-maintenance structure is
// needed. The left-of relation — which reader to keep per location — turns
// out to be lexicographic comparison of (stage, item): among the readers a
// later node can still race with, the lexicographically greatest is always
// a witness (see the package tests, which verify this against a brute-force
// oracle on random grid programs).
//
// Everything downstream of reachability — the vanilla hashmap, the bit
// hashmap, and the interval treaps — is shared unchanged with the fork-join
// detector: detecting pipelines required implementing only this file's
// ~60-line reachability adapter, which is precisely the paper's point.
package pipeline

import (
	"errors"
	"fmt"
	"time"

	"stint"
	"stint/internal/detect"
)

// Options configures a pipeline Runner. The zero value uses DetectorOff.
type Options struct {
	// Detector selects the engine; all of the stint detector
	// configurations are available.
	Detector stint.Detector
	// OnRace receives every race as it is found.
	OnRace func(stint.Race)
	// MaxRacesRecorded bounds Report.Races (default 64).
	MaxRacesRecorded int
	// TimeAccessHistory enables the access-history timers.
	TimeAccessHistory bool
}

// Runner executes pipeline computations under one detector configuration.
type Runner struct {
	opts  Options
	arena *stint.Arena
}

// NewRunner validates opts with stint.NewRunner and keeps that Runner's empty Arena.
func NewRunner(opts Options) (*Runner, error) {
	sr, err := stint.NewRunner(stint.Options{Detector: opts.Detector, MaxRacesRecorded: opts.MaxRacesRecorded})
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

// grid is the 2D-dominance reachability structure: strand IDs encode
// (stage, item) pairs densely.
type grid struct {
	stages int
	items  int
	cur    int32
}

func (g *grid) encode(stage, item int) int32 { return int32(item*g.stages + stage) }

func (g *grid) decode(id int32) (stage, item int) {
	return int(id) % g.stages, int(id) / g.stages
}

// CurrentID returns the ID of the node being executed.
func (g *grid) CurrentID() int32 { return g.cur }

// Parallel reports grid parallelism: neither node dominates the other.
func (g *grid) Parallel(a, b int32) bool {
	sa, ia := g.decode(a)
	sb, ib := g.decode(b)
	return (sa-sb)*(ia-ib) < 0
}

// LeftOf is lexicographic (stage, item) order, greater side left-of.
func (g *grid) LeftOf(a, b int32) bool {
	sa, ia := g.decode(a)
	sb, ib := g.decode(b)
	return sa > sb || (sa == sb && ia > ib)
}

// NodeFunc is the body of one grid node.
type NodeFunc func(c *Cell, stage, item int)

// Cell is the hook receiver for one pipeline node, mirroring stint.Task's
// instrumentation surface (pipeline nodes do not spawn: the DAG shape is
// fixed by the grid).
type Cell struct {
	engine detect.Engine
	hooks  bool
}

// Detecting reports whether memory hooks are live.
func (c *Cell) Detecting() bool { return c.hooks }

// Load reports a read of element i of b.
func (c *Cell) Load(b *stint.Buffer, i int) {
	if !c.hooks {
		return
	}
	c.engine.ReadHook(b.Addr(i), uint64(b.ElemBytes()))
}

// Store reports a write of element i of b.
func (c *Cell) Store(b *stint.Buffer, i int) {
	if !c.hooks {
		return
	}
	c.engine.WriteHook(b.Addr(i), uint64(b.ElemBytes()))
}

// LoadRange reports a compiler-coalesced read of elements [i, i+n) of b.
func (c *Cell) LoadRange(b *stint.Buffer, i, n int) {
	if !c.hooks || n == 0 {
		return
	}
	addr, _ := b.Range(i, n)
	c.engine.ReadRangeHook(addr, n, uint64(b.ElemBytes()))
}

// StoreRange reports a compiler-coalesced write of elements [i, i+n) of b.
func (c *Cell) StoreRange(b *stint.Buffer, i, n int) {
	if !c.hooks || n == 0 {
		return
	}
	addr, _ := b.Range(i, n)
	c.engine.WriteRangeHook(addr, n, uint64(b.ElemBytes()))
}

// Run executes the stages×items grid serially in a valid topological order
// (item-major: each item flows through all stages before the next item
// starts) with body invoked once per node, and returns the detection
// report.
func (r *Runner) Run(stages, items int, body NodeFunc) (*stint.Report, error) {
	if stages <= 0 || items <= 0 {
		return nil, fmt.Errorf("pipeline: grid %dx%d is empty", stages, items)
	}
	if int64(stages)*int64(items) >= 1<<31 {
		return nil, errors.New("pipeline: grid has too many nodes for 32-bit strand IDs")
	}
	rep := &stint.Report{}
	g := &grid{stages: stages, items: items}
	cell := &Cell{}
	if r.opts.Detector != stint.DetectorOff {
		cfg := detect.Config{
			Mode:              r.opts.Detector,
			TimeAccessHistory: r.opts.TimeAccessHistory,
		}
		user := r.opts.OnRace
		maxRec := r.opts.MaxRacesRecorded
		cfg.OnRace = func(race stint.Race) {
			if len(rep.Races) < maxRec {
				rep.Races = append(rep.Races, race)
			}
			if user != nil {
				user(race)
			}
		}
		cell.engine = detect.New(cfg, g)
		cell.hooks = r.opts.Detector != stint.DetectorReachOnly
	}
	start := time.Now()
	for item := 0; item < items; item++ {
		for stage := 0; stage < stages; stage++ {
			g.cur = g.encode(stage, item)
			body(cell, stage, item)
			if cell.engine != nil {
				cell.engine.StrandEnd()
			}
		}
	}
	if cell.engine != nil {
		cell.engine.Finish()
	}
	rep.WallTime = time.Since(start)
	if cell.engine != nil {
		rep.Strands = stages * items
		rep.Stats = *cell.engine.Stats()
		rep.RaceCount = rep.Stats.Races
	}
	return rep, nil
}
