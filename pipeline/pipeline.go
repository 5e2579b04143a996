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
// Everything downstream of reachability — hashmaps, treaps, hooks, the race
// collector — is the fork-join detector's own: Run hands the grid to
// stint.Runner.RunStrands as a Reach. Detecting pipelines needs only this
// file's reachability adapter, which is precisely the paper's point.
package pipeline

import (
	"errors"
	"fmt"

	"stint"
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
	sr *stint.Runner
}

// NewRunner validates opts with stint.NewRunner and keeps that Runner.
func NewRunner(opts Options) (*Runner, error) {
	sr, err := stint.NewRunner(stint.Options{Detector: opts.Detector, OnRace: opts.OnRace, MaxRacesRecorded: opts.MaxRacesRecorded, TimeAccessHistory: opts.TimeAccessHistory})
	if err != nil {
		return nil, err
	}
	return &Runner{sr: sr}, nil
}

// Arena returns the Runner's address arena.
func (r *Runner) Arena() *stint.Arena { return r.sr.Arena() }

// grid is the 2D-dominance reachability structure: strand IDs encode
// (stage, item) pairs densely; cur, stage and item name the running node.
type grid struct {
	stages, items int
	cur           int32
	stage, item   int
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

// Cell is the hook receiver for one pipeline node: a stint.Task, whose
// Load/Store/LoadRange/StoreRange and Detecting it offers. Pipeline nodes do
// not spawn (the grid fixes the DAG's shape), so Spawn panics.
type Cell = stint.Task

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
	// Item-major order makes the strand index the node's ID.
	g := &grid{stages: stages, items: items}
	return r.sr.RunStrands(g, stages*items, func(c *Cell, i int) {
		g.cur = int32(i)
		body(c, g.stage, g.item)
		if g.stage++; g.stage == stages {
			g.stage, g.item = 0, g.item+1
		}
	})
}
