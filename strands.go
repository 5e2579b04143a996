// Strand runs: the one engine under a caller's reachability, the seam the §7
// extensions (stint/pipeline's grid, stint/dag's ancestor bitsets) plug into.

package stint

import (
	"fmt"
	"runtime/metrics"
	"time"

	"stint/internal/detect"
	"stint/internal/stage"
)

// Reach is the reachability a RunStrands caller provides. A Reach that also
// has a method Series(a, b int32) bool, true when a happens before b, is a
// general DAG such as a futures program: one reader per location is then no
// witness, so the STINT detectors keep antichains of readers, pruned by it.
type Reach = detect.Reach

// RunStrands runs body(t, i) for i = 0, ..., n-1 in order, each call one
// strand, which body makes reach.CurrentID name before it accesses memory;
// Spawn on t panics. The Report is Run's, Races ranked by strand index (under
// DetectorOff only WallTime). It refuses a pipelined Runner, a Tracer, and a
// Reach with Series under a single-reader hashmap (Vanilla, Compiler,
// CompRTS). Each call builds its engine afresh; Run's state is untouched.
func (r *Runner) RunStrands(reach Reach, n int, body func(t *Task, i int)) (*Report, error) {
	o := &r.opts
	_, dag := reach.(interface{ Series(a, b int32) bool })
	switch {
	case o.Async || o.DetectShards > 0 || o.ParallelDetect:
		return nil, fmt.Errorf("stint: RunStrands needs a synchronous Runner; pipeline workers replay SP-Order, not a caller's Reach")
	case o.Tracer != nil:
		return nil, fmt.Errorf("stint: RunStrands cannot trace; a trace records spawn/sync structure, and strands have none")
	case dag && (o.Detector == DetectorVanilla || o.Detector == DetectorCompiler || o.Detector == DetectorCompRTS):
		return nil, fmt.Errorf("stint: a Reach with Series needs a multi-reader history; %v keeps one reader per word", o.Detector)
	}
	rs := &runState{hooks: o.Detector != DetectorOff && o.Detector != DetectorReachOnly, strands: true}
	t, rep := &Task{rs: rs}, &Report{}
	if o.Detector == DetectorOff {
		start := time.Now()
		for i := 0; i < n; i++ {
			body(t, i)
		}
		rep.WallTime = time.Since(start)
		return rep, nil
	}
	col, rank := stage.NewCollector(o.MaxRacesRecorded), int32(0)
	cfg, user := r.detectConfig(1), o.OnRace
	cfg.OnRace = func(race Race) {
		col.Add(rank, race)
		if user != nil {
			user(race)
		}
	}
	eng := r.newEngine(cfg, reach)
	if t.bits = detect.CoalescerOf(eng); t.bits == nil && rs.hooks {
		rs.engine = eng
	}
	var allocs allocProbe
	allocs.start()
	start := time.Now()
	for i := 0; i < n; i++ {
		rank = int32(i)
		body(t, i)
		eng.StrandEnd()
	}
	eng.Finish()
	rep.WallTime = time.Since(start)
	allocs.stop()
	rep.Strands, rep.Stats, rep.Races = n, *eng.Stats(), col.Sorted()
	allocs.finish(rep)
	if err := detect.CapErrorOf(eng); err != nil {
		return nil, err // Run's abort: the engine froze at the cap
	}
	return rep, nil
}

// allocProbe measures a run's heap allocations, the program's included, from
// two runtime/metrics counters, which unlike runtime.ReadMemStats do not stop
// the world; both arrays exist before the first read, so the delta is the run's.
type allocProbe struct{ before, after [2]metrics.Sample }

func (p *allocProbe) start() {
	p.before = [2]metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	p.after = p.before
	metrics.Read(p.before[:])
}

func (p *allocProbe) stop() { metrics.Read(p.after[:]) }

// finish completes rep, its Stats in: RaceCount and the allocation deltas.
func (p *allocProbe) finish(rep *Report) {
	rep.RaceCount = rep.Stats.Races
	rep.Stats.AllocObjects = p.after[0].Value.Uint64() - p.before[0].Value.Uint64()
	rep.Stats.AllocBytes = p.after[1].Value.Uint64() - p.before[1].Value.Uint64()
}
