// Package stage holds the orchestration primitives of the runner's
// pipelines (Async, DetectShards, ParallelDetect): a Graph of stage
// goroutines connected by buffered channels, each metering its own busy
// time, all funneling race reports into one canonical Collector, and the
// Reorder walk that puts ParallelDetect's chunks back in serial order. The
// runner files (async.go, parallel.go, shards.go) build their pipelines
// from these primitives instead of hand-rolling goroutine topologies.
package stage

import (
	"sync"
	"time"
)

// Graph runs the detector-side stages of one pipeline run: goroutines
// launched with Go, joined by Wait, which then re-panics the first failure
// on the producer goroutine. A graph with no stages is legal — the bare
// ParallelDetect executor's, which only collects a spawned task's panic.
//
// Teardown is first-failure-wins: when a stage panics (a user OnRace
// callback aborting the run, a guard tripping), the recover closes the
// graph's failure channel — so every peer waiting in Send or Recv unwinds
// instead of deadlocking — and Wait re-panics the failure so it propagates
// out of Run exactly as it would have in synchronous mode. A producer that
// fails on its own (the program body panicking mid-run) tears the graph
// down the same way through Abort.
type Graph struct {
	wg      sync.WaitGroup
	failing chan struct{} // closed at the first failure

	mu      sync.Mutex
	failure any  // first stage panic value
	failed  bool // distinguishes panic(nil) from no failure
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{failing: make(chan struct{})}
}

// fail records the first failure and closes the failure channel.
func (g *Graph) fail(r any) {
	g.mu.Lock()
	if !g.failed {
		g.failed = true
		g.failure = r
		close(g.failing)
	}
	g.mu.Unlock()
}

// Abort is the producer's own failure path: it fails the graph with r —
// unless a stage failed first — and joins every stage. Unlike Wait it
// re-raises nothing; the caller is already unwinding with r in hand.
func (g *Graph) Abort(r any) {
	g.fail(r)
	g.wg.Wait()
}

// Send sends v on ch, blocking while ch is full. It reports false, with v
// unsent, once the graph has failed while it waited. It tries the channel
// alone first: a select on the shared failure channel at every send costs
// the pipelines a measurable share of their handoff time.
func Send[T any](g *Graph, ch chan<- T, v T) bool {
	select {
	case ch <- v:
		return true
	default:
	}
	select {
	case ch <- v:
		return true
	case <-g.failing:
		return false
	}
}

// Recv receives from ch, blocking while ch is empty; waited reports whether
// it had to. It reports ok false, with the zero value, once the graph has
// failed while it waited; values already in ch are still delivered.
func Recv[T any](g *Graph, ch <-chan T) (v T, ok, waited bool) {
	select {
	case v = <-ch:
		return v, true, false
	default:
	}
	select {
	case v = <-ch:
		return v, true, true
	case <-g.failing:
		return v, false, true
	}
}

// Go launches fn as one stage goroutine of the graph. A panic in fn is
// captured as the graph's failure (first failure wins) instead of crashing
// the process; Wait re-raises it.
func (g *Graph) Go(fn func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				g.fail(r)
			}
		}()
		fn()
	}()
}

// Wait joins every stage. Results the stages wrote before returning are
// visible after it. If a stage panicked, Wait re-panics the first failure
// on the caller's goroutine.
func (g *Graph) Wait() {
	g.wg.Wait()
	g.mu.Lock()
	failed, failure := g.failed, g.failure
	g.mu.Unlock()
	if failed {
		panic(failure)
	}
}

// Meter accumulates one stage's busy time at batch granularity: the wall
// clock spent processing, excluding blocking waits on the stage's channels.
// Start a lap with time.Now() before processing and Add the start once the
// batch is done, before any blocking Send or Recv.
type Meter struct {
	busy time.Duration
}

// Add accumulates the time elapsed since t0.
func (m *Meter) Add(t0 time.Time) { m.busy += time.Since(t0) }

// AddDur accumulates an already-measured duration — for stages whose
// blocking calls happen mid-lap (the parallel-detect merge broadcasts
// between taking chunks), where the caller must subtract the wait itself
// before crediting the remainder as busy time.
func (m *Meter) AddDur(d time.Duration) { m.busy += d }

// Reset zeroes the meter for another run.
func (m *Meter) Reset() { *m = Meter{} }

// Busy returns the accumulated busy time.
func (m *Meter) Busy() time.Duration { return m.busy }
