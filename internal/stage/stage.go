// Package stage holds the orchestration primitives shared by every
// execution mode of the stint runner. A pipeline — synchronous, async, or
// sharded — is a small graph of stages: goroutines connected by buffered
// channels, each metering its own busy time, all funneling race reports
// into one canonical Collector. The runner files (stint.go, async.go,
// shards.go) and trace.Replay build their pipelines from these primitives
// instead of hand-rolling goroutine topologies.
package stage

import (
	"sync"
	"time"
)

// Graph wires and drains the detector-side stages of one pipeline run.
// Stages are goroutines launched with Go; Seal installs the finalizer that
// joins them and merges their results; Wait blocks the producer until the
// sealed graph has fully finished. The zero wiring (no Go calls, Seal(nil))
// is legal and makes Wait return as soon as the finalizer runs — the
// degenerate graph of the synchronous path.
//
// Teardown is first-failure-wins: when a stage panics (a user OnRace
// callback aborting the run, a guard tripping), the recover closes the
// graph's failure channel — so every peer waiting in Send or Recv unwinds
// instead of deadlocking — the merge is skipped, and Wait re-panics the
// failure on the producer goroutine so it propagates out of Run exactly as
// it would have in synchronous mode. A producer that fails on its own (the
// program body panicking mid-run) tears the graph down the same way through
// Abort.
type Graph struct {
	wg      sync.WaitGroup
	done    chan struct{}
	failing chan struct{} // closed at the first failure

	mu      sync.Mutex
	failure any  // first stage or merge panic value
	failed  bool // distinguishes panic(nil) from no failure
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{done: make(chan struct{}), failing: make(chan struct{})}
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
// unless a stage failed first — and blocks until every stage has unwound.
// Unlike Wait it re-raises nothing; the caller is already unwinding with r
// in hand. Call it only on a sealed graph.
func (g *Graph) Abort(r any) {
	g.fail(r)
	<-g.done
}

// Failed reports whether any stage or the merge has panicked so far.
func (g *Graph) Failed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.failed
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

// Seal launches the graph's finalizer: after every stage launched so far
// has returned, it runs merge (which may be nil) and marks the graph done.
// Results written by stages before returning are visible to merge, and
// results written by merge are visible after Wait. When a stage failed, the
// merge is skipped — its inputs are incomplete — and the failure is
// re-raised by Wait instead. Seal must be called exactly once, after all Go
// calls.
func (g *Graph) Seal(merge func()) {
	go func() {
		g.wg.Wait()
		if merge != nil && !g.Failed() {
			func() {
				defer func() {
					if r := recover(); r != nil {
						g.fail(r)
					}
				}()
				merge()
			}()
		}
		close(g.done)
	}()
}

// Wait blocks until the sealed graph has finished: all stages joined and
// the merge complete. If a stage or the merge panicked, Wait re-panics the
// first failure on the caller's goroutine.
func (g *Graph) Wait() {
	<-g.done
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
// blocking calls happen mid-lap (the parallel-detect merge broadcasts from
// inside its reorder callback), where the caller must subtract the wait
// itself before crediting the remainder as busy time.
func (m *Meter) AddDur(d time.Duration) { m.busy += d }

// Reset zeroes the meter for another run.
func (m *Meter) Reset() { *m = Meter{} }

// Busy returns the accumulated busy time.
func (m *Meter) Busy() time.Duration { return m.busy }
