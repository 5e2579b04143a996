package stint

import (
	"runtime"
	"testing"
	"time"
)

// TestBodyPanicUnwindsPipeline pins Run's unwind path: a panic out of the
// program body — in the root, after a spawn, mid-strand, or under
// ParallelDetect in a spawned task that has spawned one of its own — must
// fail the stage graph (if there is one), wait out every stage and spawned
// task, and re-raise the original value on Run's caller, leaving the Runner
// dirty. So N recovered panics leak no goroutine, and the next Run on the
// same warm Runner reports exactly what a fresh Runner does (no stale stage
// shares the reset ring with it).
func TestBodyPanicUnwindsPipeline(t *testing.T) {
	type leg struct {
		name    string
		opts    Options
		inChild bool
	}
	var legs []leg
	for _, m := range pipeModes {
		legs = append(legs, leg{m.Name, m.With(Options{Detector: DetectorSTINT, MaxRacesRecorded: 1 << 10}), false})
	}
	legs = append(legs,
		leg{"child-panic/off", Options{ParallelDetect: true}, true},
		leg{"child-panic/stint", Options{Detector: DetectorSTINT, ParallelDetect: true, DetectShards: 2, MaxRacesRecorded: 1 << 10}, true})
	for _, l := range legs {
		t.Run(l.name, func(t *testing.T) {
			newRunner := func() (*Runner, TaskFunc, TaskFunc) {
				r, err := NewRunner(l.opts)
				if err != nil {
					t.Fatal(err)
				}
				r.asyncBatchEvents, r.asyncRingDepth = 2, 1 // the producer is mid-publish when it panics
				buf := r.Arena().AllocWords("buf", 4096)
				racy := func(task *Task) {
					for i := 0; i < 4; i++ {
						task.Spawn(func(c *Task) { c.StoreRange(buf, 64*i, 128) })
						task.Store(buf, 64*i+7)
					}
				}
				boom := func(task *Task) { racy(task); panic("body exploded") }
				if l.inChild {
					boom = func(task *Task) {
						racy(task)
						task.Spawn(func(c *Task) {
							c.Spawn(func(g *Task) { g.StoreRange(buf, 0, 64) })
							c.Store(buf, 3)
							panic("body exploded")
						})
						task.Store(buf, 9)
					}
				}
				return r, racy, boom
			}
			r, racy, boom := newRunner()
			baseline := runtime.NumGoroutine()
			for i := 0; i < 20; i++ {
				func() {
					defer func() {
						if p := recover(); p != "body exploded" {
							t.Fatalf("run %d: recovered %v, want the body's own panic value", i, p)
						}
					}()
					r.Run(boom)
				}()
			}
			// Every stage has returned by now; give exiting goroutines a
			// moment to leave the scheduler's count.
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Fatalf("%d goroutines after 20 recovered body panics, %d before", n, baseline)
			}
			got, err := r.Run(racy)
			if err != nil {
				t.Fatal(err)
			}
			fresh, racyFresh, _ := newRunner()
			want, err := fresh.Run(racyFresh)
			if err != nil {
				t.Fatal(err)
			}
			if want.RaceCount == 0 && l.opts.Detector != DetectorOff {
				t.Fatal("program produced no races; test is vacuous")
			}
			assertSameReport(t, "run after the panics vs a fresh Runner", got, want)
		})
	}
}
