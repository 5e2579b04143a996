package stint

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// lineReach runs strands in index order: with par set any two strands are
// logically parallel, without it each strand precedes the next. dagReach
// adds Series, which makes it a general-DAG Reach.
type lineReach struct {
	cur int32
	par bool
}

func (r *lineReach) CurrentID() int32                      { return r.cur }
func (r *lineReach) ParallelWithCurrent(stored int32) bool { return r.par && stored != r.cur }

type dagReach struct{ lineReach }

func (r *dagReach) Series(a, b int32) bool { return !r.par && a < b }

// strandBody makes strand i current and has it read words [4i, 4i+8) of buf
// and write some of them: neighbours overlap, so parallel strands race.
func strandBody(reach *lineReach, buf *Buffer) func(t *Task, i int) {
	return func(t *Task, i int) {
		reach.cur = int32(i)
		t.LoadRange(buf, 4*i, 8)
		t.StoreRange(buf, 4*i+2, 4)
		t.Store(buf, 4*i)
	}
}

// TestRunStrandsContract: the Runners RunStrands refuses get an error and
// run nothing; Spawn in a strand panics and leaves the Runner as good as
// fresh; without an access history the body runs and nothing is counted;
// and the history cap trips as in Run.
func TestRunStrandsContract(t *testing.T) {
	for _, c := range []struct {
		name string
		opts Options
		dag  bool
	}{
		{"async", Options{Detector: DetectorSTINT, Async: true}, false},
		{"shards", Options{Detector: DetectorSTINT, Async: true, DetectShards: 2}, false},
		{"parallel detect", Options{Detector: DetectorSTINT, ParallelDetect: true}, false},
		{"tracer", Options{Detector: DetectorSTINT, Tracer: &accessCounter{}}, false},
		{"series under vanilla", Options{Detector: DetectorVanilla}, true},
		{"series under compiler", Options{Detector: DetectorCompiler}, true},
		{"series under comp+rts", Options{Detector: DetectorCompRTS}, true},
	} {
		r, _ := NewRunner(c.opts)
		reach := map[bool]Reach{false: &lineReach{}, true: &dagReach{}}[c.dag]
		ran := false
		if rep, err := r.RunStrands(reach, 2, func(*Task, int) { ran = true }); err == nil || rep != nil || ran {
			t.Errorf("%s: RunStrands accepted the Runner (err %v, body ran %v)", c.name, err, ran)
		}
	}

	// Spawn panics; then the Runner's Run and RunStrands equal a fresh one's.
	var want [2]*Report
	for _, used := range []bool{true, false} {
		r, _ := NewRunner(Options{Detector: DetectorSTINT})
		buf := r.Arena().AllocWords("b", 64)
		root := func(t *Task) {
			t.Spawn(func(c *Task) { c.StoreRange(buf, 0, 8) })
			t.LoadRange(buf, 4, 8)
			t.Sync()
		}
		if used {
			r.Run(root)
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, "RunStrands") {
						t.Errorf("Spawn in a strand: panic %q, want one naming RunStrands", msg)
					}
				}()
				r.RunStrands(&lineReach{}, 3, func(t *Task, i int) { t.Spawn(func(*Task) {}) })
			}()
		}
		reach := &lineReach{par: true}
		rep, _ := r.Run(root)
		srep, err := r.RunStrands(reach, 8, strandBody(reach, buf))
		if err != nil || !rep.Racy() || !srep.Racy() {
			t.Fatalf("err %v; Run racy %v, RunStrands racy %v; want both racy", err, rep.Racy(), srep.Racy())
		}
		if !used {
			assertSameReport(t, "Run after the panic", want[0], rep)
			assertSameReport(t, "RunStrands after the panic", want[1], srep)
		}
		want = [2]*Report{rep, srep}
	}

	for _, d := range []Detector{DetectorOff, DetectorReachOnly} {
		r, _ := NewRunner(Options{Detector: d})
		reach := &lineReach{par: true}
		body, runs, detecting := strandBody(reach, r.Arena().AllocWords("b", 64)), 0, false
		rep, err := r.RunStrands(reach, 5, func(task *Task, i int) {
			runs, detecting = runs+1, detecting || task.Detecting()
			body(task, i)
		})
		st := rep.Stats
		st.AllocObjects, st.AllocBytes = 0, 0
		if strands := map[Detector]int{DetectorReachOnly: 5}[d]; err != nil || runs != 5 || detecting || rep.Strands != strands || st != (Stats{}) || rep.Racy() {
			t.Errorf("%v: err %v, %d runs, Detecting %v, %d strands, %d races, stats %+v; want 5 runs, not detecting, %d strands, nothing counted",
				d, err, runs, detecting, rep.Strands, rep.RaceCount, st, strands)
		}
	}

	for _, reach := range []*dagReach{{}, {lineReach{par: true}}} {
		for _, rc := range []Reach{&reach.lineReach, reach} {
			r, _ := NewRunner(Options{Detector: DetectorSTINT, MaxHistoryBytes: 1})
			rep, err := r.RunStrands(rc, 4, strandBody(&reach.lineReach, r.Arena().AllocWords("b", 64)))
			if rep != nil || !errors.Is(err, ErrHistoryCap) {
				t.Errorf("%T over a 1-byte history cap: report %v, error %v; want an ErrHistoryCap", rc, rep != nil, err)
			}
		}
	}
}
