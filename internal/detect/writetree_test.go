package detect_test

import (
	"testing"

	"stint"
	"stint/internal/detect"
	"stint/internal/spord"
	"stint/workloads"
)

// replay is a Tracer that drives a detect.Engine the way the runner's own
// structure replay does: accesses go to the engine's hooks, and each
// structure event ends the current strand, calls after, and moves SP-Order.
type replay struct {
	sp    *spord.SP
	e     detect.Engine
	stack []replayFrame
	after func()
}

type replayFrame struct {
	f    spord.Frame
	cont *spord.Strand
}

func (r *replay) end() *replayFrame {
	r.e.StrandEnd()
	r.after()
	return &r.stack[len(r.stack)-1]
}

func (r *replay) Spawn() {
	_, cont := r.sp.Spawn(&r.end().f)
	r.stack = append(r.stack, replayFrame{cont: cont})
}

func (r *replay) Restore() {
	r.sp.Restore(r.end().cont)
	r.stack = r.stack[:len(r.stack)-1]
}

func (r *replay) Sync()                                        { r.sp.Sync(&r.end().f) }
func (r *replay) Read(addr stint.Addr, size uint64)            { r.e.ReadHook(addr, size) }
func (r *replay) Write(addr stint.Addr, size uint64)           { r.e.WriteHook(addr, size) }
func (r *replay) ReadRange(addr stint.Addr, n int, eb uint64)  { r.e.ReadRangeHook(addr, n, eb) }
func (r *replay) WriteRange(addr stint.Addr, n int, eb uint64) { r.e.WriteRangeHook(addr, n, eb) }

// TestWriteTreeHasNoSameWriterTouches pins why the write tree, unlike the
// read tree, needs no merge step (DESIGN.md §3): a strand's flush writes
// maximal intervals and strand IDs never repeat, so no two touching write
// nodes share a writer. It runs the seven workloads, and racy mmul, at their
// default sizes through a STINT engine and walks every page's write tree at
// every strand end.
func TestWriteTreeHasNoSameWriterTouches(t *testing.T) {
	for _, name := range append(workloads.Names(), "mmul-racy") {
		f, err := workloads.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		w := f()
		sp := spord.New()
		rp := &replay{sp: sp, e: detect.New(detect.Config{Mode: detect.STINT}, sp), stack: make([]replayFrame, 1)}
		rp.after = func() {
			if pairs, _ := detect.SameWriterTouches(rp.e); pairs != 0 {
				t.Fatalf("%s: %d pairs of touching write nodes share a writer", name, pairs)
			}
		}
		r, err := stint.NewRunner(stint.Options{Tracer: rp})
		if err != nil {
			t.Fatal(err)
		}
		w.Setup(r)
		if _, err := r.Run(w.Run); err != nil {
			t.Fatal(err)
		}
		rp.e.Finish()
		if pairs, nodes := detect.SameWriterTouches(rp.e); pairs != 0 || nodes == 0 {
			t.Fatalf("%s: %d pairs of touching write nodes share a writer, of %d nodes", name, pairs, nodes)
		}
	}
}
