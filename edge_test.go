package stint

import (
	"strings"
	"testing"

	"stint/internal/coalesce"
)

func TestDeepSpawnRecursion(t *testing.T) {
	// Serial execution nests one Go call frame per spawn level; 10k levels
	// must work (Go stacks grow on demand).
	r, err := NewRunner(Options{Detector: DetectorSTINT})
	if err != nil {
		t.Fatal(err)
	}
	buf := r.Arena().AllocWords("b", 4)
	var dive func(t *Task, depth int)
	dive = func(task *Task, depth int) {
		if depth == 0 {
			task.Store(buf, 0)
			return
		}
		task.Spawn(func(c *Task) { dive(c, depth-1) })
		task.Sync()
	}
	if rep, err := r.Run(func(task *Task) { dive(task, 10000) }); err != nil || rep.Racy() || rep.Strands < 30000 {
		t.Fatalf("serial chain: error %v, racy, or %d strands, want ~3 per level", err, rep.Strands)
	}
}

func TestManySiblingStrands(t *testing.T) {
	acts := make([]act, 50000)
	for i := range acts {
		acts[i] = spawn(store(i * 2))
	}
	p := newProgram([]bufSpec{{100000, 1}}, append(acts, syncAct))
	if rep := newHarness(t, nil, 1).mustRun(Options{Detector: DetectorSTINT}, p); rep.Racy() || rep.Stats.WriteIntervals != 50000 {
		t.Fatalf("disjoint sibling writes: %d races, %d write intervals, want 0 and 50000", rep.RaceCount, rep.Stats.WriteIntervals)
	}
}

func TestRepeatedSyncsAreIdempotent(t *testing.T) {
	verdict(t, false, spawn(store(0)), syncAct, syncAct, syncAct, store(0)) // the extra syncs are no-ops
}

// Many sequential sync blocks in one task: each block's child is ordered
// with the next block's accesses.
func TestAlternatingSpawnSyncBlocks(t *testing.T) {
	var acts []act
	for i := 0; i < 200; i++ {
		acts = append(acts, spawn(store(0)), syncAct)
	}
	verdict(t, false, acts...)
}

func TestZeroLengthRangeHooksIgnored(t *testing.T) {
	if s := runOne(t, DetectorSTINT, loadN(4, 0), storeN(0, 0)).Stats; s.ReadAccesses != 0 || s.WriteAccesses != 0 {
		t.Fatalf("zero-length ranges recorded accesses: %+v", s)
	}
}

// A child spawning before its parent syncs exercises nested frames with
// interleaved pending sync blocks; the final read follows every join.
func TestSpawnInsideSpawnSameBlock(t *testing.T) {
	verdict(t, false, spawn(spawn(store(0)), store(1)), spawn(store(2)), store(3), syncAct, loadN(0, 4))
}

// lastWord is the final shadow word of the address space, [2^64-4, 2^64).
const lastWord = ^Addr(3)

// TestRawAccessWrappingAddressSpacePanics: two logically parallel raw stores
// that run off the end of the address space used to vanish — no bit set, no
// race, a 2^63 word count — while the same span through StoreRangeAt
// panicked. Every raw hook now rejects it the way checkRange always did, in
// every mode, and the last word the detector can represent still races. The
// address space's last bitmap slot is never the slot arm's, so a span inside
// it that wraps still meets the check, and a legal one there still races.
func TestRawAccessWrappingAddressSpacePanics(t *testing.T) {
	for _, d := range []Detector{DetectorOff, DetectorVanilla, DetectorCompRTS, DetectorSTINT} {
		for _, hook := range []func(*Task){
			func(task *Task) { task.StoreAt(lastWord, 8) },
			func(task *Task) { task.LoadAt(lastWord, 4) },   // the end computation, not just addr+size, overflows
			func(task *Task) { task.LoadAt(lastWord-4, 8) }, // inside one slot, and wraps
			func(task *Task) { task.StoreRangeAt(lastWord, 1, 4) },
		} {
			r, err := NewRunner(Options{Detector: d})
			if err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if p, _ := recover().(string); !strings.Contains(p, "wraps the address space") {
						t.Fatalf("%v: want the wrap panic, got %q", d, p)
					}
				}()
				r.Run(func(task *Task) {
					task.Spawn(hook)
					hook(task)
					task.Sync()
				})
			}()
		}
	}
	lastSlot := ^Addr(coalesce.SlotBytes - 1)
	for _, d := range []Detector{DetectorVanilla, DetectorCompRTS, DetectorSTINT} {
		for _, span := range []struct{ addr, size uint64 }{
			{lastWord - 4, 4},   // the last representable word
			{lastSlot, 16},      // legal, in the last slot: the general arm
			{lastSlot - 16, 16}, // the slot before it: the slot arm
		} {
			r, _ := NewRunner(Options{Detector: d})
			rep, err := r.Run(func(task *Task) {
				task.Spawn(func(c *Task) { c.StoreAt(span.addr, span.size) })
				task.StoreAt(span.addr, span.size)
				task.Sync()
			})
			races := span.size / 4 // the shadow hashmap: one per word
			if d == DetectorSTINT {
				races = 1 // the treap: one per interval
			}
			if err != nil || rep.RaceCount != races || rep.Stats.WriteAccesses != 2*span.size/4 {
				t.Fatalf("%v: [%#x, +%d): %d races, %d write words, err %v; want %d, %d, nil",
					d, span.addr, span.size, rep.RaceCount, rep.Stats.WriteAccesses, err, races, 2*span.size/4)
			}
		}
	}
}

// TestTimeAccessHistorySyncTimesEachFlushOnce: a synchronous run with
// TimeAccessHistory reports the strand flushes' apply time — positive, and
// inside the wall clock it is a part of (the history behind the coalescer
// is built with timing off, so nothing is counted twice).
func TestTimeAccessHistorySyncTimesEachFlushOnce(t *testing.T) {
	for _, d := range []Detector{DetectorCompRTS, DetectorSTINT} {
		r, err := NewRunner(Options{Detector: d, TimeAccessHistory: true})
		if err != nil {
			t.Fatal(err)
		}
		buf := r.Arena().AllocWords("b", 1<<14)
		rep, err := r.Run(func(task *Task) {
			for i := 0; i < 64; i++ {
				task.Spawn(func(c *Task) { c.StoreRange(buf, i*256, 128) })
			}
			task.Sync()
		})
		if err != nil {
			t.Fatal(err)
		}
		if ah := rep.Stats.AccessHistoryTime; ah <= 0 || ah >= rep.WallTime {
			t.Fatalf("%v: AccessHistoryTime %v outside (0, wall %v)", d, ah, rep.WallTime)
		}
	}
}
