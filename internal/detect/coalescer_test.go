package detect

import (
	"math/rand"
	"reflect"
	"testing"

	"stint/internal/coalesce"
	"stint/internal/spord"
)

type ival struct {
	addr, size uint64
	write      bool
}

func flushOf(c *Coalescer) []ival {
	var got []ival
	c.Flush(
		func(a, s uint64) { got = append(got, ival{a, s, false}) },
		func(a, s uint64) { got = append(got, ival{a, s, true}) })
	return got
}

// TestCoalescerFlushMatchesBitSets pins Flush's contract against the two
// BitSets driven directly: reads then writes, each address-sorted and
// page-contained, and the hook counters equal to the coalesce.Words sums —
// whether a hook took the general path or, for a span inside one slot, the
// slot arm's Bits(write).SetSlot.
func TestCoalescerFlushMatchesBitSets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewCoalescer()
	rd, wr := coalesce.New(), coalesce.New()
	var want Stats
	for strand := 0; strand < 50; strand++ {
		for i := 0; i < 40; i++ {
			addr := 0x10000 + rng.Uint64()%(3<<16)
			size := uint64(rng.Intn(200))
			if i%13 == 0 {
				size = 1<<16 + uint64(rng.Intn(1<<16)) // straddles a page or two
			}
			write := rng.Intn(2) == 1
			switch {
			case rng.Intn(2) == 0 && coalesce.InSlot(addr, size):
				c.Bits(write).SetSlot(addr, size)
			case write:
				c.WriteHook(addr, size)
			default:
				c.ReadHook(addr, size)
			}
			if write {
				wr.SetRange(addr, size)
				want.WriteHookCalls++
				want.WriteAccesses += coalesce.Words(addr, size)
			} else {
				rd.SetRange(addr, size)
				want.ReadHookCalls++
				want.ReadAccesses += coalesce.Words(addr, size)
			}
		}
		var ref []ival
		rd.Flush(func(a, s uint64) { ref = append(ref, ival{a, s, false}) })
		wr.Flush(func(a, s uint64) { ref = append(ref, ival{a, s, true}) })
		got := flushOf(c)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("strand %d: flush %v, BitSets give %v", strand, got, ref)
		}
		for i, iv := range got {
			if iv.addr>>coalesce.PageBytesBits != (iv.addr+iv.size-1)>>coalesce.PageBytesBits {
				t.Fatalf("strand %d: interval %+v crosses a page", strand, iv)
			}
			if i > 0 && got[i-1].write == iv.write && got[i-1].addr >= iv.addr {
				t.Fatalf("strand %d: intervals %+v, %+v out of address order", strand, got[i-1], iv)
			}
			if i > 0 && got[i-1].write && !iv.write {
				t.Fatalf("strand %d: read %+v flushed after a write", strand, iv)
			}
		}
	}
	if *c.Hooks() != want {
		t.Fatalf("hook counters %+v, want %+v", *c.Hooks(), want)
	}
}

// TestCoalescerResetMidStrand: an aborted run's half-set strand must not
// leak into the next one.
func TestCoalescerResetMidStrand(t *testing.T) {
	c := NewCoalescer()
	c.ReadHook(0x20000, 4096)
	c.WriteHook(0x3fff0, 64)
	pages := c.Pages()
	c.Reset()
	if got := flushOf(c); len(got) != 0 {
		t.Fatalf("flush after Reset gave %v", got)
	}
	if *c.Hooks() != (Stats{}) {
		t.Fatalf("Reset kept counters %+v", *c.Hooks())
	}
	c.ReadHook(0x50000, 4096)
	c.WriteHook(0x6fff0, 64)
	if flushOf(c); c.Pages() != pages {
		t.Fatalf("Reset dropped warm pages: %d, had %d", c.Pages(), pages)
	}
}

// progOp is one step of a random fork-join program.
type progOp struct {
	kind       byte // 'r', 'w', 's'pawn, 'e'nd of child, 'y' sync
	addr, size uint64
}

func randomProgram(rng *rand.Rand, depth int, out []progOp) []progOp {
	pending := false
	for n := 3 + rng.Intn(6); n > 0; n-- {
		switch k := rng.Intn(10); {
		case k < 6:
			op := progOp{kind: 'r', addr: 0x10000 + rng.Uint64()%(3<<16)&^3, size: uint64(4 << rng.Intn(5))}
			if rng.Intn(3) == 0 {
				op.kind = 'w'
			}
			if rng.Intn(12) == 0 {
				op.size = 1<<16 + 64 // page-straddling
			}
			out = append(out, op)
		case k < 9 && depth < 4:
			out = append(out, progOp{kind: 's'})
			out = randomProgram(rng, depth+1, out)
			out = append(out, progOp{kind: 'e'})
			pending = true
		case pending:
			out = append(out, progOp{kind: 'y'})
			pending = false
		}
	}
	if pending {
		out = append(out, progOp{kind: 'y'})
	}
	return out
}

// byHand is the two halves wired together in the open, the way a pipeline
// does it with a ring in between: a Coalescer and a NewHistory history.
type byHand struct {
	c *Coalescer
	h History
}

func (b byHand) ReadHook(a, s uint64)  { b.c.ReadHook(a, s) }
func (b byHand) WriteHook(a, s uint64) { b.c.WriteHook(a, s) }
func (b byHand) StrandEnd()            { b.c.Flush(b.h.ReadInterval, b.h.WriteInterval); b.h.StrandEnd() }
func (b byHand) Finish()               { b.c.Flush(b.h.ReadInterval, b.h.WriteInterval); b.h.Finish() }
func (b byHand) Stats() *Stats {
	st := *b.h.Stats()
	st.Accumulate(b.c.Hooks())
	return &st
}

type hooked interface {
	ReadHook(addr, size uint64)
	WriteHook(addr, size uint64)
	StrandEnd()
	Finish()
	Stats() *Stats
}

func runProgram(prog []progOp, sp *spord.SP, e hooked) {
	type frame struct {
		f    spord.Frame
		cont *spord.Strand
	}
	stack := make([]frame, 1, 8)
	for _, op := range prog {
		top := &stack[len(stack)-1]
		switch op.kind {
		case 'r':
			e.ReadHook(op.addr, op.size)
		case 'w':
			e.WriteHook(op.addr, op.size)
		case 's':
			e.StrandEnd()
			_, cont := sp.Spawn(&top.f)
			stack = append(stack, frame{cont: cont})
		case 'e':
			e.StrandEnd()
			sp.Restore(top.cont)
			stack = stack[:len(stack)-1]
		case 'y':
			e.StrandEnd()
			sp.Sync(&top.f)
		}
	}
	e.Finish()
}

// TestHistoryConformsToInline: for every interval-fed mode, a Coalescer
// flushed by hand into NewHistory's history reports exactly what New's
// composition reports when driven through hooks — same Stats, same races in
// the same order — on random programs, with quiescing off and on. The same
// composition with TimeAccessHistory, whose clock holds each strand's
// intervals until StrandEnd, reports the same races and Stats but for
// AccessHistoryTime: a clock that applied them after the strand ended would
// check them as another strand's.
func TestHistoryConformsToInline(t *testing.T) {
	for _, mode := range []Mode{CompRTS, STINT} {
		for _, qthresh := range []int{0, 2} {
			var total uint64
			for seed := int64(0); seed < 30; seed++ {
				prog := randomProgram(rand.New(rand.NewSource(seed)), 0, nil)
				var inRaces, handRaces, timedRaces []Race
				cfg := Config{Mode: mode, QuiesceThreshold: qthresh}

				cfg.OnRace = func(r Race) { inRaces = append(inRaces, r) }
				sp := spord.New()
				in := New(cfg, sp)
				runProgram(prog, sp, in)

				cfg.OnRace = func(r Race) { handRaces = append(handRaces, r) }
				sp = spord.New()
				hand := byHand{NewCoalescer(), NewHistory(cfg, sp)}
				runProgram(prog, sp, hand)

				cfg.OnRace = func(r Race) { timedRaces = append(timedRaces, r) }
				cfg.TimeAccessHistory = true
				sp = spord.New()
				timed := New(cfg, sp)
				runProgram(prog, sp, timed)

				if !reflect.DeepEqual(inRaces, handRaces) {
					t.Fatalf("%v q=%d seed %d: races differ:\ninline  %v\nby hand %v", mode, qthresh, seed, inRaces, handRaces)
				}
				if *in.Stats() != *hand.Stats() {
					t.Fatalf("%v q=%d seed %d: stats differ:\ninline  %+v\nby hand %+v", mode, qthresh, seed, *in.Stats(), *hand.Stats())
				}
				if !reflect.DeepEqual(inRaces, timedRaces) {
					t.Fatalf("%v q=%d seed %d: races differ:\nuntimed %v\ntimed   %v", mode, qthresh, seed, inRaces, timedRaces)
				}
				st := *timed.Stats()
				st.AccessHistoryTime = 0
				if *in.Stats() != st {
					t.Fatalf("%v q=%d seed %d: stats differ:\nuntimed %+v\ntimed   %+v", mode, qthresh, seed, *in.Stats(), st)
				}
				if qthresh > 0 {
					total += in.Stats().PagesQuiesced
				} else {
					total += in.Stats().Races
				}
			}
			if total == 0 {
				t.Fatalf("%v q=%d: the random programs never raced or never quiesced a page", mode, qthresh)
			}
		}
	}
}

// TestInlineTimesTheFlushOnce: with TimeAccessHistory, New's composition
// flushes into the one clock, which holds the strand's intervals until
// StrandEnd and then applies them all under one pair of clock reads — the
// history it wraps has no clock of its own.
func TestInlineTimesTheFlushOnce(t *testing.T) {
	sp := spord.New()
	e := New(Config{Mode: STINT, TimeAccessHistory: true}, sp).(*inline)
	c, ok := e.hist.(*clocked)
	if !ok {
		t.Fatalf("the composition's history is a %T, not the clock", e.hist)
	}
	for i := uint64(0); i < 100; i++ {
		e.WriteHook(0x10000+i*64, 8)
	}
	e.Flush(e.read, e.write)
	if len(c.spans) != 100 || c.History.Stats().WriteIntervals != 0 {
		t.Fatalf("the clock holds %d intervals and applied %d before StrandEnd, want 100 and 0", len(c.spans), c.History.Stats().WriteIntervals)
	}
	e.StrandEnd()
	e.Finish()
	if e.Stats().AccessHistoryTime <= 0 {
		t.Fatal("TimeAccessHistory reported no access-history time")
	}
	if e.Stats().WriteIntervals != 100 || len(c.spans) != 0 {
		t.Fatalf("timed flush applied %d write intervals and kept %d, want 100 and 0", e.Stats().WriteIntervals, len(c.spans))
	}
}
