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

// retiredPages stands in for the History behind a Coalescer: the pages it
// lists have quiesced.
type retiredPages struct {
	pages map[uint64]bool
	stats Stats
}

func (h *retiredPages) Retired(page uint64) bool { return h.pages[page] }
func (h *retiredPages) Stats() *Stats            { return &h.stats }

// TestCoalescerRegistryDrop: an access wholly inside a page the History has
// retired is counted but sets no bit, on the word path as on the general
// one; one straddling into a live page sets all its bits (the history drops
// the dead piece); the slot arm closes from the first Flush after the
// History retires a page.
func TestCoalescerRegistryDrop(t *testing.T) {
	h := &retiredPages{pages: map[uint64]bool{}}
	c := NewCoalescer()
	c.hist = h
	const dead, live = 5 << 16, 6 << 16
	h.pages[dead>>16], h.stats.PagesQuiesced = true, 1
	c.Bits(true).SetSlot(dead+64, 8) // the History not asked yet: the slot arm is open
	if got := flushOf(c); !reflect.DeepEqual(got, []ival{{dead + 64, 8, true}}) {
		t.Fatalf("before the refresh: %v", got)
	}
	if c.Bits(false) != nil || c.Bits(true) != nil {
		t.Fatal("the slot arm stays open once the History retired a page: dead-page accesses would set bits")
	}
	c.WriteHook(dead+64, 8)
	c.ReadHook(dead+128, 4)
	c.ReadHook(dead+192, 2)
	c.WriteHook(dead+196, 4)
	c.ReadHook(live-8, 16) // straddles dead → live
	c.WriteHook(live+32, 4)
	want := []ival{{live - 8, 8, false}, {live, 8, false}, {live + 32, 4, true}}
	if got := flushOf(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("flush %v, want %v", got, want)
	}
	if h := c.Hooks(); h.WriteHookCalls != 4 || h.ReadHookCalls != 3 || h.ReadAccesses != 1+1+4 || h.WriteAccesses != 2+2+1+1 {
		t.Fatalf("dropped accesses must still be counted: %+v", *h)
	}
	c.Reset()
	if c.Bits(true) == nil {
		t.Fatal("Reset left the slot arm closed")
	}
	*h = retiredPages{} // the History's own Reset, by its owner
	c.WriteHook(dead+64, 8)
	if got := flushOf(c); len(got) != 1 {
		t.Fatalf("after Reset the page is live again, flush gave %v", got)
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
// the same order — on random programs, with quiescing off and on. The
// by-hand Coalescer never asks its History, so with quiescing on this is
// also the check that the composition's hook-side drop changes nothing.
func TestHistoryConformsToInline(t *testing.T) {
	for _, mode := range []Mode{CompRTS, STINT} {
		for _, qthresh := range []int{0, 2} {
			var total uint64
			for seed := int64(0); seed < 30; seed++ {
				prog := randomProgram(rand.New(rand.NewSource(seed)), 0, nil)
				var inRaces, handRaces []Race
				cfg := Config{Mode: mode, QuiesceThreshold: qthresh}

				cfg.OnRace = func(r Race) { inRaces = append(inRaces, r) }
				sp := spord.New()
				in := New(cfg, sp)
				runProgram(prog, sp, in)

				cfg.OnRace = func(r Race) { handRaces = append(handRaces, r) }
				sp = spord.New()
				hand := byHand{NewCoalescer(), NewHistory(cfg, sp)}
				runProgram(prog, sp, hand)

				if !reflect.DeepEqual(inRaces, handRaces) {
					t.Fatalf("%v q=%d seed %d: races differ:\ninline  %v\nby hand %v", mode, qthresh, seed, inRaces, handRaces)
				}
				if *in.Stats() != *hand.Stats() {
					t.Fatalf("%v q=%d seed %d: stats differ:\ninline  %+v\nby hand %+v", mode, qthresh, seed, *in.Stats(), *hand.Stats())
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

// TestInlineTimesTheFlushOnce: with TimeAccessHistory the composition times
// each strand's apply loop itself; the history it wraps is built with timing
// off, so the time is not counted a second time per interval.
func TestInlineTimesTheFlushOnce(t *testing.T) {
	sp := spord.New()
	e := New(Config{Mode: STINT, TimeAccessHistory: true}, sp).(*inline)
	if e.hist.(*treeEngine).timeAH {
		t.Fatal("the wrapped history was built with timing on")
	}
	for i := uint64(0); i < 100; i++ {
		e.WriteHook(0x10000+i*64, 8)
	}
	e.Finish()
	if e.Stats().AccessHistoryTime <= 0 {
		t.Fatal("TimeAccessHistory reported no access-history time")
	}
	if e.Stats().WriteIntervals != 100 {
		t.Fatalf("timed flush applied %d write intervals, want 100", e.Stats().WriteIntervals)
	}
}
