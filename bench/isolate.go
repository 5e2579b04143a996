package main

import (
	"bytes"
	"fmt"
	"time"

	"stint"
	"stint/internal/coalesce"
	"stint/internal/depa"
	"stint/internal/detect"
	"stint/internal/evstream"
	"stint/internal/spord"
	"stint/trace"
)

// Layer isolation: the workload's event stream is captured once through
// the public stint.Tracer, then each layer's public API is driven alone
// with it and the call is timed. Every driver also checks that the layer
// did the work the reference run did, so a timing of the wrong work fails
// the run instead of entering the ledger.

const isolationReps = 3 // timed repetitions per layer, after one untimed

// capture is a stint.Tracer that keeps the stream in memory, in the fixed
// event form the pipeline's own ring uses.
type capture struct{ ev []evstream.Event }

func (c *capture) Spawn()   { c.ev = append(c.ev, evstream.Ctl(evstream.OpSpawn)) }
func (c *capture) Restore() { c.ev = append(c.ev, evstream.Ctl(evstream.OpRestore)) }
func (c *capture) Sync()    { c.ev = append(c.ev, evstream.Ctl(evstream.OpSync)) }
func (c *capture) Read(addr stint.Addr, size uint64) {
	c.ev = append(c.ev, evstream.Access(evstream.OpRead, addr, size))
}
func (c *capture) Write(addr stint.Addr, size uint64) {
	c.ev = append(c.ev, evstream.Access(evstream.OpWrite, addr, size))
}
func (c *capture) ReadRange(addr stint.Addr, count int, elem uint64) {
	c.ev = append(c.ev, evstream.Range(evstream.OpReadRange, addr, count, elem))
}
func (c *capture) WriteRange(addr stint.Addr, count int, elem uint64) {
	c.ev = append(c.ev, evstream.Range(evstream.OpWriteRange, addr, count, elem))
}

// timeLayer runs prepare (untimed) then body (timed), once to warm up and
// isolationReps times for the record, under a span named after the layer.
// check, run after the last repetition, gates what the layer produced.
func (b *bench) timeLayer(name string, prepare, body func(), check func() error) dist {
	var times []float64
	for i := 0; i <= isolationReps; i++ {
		if prepare != nil {
			prepare()
		}
		sp := b.rec.begin(name, -1, i)
		t0 := time.Now()
		body()
		d := time.Since(t0)
		b.rec.end(sp)
		if i > 0 {
			times = append(times, ms(d))
		}
	}
	b.gate(check(), name)
	return timing(times)
}

// spFrame is one open task on a replay's stack, as in the Async pipeline's
// consumer stage, which the two spord replays below mirror.
type spFrame struct {
	frame spord.Frame
	cont  *spord.Strand
}

// replayOntoEngine feeds a stream to an engine over its SP-Order structure:
// the whole synchronous detector without the Runner and Task layers.
func replayOntoEngine(events []evstream.Event, sp *spord.SP, eng detect.Engine) {
	stack := make([]spFrame, 1, 64)
	for _, ev := range events {
		switch ev.EvOp() {
		case evstream.OpSpawn:
			eng.StrandEnd()
			_, cont := sp.Spawn(&stack[len(stack)-1].frame)
			stack = append(stack, spFrame{cont: cont})
		case evstream.OpRestore:
			cont := stack[len(stack)-1].cont
			stack = stack[:len(stack)-1]
			eng.StrandEnd()
			sp.Restore(cont)
		case evstream.OpSync:
			eng.StrandEnd()
			sp.Sync(&stack[len(stack)-1].frame)
		case evstream.OpRead:
			eng.ReadHook(ev.Addr(), ev.Size())
		case evstream.OpWrite:
			eng.WriteHook(ev.Addr(), ev.Size())
		case evstream.OpReadRange:
			eng.ReadRangeHook(ev.Addr(), ev.Count(), ev.Elem())
		case evstream.OpWriteRange:
			eng.WriteRangeHook(ev.Addr(), ev.Count(), ev.Elem())
		}
	}
	eng.Finish()
}

// replayOntoSP feeds only the structure events to SP-Order.
func replayOntoSP(events []evstream.Event, sp *spord.SP) {
	stack := make([]spFrame, 1, 64)
	for _, ev := range events {
		switch ev.EvOp() {
		case evstream.OpSpawn:
			_, cont := sp.Spawn(&stack[len(stack)-1].frame)
			stack = append(stack, spFrame{cont: cont})
		case evstream.OpRestore:
			sp.Restore(stack[len(stack)-1].cont)
			stack = stack[:len(stack)-1]
		case evstream.OpSync:
			sp.Sync(&stack[len(stack)-1].frame)
		}
	}
}

// replayOntoLabels drives the label stage's work: the depa Builder advances
// on structure events and a fresh View is taken whenever the strand set
// grew. It returns the number of views taken.
func replayOntoLabels(events []evstream.Event, lb *depa.Builder) int {
	view := lb.View()
	views := 1
	for _, ev := range events {
		switch ev.EvOp() {
		case evstream.OpSpawn:
			lb.Spawn()
		case evstream.OpRestore:
			lb.Restore()
		case evstream.OpSync:
			lb.Sync()
		default:
			continue
		}
		if lb.StrandCount() > view.StrandCount() {
			view = lb.View()
			views++
		}
	}
	return views
}

// replayOntoBitSets drives the runtime-coalescing layer as the STINT
// engine does: word accesses and ranges set bits in the strand's read and
// write sets, every structure event ends the strand and flushes both. It
// returns the intervals the flushes emitted.
func replayOntoBitSets(events []evstream.Event, rd, wr *coalesce.BitSet) (intervals uint64) {
	emit := func(uint64, uint64) { intervals++ }
	set := func(bs *coalesce.BitSet, addr, size uint64) {
		if size <= 4 && addr&3 == 0 {
			bs.Set(addr)
		} else {
			bs.SetRange(addr, size)
		}
	}
	for _, ev := range events {
		switch ev.EvOp() {
		case evstream.OpRead:
			set(rd, ev.Addr(), ev.Size())
		case evstream.OpWrite:
			set(wr, ev.Addr(), ev.Size())
		case evstream.OpReadRange:
			rd.SetRange(ev.Addr(), uint64(ev.Count())*ev.Elem())
		case evstream.OpWriteRange:
			wr.SetRange(ev.Addr(), uint64(ev.Count())*ev.Elem())
		default:
			rd.Flush(emit)
			wr.Flush(emit)
		}
	}
	rd.Flush(emit)
	wr.Flush(emit)
	return intervals
}

// codec encodes a stream into ring batches of one encoding and decodes it
// back. The batches are kept between encodes, so a timed encode allocates
// nothing once warm.
type codec struct {
	ring    *evstream.Ring
	batches []*evstream.Batch
}

func (c *codec) encode(events []evstream.Event) {
	n := 0
	next := func() *evstream.Batch {
		if n == len(c.batches) {
			c.batches = append(c.batches, c.ring.Get())
		}
		bt := c.batches[n]
		n++
		bt.Reset()
		return bt
	}
	bt := next()
	for _, ev := range events {
		if bt.Full() {
			bt = next()
		}
		switch op := ev.EvOp(); op {
		case evstream.OpRead, evstream.OpWrite:
			bt.AppendAccess(op, ev.Addr(), ev.Size())
		case evstream.OpReadRange, evstream.OpWriteRange:
			bt.AppendRange(op, ev.Addr(), ev.Count(), ev.Elem())
		default:
			bt.AppendCtl(op)
		}
	}
	c.batches = c.batches[:n]
}

// decode scans every batch with the block decoder the pipeline's consumers
// use and returns the events seen and a checksum of their addresses.
func (c *codec) decode() (events int, sum uint64) {
	var blk [evstream.BlockEvents]evstream.Event
	for _, bt := range c.batches {
		it := bt.Iter()
		for {
			evs := it.DecodeBlock(&blk)
			if len(evs) == 0 {
				break
			}
			events += len(evs)
			for _, ev := range evs {
				sum += ev.Addr()
			}
		}
	}
	return events, sum
}

// isolate fills in the layer-isolation part of the ledger.
func (b *bench) isolate(vals values) error {
	c := &capture{}
	err := b.runWithTracer(c)
	events := c.ev
	if err != nil {
		return fmt.Errorf("capturing the event stream: %w", err)
	}
	ref := b.env.ref
	n := float64(len(events))
	var addrSum uint64
	for _, ev := range events {
		addrSum += ev.Addr()
	}

	sp := spord.New()
	eng := detect.New(detect.Config{Mode: detect.STINT}, sp)
	vals["detect.engine_ms"] = b.timeLayer("isolated.detect.Engine",
		func() { sp.Reset(); eng.Reset() },
		func() { replayOntoEngine(events, sp, eng) },
		func() error {
			if got := countsOf(eng.Stats()); got != countsOf(&ref.Stats) || sp.StrandCount() != ref.Strands {
				return fmt.Errorf("stats %+v over %d strands, reference has %+v over %d", got, sp.StrandCount(), countsOf(&ref.Stats), ref.Strands)
			}
			return nil
		})

	rd, wr := coalesce.New(), coalesce.New()
	var intervals uint64
	d := b.timeLayer("isolated.coalesce.BitSet", nil,
		func() { intervals = replayOntoBitSets(events, rd, wr) },
		func() error {
			if want := ref.Stats.ReadIntervals + ref.Stats.WriteIntervals; intervals != want {
				return fmt.Errorf("%d intervals, reference has %d", intervals, want)
			}
			return nil
		})
	vals["coalesce.set_flush_ms"] = d
	words := float64(ref.Stats.ReadAccesses + ref.Stats.WriteAccesses)
	vals["coalesce.ns_per_word"] = stat(ratio(d.Value*1e6, words), d.N)

	vals["spord.structure_ms"] = b.timeLayer("isolated.spord.SP", sp.Reset,
		func() { replayOntoSP(events, sp) },
		func() error {
			if sp.StrandCount() != ref.Strands {
				return fmt.Errorf("%d strands, reference has %d", sp.StrandCount(), ref.Strands)
			}
			return nil
		})

	lb := depa.NewBuilder()
	vals["depa.label_ms"] = b.timeLayer("isolated.depa.Builder", lb.Reset,
		func() { replayOntoLabels(events, lb) },
		func() error {
			if lb.StrandCount() != ref.Strands {
				return fmt.Errorf("%d strands, reference has %d", lb.StrandCount(), ref.Strands)
			}
			return nil
		})

	for _, enc := range []struct {
		prefix string
		ring   *evstream.Ring
	}{
		{"evstream.", evstream.NewCompactRing(1, 4096)},
		{"evstream.fixed_", evstream.NewRing(1, 4096)},
	} {
		c := &codec{ring: enc.ring}
		var seen int
		var sum uint64
		same := func() error {
			if seen != len(events) || sum != addrSum {
				return fmt.Errorf("decoded %d events (address sum %#x), encoded %d (%#x)", seen, sum, len(events), addrSum)
			}
			return nil
		}
		d := b.timeLayer("isolated."+enc.prefix+"encode", nil, func() { c.encode(events) },
			func() error { seen, sum = c.decode(); return same() })
		vals[enc.prefix+"encode_ns_per_event"] = stat(ratio(d.Value*1e6, n), d.N)
		d = b.timeLayer("isolated."+enc.prefix+"decode", nil, func() { seen, sum = c.decode() }, same)
		vals[enc.prefix+"decode_ns_per_event"] = stat(ratio(d.Value*1e6, n), d.N)
	}

	var buf bytes.Buffer
	buf.Grow(len(b.env.trace))
	vals["trace.record_ms"] = b.timeLayer("isolated.trace.Recorder", buf.Reset,
		func() { record(events, &buf) },
		func() error {
			if !bytes.Equal(buf.Bytes(), b.env.trace) {
				return fmt.Errorf("re-recorded trace (%d B) differs from the set-up trace (%d B)", buf.Len(), len(b.env.trace))
			}
			return nil
		})
	vals["trace.bytes_per_event"] = point(ratio(float64(len(b.env.trace)), n))

	off := b.env.runners[modeOff]
	vals["trace.decode_ms"] = b.timeLayer("isolated.trace.Replay/off", nil,
		func() { _, err = trace.Replay(bytes.NewReader(b.env.trace), trace.Options{Runner: off}) },
		func() error { return err })
	return nil
}

// record drives a trace.Recorder with a captured stream.
func record(events []evstream.Event, buf *bytes.Buffer) {
	rec := trace.NewRecorder(buf)
	for _, ev := range events {
		switch ev.EvOp() {
		case evstream.OpSpawn:
			rec.Spawn()
		case evstream.OpRestore:
			rec.Restore()
		case evstream.OpSync:
			rec.Sync()
		case evstream.OpRead:
			rec.Read(ev.Addr(), ev.Size())
		case evstream.OpWrite:
			rec.Write(ev.Addr(), ev.Size())
		case evstream.OpReadRange:
			rec.ReadRange(ev.Addr(), ev.Count(), ev.Elem())
		case evstream.OpWriteRange:
			rec.WriteRange(ev.Addr(), ev.Count(), ev.Elem())
		}
	}
	_ = rec.Flush() // a bytes.Buffer cannot fail a write
}
