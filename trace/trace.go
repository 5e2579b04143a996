// Package trace records instrumented fork-join executions to a compact
// binary stream and replays them through any detector configuration.
//
// A trace captures everything race detection needs — the spawn/sync
// structure (from which SP-bags reachability is rebuilt) and the memory
// access events with their coalescing level — but not the computation
// itself. Recording is cheap enough to run with detection off; the trace
// can then be analyzed offline under every detector without re-executing
// the program:
//
//	// record once
//	var buf bytes.Buffer
//	rec := trace.NewRecorder(&buf)
//	r, _ := stint.NewRunner(stint.Options{Tracer: rec})
//	r.Run(program)
//	rec.Flush()
//
//	// replay under any detector
//	rep, _ := trace.Replay(bytes.NewReader(buf.Bytes()),
//	    trace.Options{Detector: stint.DetectorSTINT})
//
// The format is a magic header followed by one-byte opcodes with uvarint
// operands. Addresses are delta-encoded against the previous event's
// address (zig-zag varints). A per-access event whose size repeats the
// previous one's and whose address lies a few words from a predicted one
// takes one or two bytes instead (see stride), which keeps traces of
// loop-heavy programs near one byte per access.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"stint"
	"stint/internal/evstream"
	"stint/internal/mem"
)

// Opcode values. The on-disk format is stable: new opcodes may be added,
// existing ones never change meaning.
const (
	opSpawn      = 0x01 // begin a spawned child task
	opRestore    = 0x02 // child returned; resume the continuation
	opSync       = 0x03 // sync with pending spawns (no-op syncs are elided)
	opRead       = 0x10 // addrDelta, size
	opWrite      = 0x11 // addrDelta, size
	opReadRange  = 0x12 // addrDelta, count, elemBytes
	opWriteRange = 0x13 // addrDelta, count, elemBytes
	opEnd        = 0x7F // end of trace
	// opShort2 … opShort2+0x3F: a per-access event in two bytes, the tag
	// opShort2 + (write<<5 | base<<4 | delta>>8&0xF), then delta&0xFF:
	// delta is a 12-bit signed word delta from stride.base(base).
	opShort2 = 0x20
	// opShort1 … 0xFF: a per-access event in one byte,
	// opShort1 | write<<6 | base<<5 | delta&0x1F, with a 5-bit signed word
	// delta.
	opShort1 = 0x80
)

// form maps a short-form tag to its form's first code, opShort1 or
// opShort2, and leaves every other opcode as it is.
func form(code byte) byte {
	if code >= opShort1 {
		return opShort1
	}
	if code-opShort2 < 0x40 {
		return opShort2
	}
	return code
}

// stride is the prediction both ends of a trace keep so that a short form
// can leave out what it gets right: the last access or range event's
// address, the movement that reached it, and the last per-access event's
// size (0 before the first). A short form names an event of that size at a
// word delta from one of two bases: the last address (base 0), or the last
// address moved once more by the last movement (base 1).
type stride struct {
	addr, delta mem.Addr
	size        uint64
}

// step is the one update rule, after every access or range event: addr is
// its address, size its size for a per-access event and s.size for a range.
func (s stride) step(addr mem.Addr, size uint64) stride {
	return stride{addr: addr, delta: addr - s.addr, size: size}
}

func (s stride) base(b byte) mem.Addr { return s.addr + s.delta*mem.Addr(b) }

// short1 is the address a one-byte form names.
func (s stride) short1(code byte) mem.Addr {
	return s.base(code>>5&1) + mem.Addr(int64(int8(code<<3))>>1)
}

// short2 is the address a two-byte form names: x is its tag less opShort2,
// lo its second byte.
func (s stride) short2(x, lo byte) mem.Addr {
	return s.base(x>>4&1) + mem.Addr(int64(int16(uint16(x)<<12|uint16(lo)<<4))>>2)
}

var magic = [8]byte{'S', 'T', 'N', 'T', 'T', 'R', 'C', '1'}

// maxEventBytes bounds one encoded event: an opcode and at most three
// uvarint operands.
const maxEventBytes = 1 + 3*binary.MaxVarintLen64

// Recorder implements stint.Tracer, serializing events to an io.Writer.
// Recorders are not safe for concurrent use; record serial executions only.
type Recorder struct {
	w    io.Writer
	buf  []byte // encoded bytes not yet written to w
	pred stride
	err  error // w's first error; nothing is written to w after it
}

// NewRecorder returns a Recorder writing to w. Call Flush when the run
// completes.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{w: w, buf: append(make([]byte, 0, windowBytes), magic[:]...)}
}

// room makes room for one event, writing the buffered bytes out when fewer
// than maxEventBytes are free, so that appending the event never grows buf.
func (r *Recorder) room() {
	if cap(r.buf)-len(r.buf) < maxEventBytes {
		r.write()
	}
}

// write hands the buffered bytes to w in one Write.
func (r *Recorder) write() {
	if r.err == nil {
		_, r.err = r.w.Write(r.buf)
	}
	r.buf = r.buf[:0]
}

// addrOperand zig-zag-encodes the address movement since the last event.
func (r *Recorder) addrOperand(addr mem.Addr) uint64 {
	d := int64(addr - r.pred.addr)
	return uint64((d << 1) ^ (d >> 63))
}

// op records an event with no operands.
func (r *Recorder) op(code byte) {
	r.room()
	r.buf = append(r.buf, code)
}

// access records a per-access event in the shortest form that carries it:
// one byte, two, or the long form's opcode and two operands.
func (r *Recorder) access(write byte, addr mem.Addr, size uint64) {
	r.room()
	if !r.short(write, addr, size) {
		r.buf = binary.AppendUvarint(binary.AppendUvarint(append(r.buf, opRead+write), r.addrOperand(addr)), size)
	}
	r.pred = r.pred.step(addr, size)
}

// short appends a per-access event as a short form, one byte before two
// and base 0 before base 1, and reports false when its size is not the
// predicted one or no form's word delta reaches addr.
func (r *Recorder) short(write byte, addr mem.Addr, size uint64) bool {
	if size != r.pred.size {
		return false
	}
	for _, reach := range [2]int64{1 << 4, 1 << 11} {
		for b := byte(0); b < 2; b++ {
			off := int64(addr - r.pred.base(b))
			if w := off >> 2; off&3 == 0 && -reach <= w && w < reach {
				if reach == 1<<4 {
					r.buf = append(r.buf, opShort1|write<<6|b<<5|byte(w)&0x1F)
				} else {
					r.buf = append(r.buf, opShort2+(write<<5|b<<4|byte(w>>8)&0xF), byte(w))
				}
				return true
			}
		}
	}
	return false
}

// rangeEvent records a compiler-coalesced access.
func (r *Recorder) rangeEvent(code byte, addr mem.Addr, count int, elemBytes uint64) {
	r.room()
	r.buf = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(append(r.buf, code),
		r.addrOperand(addr)), uint64(count)), elemBytes)
	r.pred = r.pred.step(addr, r.pred.size)
}

// Spawn records the start of a spawned child.
func (r *Recorder) Spawn() { r.op(opSpawn) }

// Restore records a child's return to its parent's continuation.
func (r *Recorder) Restore() { r.op(opRestore) }

// Sync records a strand-creating sync.
func (r *Recorder) Sync() { r.op(opSync) }

// Read records a per-access load.
func (r *Recorder) Read(addr mem.Addr, size uint64) { r.access(0, addr, size) }

// Write records a per-access store.
func (r *Recorder) Write(addr mem.Addr, size uint64) { r.access(1, addr, size) }

// ReadRange records a compiler-coalesced load.
func (r *Recorder) ReadRange(addr mem.Addr, count int, elemBytes uint64) {
	r.rangeEvent(opReadRange, addr, count, elemBytes)
}

// WriteRange records a compiler-coalesced store.
func (r *Recorder) WriteRange(addr mem.Addr, count int, elemBytes uint64) {
	r.rangeEvent(opWriteRange, addr, count, elemBytes)
}

// Flush terminates the trace and writes out what is buffered. The Recorder
// must not be used afterwards.
func (r *Recorder) Flush() error {
	r.op(opEnd)
	r.write()
	return r.err
}

// Options configures a replay.
type Options struct {
	// Detector is the shorthand for a one-off replay: Replay builds a fresh
	// synchronous Runner with this engine and default Options (DetectorOff
	// is an error — a trace exists to be analyzed). Ignored when Runner is
	// set.
	Detector stint.Detector
	// Runner, when non-nil, replays through the caller's Runner, whose own
	// stint.Options govern the replay — Async, shard count, OnRace, race
	// budget, quiescing, history cap. Run auto-resets a dirty Runner, so a
	// long-lived Runner can serve many Replay calls with its warm state —
	// reports are byte-identical to fresh-Runner replays. The Runner must
	// not be used concurrently by other callers, and must be serial
	// (Runner.Serial): under Options.ParallelDetect the spawned tasks would
	// read the one decoder from several goroutines, so Replay refuses it
	// with ErrParallelRunner.
	Runner *stint.Runner
	// MaxEvents, when > 0, bounds the number of trace events (structure and
	// access) a replay will consume. A trace exceeding the budget aborts
	// with an error matching ErrTooManyEvents; the Runner (caller-provided
	// or internal) stays valid — its next Run resets it.
	MaxEvents uint64
}

// ErrTooManyEvents is returned (wrapped) by Replay when the trace exceeds
// Options.MaxEvents. Use errors.Is to test for it.
var ErrTooManyEvents = errors.New("trace: event budget exceeded")

// ErrParallelRunner is returned by Replay, before it reads anything, when
// Options.Runner was built with stint.Options.ParallelDetect.
var ErrParallelRunner = errors.New("trace: replay needs a serial Runner, got one built with Options.ParallelDetect: its spawned tasks would decode the one trace stream concurrently")

// maxSpawnDepth bounds spawn nesting in a replayed trace. replayBody
// recurses once per open spawn, so without a bound a few megabytes of
// opSpawn bytes overflow the goroutine stack — a fatal error no recover
// can catch. 2^16 levels cost tens of megabytes of stack and sit far above
// any workloads.Names() program (divide-and-conquer nesting is logarithmic
// in the problem size).
const maxSpawnDepth = 1 << 16

// decoder drives a replayed execution through the public stint API: the
// trace's structure events become Task.Spawn/Sync calls and its access
// events become the *At hooks, so a replay exercises exactly the machinery
// a live run does — including the async pipeline and sharded detection,
// when the caller's Runner is configured for them.
//
// Events decode straight out of a byte window over src: the undecoded
// bytes are win[pos:], and the window is refilled at the top of an event
// only, so every operand of the event is already in the slice.
type decoder struct {
	br        *bufio.Reader
	win       []byte // br's buffered bytes; win[:pos] is decoded
	pos       int
	srcErr    error // src's first error (io.EOF at its end); src is not read after it
	pred      stride
	err       error
	maxEvents uint64 // 0 = unbounded
	events    uint64
}

// windowBytes is the decoder's window, the Recorder's buffer size: one Read
// and one slide of at most maxEventBytes per 64 KiB of trace.
const windowBytes = 1 << 16

// errOverflow is binary.ReadUvarint's error text for a varint longer than
// 64 bits, which the encoding package does not export.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// refill is the window's one rule: drop the bytes before rest, let br slide
// the tail to the front and read until a whole event fits or src has ended,
// and return the new window, everything br holds.
func (d *decoder) refill(rest []byte) []byte {
	d.br.Discard(len(d.win) - len(rest))
	d.pos = 0
	if d.srcErr == nil {
		_, d.srcErr = d.br.Peek(maxEventBytes)
	}
	d.win, _ = d.br.Peek(d.br.Buffered())
	return d.win
}

// short is the error for a header, opcode or operand cut off by the end of
// src, in io.ReadFull's and binary.ReadUvarint's words: io.ErrUnexpectedEOF
// once part of it is in the window, src's own error otherwise.
func (d *decoder) short() error {
	if d.pos < len(d.win) && d.srcErr == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return d.srcErr
}

// operands decodes the event's uvarint operands into vals, stopping at the
// first that does not decode, with binary.ReadUvarint's error for it (ten
// continuation bytes overflow even with nothing after them). A one-byte
// operand, as most are, skips binary.Uvarint's loop.
func (d *decoder) operands(vals []uint64) error {
	for i := range vals {
		if d.pos < len(d.win) && d.win[d.pos] < 0x80 {
			vals[i] = uint64(d.win[d.pos])
			d.pos++
			continue
		}
		v, n := binary.Uvarint(d.win[d.pos:])
		if n <= 0 {
			if n < 0 || len(d.win)-d.pos >= binary.MaxVarintLen64 {
				return errOverflow
			}
			return d.short()
		}
		d.pos += n
		vals[i] = v
	}
	return nil
}

// uvarint2 is binary.Uvarint for a uvarint that starts with b0, b1 and is
// one or two bytes long; n is 0 for a longer one.
func uvarint2(b0, b1 byte) (v uint64, n int) {
	if b0 < 0x80 {
		return uint64(b0), 1
	}
	if b1 < 0x80 {
		return uint64(b0&0x7f) | uint64(b1)<<7, 2
	}
	return 0, 0
}

// charge debits one event from the budget, failing the decode when the
// budget is exhausted. Called before the corresponding API call, so an
// oversized trace stops injecting work the moment it crosses the cap.
func (d *decoder) charge() bool {
	d.events++
	if d.maxEvents > 0 && d.events > d.maxEvents {
		d.fail(fmt.Errorf("%w: trace exceeds %d events", ErrTooManyEvents, d.maxEvents))
		return false
	}
	return true
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// nextAddr undoes the recorder's zig-zag address delta.
func nextAddr(last mem.Addr, raw uint64) mem.Addr {
	return mem.Addr(int64(last) + (int64(raw>>1) ^ -int64(raw&1)))
}

// access validates a per-access event the switch decoded, moves the
// prediction and replays it.
func (d *decoder) access(t *stint.Task, write bool, addr mem.Addr, size uint64) {
	// Validate before handing to the hook layer: LoadAt panics on wrapping
	// spans, but a corrupt or adversarial trace must surface as a decode
	// error, not a panic.
	if mem.SpanWraps(addr, size) {
		d.fail(fmt.Errorf("trace: access event at %#x spanning %d bytes wraps the address space", addr, size))
		return
	}
	d.pred = d.pred.step(addr, size)
	if write {
		t.StoreAt(addr, size)
	} else {
		t.LoadAt(addr, size)
	}
}

// replayBody consumes one task instance's events: up to its opRestore for
// a spawned child (depth > 0), or up to opEnd for the root. Structural
// validation happens before the corresponding API call, so an invalid
// trace aborts without corrupting the run. The decode step takes a valid
// short form, and an access or range event with one- or two-byte operands,
// on locals (window rest, prediction, event count); they go back to d for
// refill and for the switch, which takes every other event and error (its
// Spawn runs a child).
func (d *decoder) replayBody(t *stint.Task, depth int) {
	pending := 0 // spawns since the last sync
	rest, s, events := d.win[d.pos:], d.pred, d.events
	for {
		if len(rest) < maxEventBytes {
			if rest = d.refill(rest); len(rest) == 0 {
				d.fail(fmt.Errorf("trace: truncated stream: %w", d.short()))
				return
			}
		}
		// Below maxEventBytes src has ended: the switch tells a cut event from
		// a whole one. At events == d.maxEvents the next charge fails (with no
		// budget, this is the first event). A longer address leaves n 0 and
		// rest[1:3] at or above 0x80, so n2 is 0 too. A short form's size was
		// a validated event's, so only its span can be refused.
		if len(rest) >= maxEventBytes && events != d.maxEvents {
			if code := rest[0]; code >= opShort1 {
				if a := s.short1(code); !mem.SpanWraps(a, s.size) {
					events, s, rest = events+1, s.step(a, s.size), rest[1:]
					if code&0x40 == 0 {
						t.LoadAt(a, s.size)
					} else {
						t.StoreAt(a, s.size)
					}
					continue
				}
			} else if x := code - opShort2; x < 0x40 {
				if a := s.short2(x, rest[1]); !mem.SpanWraps(a, s.size) {
					events, s, rest = events+1, s.step(a, s.size), rest[2:]
					if x&0x20 == 0 {
						t.LoadAt(a, s.size)
					} else {
						t.StoreAt(a, s.size)
					}
					continue
				}
			} else if code&^3 == opRead {
				raw, n := uvarint2(rest[1], rest[2])
				x, n2 := uvarint2(rest[1+n], rest[2+n])
				i, a := 1+n+n2, nextAddr(s.addr, raw)
				if n2 != 0 && code < opReadRange && !mem.SpanWraps(a, x) {
					events, s, rest = events+1, s.step(a, x), rest[i:]
					if code == opRead {
						t.LoadAt(a, x)
					} else {
						t.StoreAt(a, x)
					}
					continue
				}
				if y, n3 := uvarint2(rest[i], rest[i+1]); n2 != 0 && n3 != 0 && code >= opReadRange && !mem.SpanWraps(a, x*y) {
					events, s, rest = events+1, s.step(a, s.size), rest[i+n3:]
					if code == opReadRange {
						t.LoadRangeAt(a, int(x), y)
					} else {
						t.StoreRangeAt(a, int(x), y)
					}
					continue
				}
			}
		}
		d.pos, d.pred, d.events = len(d.win)-len(rest), s, events
		code := d.win[d.pos]
		d.pos++
		switch form(code) {
		case opEnd:
			if depth > 0 {
				d.fail(fmt.Errorf("trace: %d unterminated tasks at end of trace", depth))
			}
			return

		case opSpawn:
			if depth >= maxSpawnDepth {
				d.fail(fmt.Errorf("trace: spawn nesting exceeds %d levels", maxSpawnDepth))
				return
			}
			if !d.charge() {
				return
			}
			pending++
			t.Spawn(func(c *stint.Task) { d.replayBody(c, depth+1) })

		case opRestore:
			if depth == 0 {
				d.fail(errors.New("trace: restore without matching spawn"))
				return
			}
			if pending > 0 {
				// The recorder elides nothing here: the implicit end-of-task
				// sync is recorded, so pending spawns at restore mean the
				// trace was cut mid-task.
				d.fail(errors.New("trace: child returned with pending spawns"))
			}
			return

		case opSync:
			if pending == 0 {
				d.fail(errors.New("trace: sync without pending spawns"))
				return
			}
			pending = 0
			if !d.charge() {
				return
			}
			t.Sync()

		case opRead, opWrite:
			if !d.charge() {
				return
			}
			var ops [2]uint64
			if err := d.operands(ops[:]); err != nil {
				d.fail(fmt.Errorf("trace: access event: %w", err))
				return
			}
			// LoadAt panics on sizes beyond the encodings' 56-bit field too.
			if ops[1] > evstream.MaxAccessSize {
				d.fail(fmt.Errorf("trace: access event size %d outside the representable field", ops[1]))
				return
			}
			d.access(t, code == opWrite, nextAddr(d.pred.addr, ops[0]), ops[1])

		case opShort1:
			if !d.charge() {
				return
			}
			d.access(t, code&0x40 != 0, d.pred.short1(code), d.pred.size)

		case opShort2:
			if !d.charge() {
				return
			}
			if d.pos == len(d.win) {
				d.fail(fmt.Errorf("trace: access event: %w", d.short()))
				return
			}
			x, lo := code-opShort2, d.win[d.pos]
			d.pos++
			d.access(t, x&0x20 != 0, d.pred.short2(x, lo), d.pred.size)

		case opReadRange, opWriteRange:
			if !d.charge() {
				return
			}
			var ops [3]uint64
			if err := d.operands(ops[:]); err != nil {
				d.fail(fmt.Errorf("trace: range event: %w", err))
				return
			}
			addr, count, elem := nextAddr(d.pred.addr, ops[0]), ops[1], ops[2]
			// Validate before handing to the hook layer: LoadRangeAt panics
			// on unrepresentable ranges, but a corrupt or adversarial trace
			// must surface as a decode error, not a panic.
			if count > evstream.MaxRangeCount || elem > evstream.MaxRangeElem {
				d.fail(fmt.Errorf("trace: range event count %d elem %d outside the representable fields", count, elem))
				return
			}
			if size := count * elem; mem.SpanWraps(addr, size) {
				d.fail(fmt.Errorf("trace: range event at %#x spanning %d bytes wraps the address space", addr, size))
				return
			}
			d.pred = d.pred.step(addr, d.pred.size)
			if code == opReadRange {
				t.LoadRangeAt(addr, int(count), elem)
			} else {
				t.StoreRangeAt(addr, int(count), elem)
			}

		default:
			d.fail(fmt.Errorf("trace: unknown opcode %#x", code))
			return
		}
		if d.err != nil {
			return // the child the switch spawned failed
		}
		rest, s, events = d.win[d.pos:], d.pred, d.events
	}
}

// Replay reads a trace and runs the selected detector over it, returning
// the same Report a live run would have produced (modulo wall time).
func Replay(src io.Reader, opts Options) (*stint.Report, error) {
	if opts.Runner == nil && opts.Detector == stint.DetectorOff {
		return nil, errors.New("trace: replay needs a detector (got DetectorOff)")
	}
	if opts.Runner != nil && !opts.Runner.Serial() {
		return nil, ErrParallelRunner
	}
	d := &decoder{br: bufio.NewReaderSize(src, windowBytes), maxEvents: opts.MaxEvents}
	d.refill(nil)
	if len(d.win) < len(magic) {
		return nil, fmt.Errorf("trace: reading header: %w", d.short())
	}
	if hdr := [len(magic)]byte(d.win); hdr != magic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:])
	}
	d.pos = len(magic)

	r := opts.Runner
	if r == nil {
		var err error
		r, err = stint.NewRunner(stint.Options{Detector: opts.Detector})
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	rep, runErr := r.Run(func(task *stint.Task) { d.replayBody(task, 0) })
	if d.err != nil {
		return nil, d.err
	}
	if runErr != nil {
		return nil, fmt.Errorf("trace: %w", runErr)
	}
	return rep, nil
}
