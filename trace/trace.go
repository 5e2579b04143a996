// Package trace records instrumented fork-join executions to a compact
// binary stream and replays them through any detector configuration.
//
// A trace captures everything race detection needs — the spawn/sync
// structure (from which SP-Order reachability is rebuilt) and the memory
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
// address (zig-zag varints), which keeps traces of loop-heavy programs
// small.
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
)

var magic = [8]byte{'S', 'T', 'N', 'T', 'T', 'R', 'C', '1'}

// maxEventBytes bounds one encoded event: an opcode and at most three
// uvarint operands.
const maxEventBytes = 1 + 3*binary.MaxVarintLen64

// Recorder implements stint.Tracer, serializing events to an io.Writer.
// Recorders are not safe for concurrent use; record serial executions only.
type Recorder struct {
	w        *bufio.Writer
	lastAddr mem.Addr
	err      error
	wroteHdr bool
	buf      [maxEventBytes]byte
}

// NewRecorder returns a Recorder writing to w. Call Flush when the run
// completes.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{w: bufio.NewWriterSize(w, 1<<16)}
}

func (r *Recorder) setErr(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// delta zig-zag-encodes the address movement since the last event.
func (r *Recorder) addrOperand(addr mem.Addr) uint64 {
	d := int64(addr) - int64(r.lastAddr)
	r.lastAddr = addr
	return uint64((d << 1) ^ (d >> 63))
}

// event encodes one opcode and its operands into the scratch buffer and
// hands the whole event to the writer in one call.
func (r *Recorder) event(code byte, vals ...uint64) {
	if !r.wroteHdr {
		r.wroteHdr = true
		_, err := r.w.Write(magic[:])
		r.setErr(err)
	}
	r.buf[0] = code
	n := 1
	for _, v := range vals {
		n += binary.PutUvarint(r.buf[n:], v)
	}
	_, err := r.w.Write(r.buf[:n])
	r.setErr(err)
}

// Spawn records the start of a spawned child.
func (r *Recorder) Spawn() { r.event(opSpawn) }

// Restore records a child's return to its parent's continuation.
func (r *Recorder) Restore() { r.event(opRestore) }

// Sync records a strand-creating sync.
func (r *Recorder) Sync() { r.event(opSync) }

// Read records a per-access load.
func (r *Recorder) Read(addr mem.Addr, size uint64) {
	r.event(opRead, r.addrOperand(addr), size)
}

// Write records a per-access store.
func (r *Recorder) Write(addr mem.Addr, size uint64) {
	r.event(opWrite, r.addrOperand(addr), size)
}

// ReadRange records a compiler-coalesced load.
func (r *Recorder) ReadRange(addr mem.Addr, count int, elemBytes uint64) {
	r.event(opReadRange, r.addrOperand(addr), uint64(count), elemBytes)
}

// WriteRange records a compiler-coalesced store.
func (r *Recorder) WriteRange(addr mem.Addr, count int, elemBytes uint64) {
	r.event(opWriteRange, r.addrOperand(addr), uint64(count), elemBytes)
}

// Flush terminates and flushes the trace. The Recorder must not be used
// afterwards.
func (r *Recorder) Flush() error {
	r.event(opEnd)
	r.setErr(r.w.Flush())
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
	lastAddr  mem.Addr
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

// replayBody consumes one task instance's events: up to its opRestore for
// a spawned child (depth > 0), or up to opEnd for the root. Structural
// validation happens before the corresponding API call, so an invalid
// trace aborts without corrupting the run. The decode step takes a valid
// access or range event with one- or two-byte operands on locals (window
// rest, last address, event count); they go back to d for refill and for the
// switch, which takes every other event and error (its Spawn runs a child).
func (d *decoder) replayBody(t *stint.Task, depth int) {
	pending := 0 // spawns since the last sync
	rest, last, events := d.win[d.pos:], d.lastAddr, d.events
	for {
		if len(rest) < maxEventBytes {
			if rest = d.refill(rest); len(rest) == 0 {
				d.fail(fmt.Errorf("trace: truncated stream: %w", d.short()))
				return
			}
		}
		// Below maxEventBytes src has ended: operands tells a cut operand from
		// a whole one. At events == d.maxEvents the next charge fails (with no
		// budget, this is the first event). A longer address leaves n 0 and
		// rest[1:3] at or above 0x80, so n2 is 0 too.
		if len(rest) >= maxEventBytes && rest[0]&^3 == opRead && events != d.maxEvents {
			code := rest[0]
			raw, n := uvarint2(rest[1], rest[2])
			x, n2 := uvarint2(rest[1+n], rest[2+n])
			i, a := 1+n+n2, nextAddr(last, raw)
			if n2 != 0 && code < opReadRange && !mem.SpanWraps(a, x) {
				events, last, rest = events+1, a, rest[i:]
				if code == opRead {
					t.LoadAt(a, x)
				} else {
					t.StoreAt(a, x)
				}
				continue
			}
			if y, n3 := uvarint2(rest[i], rest[i+1]); n2 != 0 && n3 != 0 && code >= opReadRange && !mem.SpanWraps(a, x*y) {
				events, last, rest = events+1, a, rest[i+n3:]
				if code == opReadRange {
					t.LoadRangeAt(a, int(x), y)
				} else {
					t.StoreRangeAt(a, int(x), y)
				}
				continue
			}
		}
		d.pos, d.lastAddr, d.events = len(d.win)-len(rest), last, events
		code := d.win[d.pos]
		d.pos++
		switch code {
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
			d.lastAddr = nextAddr(d.lastAddr, ops[0])
			addr, size := d.lastAddr, ops[1]
			// Validate before handing to the hook layer: LoadAt panics on
			// sizes beyond the encodings' 56-bit field and on wrapping spans,
			// but a corrupt or adversarial trace must surface as a decode
			// error, not a panic.
			if size > evstream.MaxAccessSize {
				d.fail(fmt.Errorf("trace: access event size %d outside the representable field", size))
				return
			}
			if mem.SpanWraps(addr, size) {
				d.fail(fmt.Errorf("trace: access event at %#x spanning %d bytes wraps the address space", addr, size))
				return
			}
			if code == opRead {
				t.LoadAt(addr, size)
			} else {
				t.StoreAt(addr, size)
			}

		case opReadRange, opWriteRange:
			if !d.charge() {
				return
			}
			var ops [3]uint64
			if err := d.operands(ops[:]); err != nil {
				d.fail(fmt.Errorf("trace: range event: %w", err))
				return
			}
			d.lastAddr = nextAddr(d.lastAddr, ops[0])
			addr, count, elem := d.lastAddr, ops[1], ops[2]
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
		rest, last, events = d.win[d.pos:], d.lastAddr, d.events
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
