package evstream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// codecEvent is one appendable event for the round-trip tests: a structure
// op, an access (addr+size), or a range (addr+count+elem, with elem in the
// size field).
type codecEvent struct {
	op    Op
	addr  uint64
	size  uint64 // access size, or range element size
	count int    // range ops only
}

func (c codecEvent) appendTo(b *Batch) {
	switch c.op {
	case OpSpawn, OpRestore, OpSync:
		b.AppendCtl(c.op)
	case OpRead, OpWrite:
		b.AppendAccess(c.op, c.addr, c.size)
	default:
		b.AppendRange(c.op, c.addr, c.count, c.size)
	}
}

// newCompactBatch sizes a standalone compact batch so appending n events can
// never run past the buffer mid-test.
func newCompactBatch(n int) *Batch {
	return &Batch{Buf: make([]byte, 0, (n+1)*MaxEventBytes), compact: true}
}

// decodeBlocks drains a batch through DecodeBlock and returns the flattened
// event sequence, checking the iterator ends exactly at the batch's end.
func decodeBlocks(b *Batch) (evs []Event) {
	it := b.Iter()
	var blk [BlockEvents]Event
	for {
		group := it.DecodeBlock(&blk)
		if len(group) == 0 {
			end := len(b.Ev)
			if b.compact {
				end = len(b.Buf)
			}
			if it.pos != end {
				panic("decodeBlocks: iterator stopped short of the batch's end")
			}
			return evs
		}
		evs = append(evs, group...)
	}
}

// refEncode is the wire format's reference encoder, written for clarity:
// one frame per event, a tag byte, the address's movement since the
// previous interval as a signed varint (encoding/binary's zig-zag), the
// size, and for ranges the count.
func refEncode(events []codecEvent) (buf []byte) {
	var prev uint64
	for _, c := range events {
		buf = append(buf, byte(c.op))
		if c.op <= OpSync {
			continue
		}
		buf = binary.AppendVarint(buf, int64(c.addr-prev))
		prev = c.addr
		buf = binary.AppendUvarint(buf, c.size)
		if c.op >= OpReadRange {
			buf = binary.AppendUvarint(buf, uint64(c.count))
		}
	}
	return buf
}

// checkCodecRoundTrip appends the program to a fixed and a compact batch and
// asserts that the compact bytes are exactly the reference encoder's and
// that both forms decode to identical Event sequences.
func checkCodecRoundTrip(t *testing.T, events []codecEvent) {
	t.Helper()
	fixed := &Batch{Ev: make([]Event, 0, len(events)+1)}
	compact := newCompactBatch(len(events))
	for _, c := range events {
		c.appendTo(fixed)
		c.appendTo(compact)
	}
	if fixed.Len() != len(events) || compact.Len() != len(events) {
		t.Fatalf("Len = %d (fixed) / %d (compact), want %d", fixed.Len(), compact.Len(), len(events))
	}
	wantBuf := refEncode(events)
	if !bytes.Equal(compact.Buf, wantBuf) {
		t.Fatalf("compact stream % x, reference encoder gives % x", compact.Buf, wantBuf)
	}
	fevs, cevs := decodeBlocks(fixed), decodeBlocks(compact)
	if len(fevs) != len(events) || len(cevs) != len(events) {
		t.Fatalf("decoded %d (fixed) / %d (compact) events, want %d", len(fevs), len(cevs), len(events))
	}
	for i := range fevs {
		if fevs[i] != cevs[i] {
			t.Fatalf("event %d: fixed %+v != compact %+v", i, fevs[i], cevs[i])
		}
	}
	if fixed.WireBytes() != 16*len(events) {
		t.Fatalf("fixed WireBytes = %d, want %d", fixed.WireBytes(), 16*len(events))
	}
	if compact.WireBytes() != len(wantBuf) {
		t.Fatalf("compact WireBytes = %d, want %d", compact.WireBytes(), len(wantBuf))
	}
}

func TestCompactRoundTripBasics(t *testing.T) {
	checkCodecRoundTrip(t, []codecEvent{
		{op: OpSpawn},
		{op: OpRead, addr: 0x1000, size: 4},
		{op: OpWrite, addr: 0x1004, size: 4},
		{op: OpRestore},
		{op: OpSync},
		{op: OpReadRange, addr: 0x2000, count: 128, size: 8},
		{op: OpWriteRange, addr: 0x8000, count: 1, size: 1},
	})
}

func TestCompactRoundTripBoundaries(t *testing.T) {
	checkCodecRoundTrip(t, []codecEvent{
		// One-/two-byte varint boundary on the size and on the delta
		// (zig-zag 127 is -64, 128 is +64).
		{op: OpRead, addr: 0, size: 127},
		{op: OpWrite, addr: 0, size: 128},
		{op: OpRead, addr: 64, size: 0},
		{op: OpRead, addr: 0, size: 0},
		{op: OpRead, addr: 1<<64 - 65, size: 0},
		// Largest representable operands.
		{op: OpWrite, addr: 1, size: MaxAccessSize},
		{op: OpReadRange, addr: 2, count: MaxRangeCount, size: MaxRangeElem},
		{op: OpWriteRange, addr: 3, count: 0, size: 0},
		// Wild jumps across the whole address space.
		{op: OpRead, addr: 1<<64 - 1, size: 8},
		{op: OpWrite, addr: 0, size: 8}, // wraps the delta base: 2^64-1 -> 0 is +1
		{op: OpRead, addr: 1 << 63, size: 8},
	})
}

// TestCompactGoldenBytes pins the wire format byte for byte on a program
// with every op, a negative delta and a two-byte size, so an accidental
// format change fails here by name rather than as a ledger drift.
func TestCompactGoldenBytes(t *testing.T) {
	b := newCompactBatch(7)
	for _, c := range []codecEvent{
		{op: OpSpawn},
		{op: OpRead, addr: 0x1000, size: 4},
		{op: OpWrite, addr: 0x0ff8, size: 200}, // delta -8, size >= 128
		{op: OpRestore},
		{op: OpSync},
		{op: OpReadRange, addr: 0x1000, count: 128, size: 8},
		{op: OpWriteRange, addr: 0x1000, count: 1, size: 1},
	} {
		c.appendTo(b)
	}
	want := []byte{
		0x01,                   // spawn
		0x04, 0x80, 0x40, 0x04, // read: zig-zag(+0x1000) = 0x2000, size 4
		0x05, 0x0f, 0xc8, 0x01, // write: zig-zag(-8) = 15, size 200
		0x02,                         // restore
		0x03,                         // sync
		0x06, 0x10, 0x08, 0x80, 0x01, // read range: zig-zag(+8) = 16, elem 8, count 128
		0x07, 0x00, 0x01, 0x01, // write range: delta 0, elem 1, count 1
	}
	if !bytes.Equal(b.Buf, want) {
		t.Fatalf("encoded % x\nwant    % x", b.Buf, want)
	}
}

// TestBatchCarriesNoStagingState keeps a Batch the size of its two slice
// headers, a count, a delta base and a flag: ParallelDetect holds one per
// live task and allocates one on every pool miss.
func TestBatchCarriesNoStagingState(t *testing.T) {
	if sz := unsafe.Sizeof(Batch{}); sz > 80 {
		t.Fatalf("unsafe.Sizeof(Batch{}) = %d, want <= 80", sz)
	}
}

// worstFrames are appends at the top of every operand's range, each a wild
// jump from the one before: the frames MaxEventBytes is derived from.
var worstFrames = []codecEvent{
	{op: OpWrite, addr: 1 << 63, size: MaxAccessSize},
	{op: OpReadRange, addr: 0, count: MaxRangeCount, size: MaxRangeElem},
	{op: OpRead, addr: 1<<63 - 1, size: MaxAccessSize},
	{op: OpWriteRange, addr: 1<<64 - 1, count: MaxRangeCount, size: MaxRangeElem},
}

// TestPooledBatchNeverGrows pins the invariant the encoder's indexed stores
// rest on: a batch from BatchPool.Get or a compact Ring.Get, filled by a
// producer that asks Full before every append, keeps the buffer it was born
// with — at any geometry, including slots too small for one frame — and so
// does the accumulator AppendFrom merges one-frame chunks into.
func TestPooledBatchNeverGrows(t *testing.T) {
	for _, slots := range []int{1, 2, 8, 256} {
		for name, get := range map[string]func() *Batch{
			"pool": NewBatchPool(4, slots).Get,
			"ring": NewCompactRing(2, slots).Get,
		} {
			b, chunk, acc := get(), get(), get()
			bcap := cap(b.Buf)
			if bcap < MaxEventBytes {
				t.Fatalf("%s, %d slots: cap(Buf) = %d, under one worst-case frame (%d)", name, slots, bcap, MaxEventBytes)
			}
			const events = 400
			publishes, merged := 0, 0
			for i := 0; i < events; i++ {
				c := worstFrames[i%len(worstFrames)]
				if b.Full() {
					if acc.Reset(); acc.AppendFrom(b) {
						t.Fatalf("%s, %d slots: a full batch fit an accumulator of its own geometry", name, slots)
					}
					publishes++
					b.Reset()
				}
				c.appendTo(b)
				chunk.Reset()
				c.appendTo(chunk)
				if acc.AppendFrom(chunk) {
					merged++
				} else {
					acc.Reset()
				}
				if cap(b.Buf) != bcap || cap(acc.Buf) != bcap {
					t.Fatalf("%s, %d slots: event %d grew a buffer: cap %d (batch) / %d (accumulator), born with %d",
						name, slots, i, cap(b.Buf), cap(acc.Buf), bcap)
				}
			}
			if slots <= 8 && (publishes != events-1 || merged != 0) {
				t.Fatalf("%s, %d slots: %d events took %d publishes and %d merges, want one event per batch and every chunk forwarded whole",
					name, slots, events, publishes, merged)
			}
			if slots == 256 && merged < events*9/10 {
				t.Fatalf("%s, %d slots: only %d of %d one-frame chunks merged", name, slots, merged, events)
			}
		}
	}
}

// TestDecodeMalformedPanicsWithMessage checks the decoder's trust boundary:
// compact buffers are produced in-process, so a malformed one is a bug and
// panics — but with the package's message, never an index out of range.
func TestDecodeMalformedPanicsWithMessage(t *testing.T) {
	decode := func(buf []byte) (msg string) {
		defer func() {
			switch r := recover().(type) {
			case nil:
			case string:
				msg = r
			default:
				msg = fmt.Sprintf("%T: %v", r, r)
			}
		}()
		decodeBlocks(&Batch{Buf: buf, compact: true})
		return ""
	}
	for _, tag := range []byte{0x00, 0x08, 0x80, 0xff} {
		if msg := decode([]byte{0x01, tag, 0x00, 0x00, 0x00}); !strings.HasPrefix(msg, "evstream: corrupt") {
			t.Errorf("tag %#02x: decode reported %q, want an evstream: corrupt panic", tag, msg)
		}
	}
	// Every proper prefix of a valid stream either ends on a frame boundary
	// and decodes, or cuts a frame and panics as truncated.
	frames := append([]codecEvent{
		{op: OpRead, addr: 8, size: 8},
		{op: OpSync},
		{op: OpReadRange, addr: 16, count: 4, size: 8},
	}, worstFrames...)
	b := newCompactBatch(len(frames))
	boundary := map[int]bool{}
	for _, c := range frames {
		c.appendTo(b)
		boundary[len(b.Buf)] = true
	}
	for k := 1; k <= len(b.Buf); k++ {
		msg := decode(b.Buf[:k:k])
		switch {
		case boundary[k] && msg != "":
			t.Errorf("prefix of %d bytes ends on a frame boundary but decode reported %q", k, msg)
		case !boundary[k] && !strings.HasPrefix(msg, "evstream: truncated"):
			t.Errorf("prefix of %d bytes cuts a frame: decode reported %q, want an evstream: truncated panic", k, msg)
		}
	}
}

func TestCompactAppendRejectsOversizeOperands(t *testing.T) {
	for _, tc := range []struct {
		name   string
		append func(b *Batch)
	}{
		{"access size", func(b *Batch) { b.AppendAccess(OpRead, 0, MaxAccessSize+1) }},
		{"range count", func(b *Batch) { b.AppendRange(OpReadRange, 0, -1, 8) }},
		{"range elem", func(b *Batch) { b.AppendRange(OpReadRange, 0, 4, MaxRangeElem+1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: compact append did not panic", tc.name)
				}
			}()
			tc.append(newCompactBatch(4))
		}()
	}
}

// TestCompactDeltaBaseResetsPerBatch pins the independence property every
// worker's private Iter relies on: after Reset, addresses delta from zero
// again, so a batch decodes identically whatever batch came before it.
func TestCompactDeltaBaseResetsPerBatch(t *testing.T) {
	b := newCompactBatch(4)
	b.AppendAccess(OpRead, 0x12345678, 4)
	first := bytes.Clone(b.Buf)
	b.Reset()
	b.AppendAccess(OpRead, 0x12345678, 4)
	if !bytes.Equal(first, b.Buf) {
		t.Fatalf("same event encodes differently after Reset: %x vs %x", first, b.Buf)
	}
	evs := decodeBlocks(b)
	if len(evs) != 1 || evs[0].Addr() != 0x12345678 || evs[0].Size() != 4 {
		t.Fatalf("decoded %+v after Reset", evs)
	}
}

// TestCompactRingCarriesMoreEventsPerBatch pins the format's density and
// the ring-level win it buys: a stride-4, size-4 read is a 3-byte frame
// (tag, one delta byte, one size byte; each batch's first frame spends up to
// two bytes more re-stating the address from the zero base), so at an equal
// byte budget per batch a compact ring hands over several times the events
// per publication; and the ring's stats count logical events and wire bytes.
func TestCompactRingCarriesMoreEventsPerBatch(t *testing.T) {
	const n = 4096
	emit := func(r *Ring) Stats {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				b, ok := r.Next()
				if !ok {
					return
				}
				r.Recycle(b)
			}
		}()
		b := r.Get()
		for i := 0; i < n; i++ {
			if b.Full() {
				r.Publish(b)
				b = r.Get()
			}
			b.AppendAccess(OpRead, 0x1000+uint64(4*i), 4)
		}
		r.Publish(b)
		r.Close()
		<-done
		return r.Stats()
	}
	fixed := emit(NewRing(4, 64))           // 64 events x 16 B = 1 KiB a batch
	compact := emit(NewCompactRing(4, 256)) // 256 slots x 4 B = 1 KiB a batch
	if fixed.EventsPublished != n || compact.EventsPublished != n {
		t.Fatalf("EventsPublished = %d (fixed) / %d (compact), want %d logical events both ways",
			fixed.EventsPublished, compact.EventsPublished, n)
	}
	if fixed.StreamBytes != 16*n {
		t.Fatalf("fixed StreamBytes = %d, want %d", fixed.StreamBytes, 16*n)
	}
	if compact.StreamBytes > 3*n+2*compact.BatchesPublished {
		t.Fatalf("compact StreamBytes = %d over %d batches, want 3 B/event plus at most 2 per batch",
			compact.StreamBytes, compact.BatchesPublished)
	}
	if compact.BatchesPublished*4 > fixed.BatchesPublished {
		t.Fatalf("compact used %d batches vs fixed %d at 1 KiB each: 3-byte frames should cut handoffs fourfold or more",
			compact.BatchesPublished, fixed.BatchesPublished)
	}
}

// decodeCodecProgram turns fuzz bytes into an append program. Every input is
// valid by construction: operands are read from exactly as many bytes as
// their wire fields hold, so sizes cap at MaxAccessSize (7 bytes), counts at
// MaxRangeCount (4 bytes), and element sizes at MaxRangeElem (3 bytes) —
// the boundary values are reachable, never exceedable.
func decodeCodecProgram(data []byte) []codecEvent {
	var evs []codecEvent
	i := 0
	u := func(n int) uint64 {
		var v uint64
		for j := 0; j < n; j++ {
			v = v<<8 | uint64(data[i+j])
		}
		i += n
		return v
	}
	for i < len(data) && len(evs) < 4096 {
		op := Op(data[i]%7) + 1
		i++
		switch op {
		case OpSpawn, OpRestore, OpSync:
			evs = append(evs, codecEvent{op: op})
		case OpRead, OpWrite:
			if len(data)-i < 15 {
				return evs
			}
			size := u(7)
			addr := u(8)
			evs = append(evs, codecEvent{op: op, addr: addr, size: size})
		default:
			if len(data)-i < 15 {
				return evs
			}
			count := u(4)
			elem := u(3)
			addr := u(8)
			evs = append(evs, codecEvent{op: op, addr: addr, size: elem, count: int(count)})
		}
	}
	return evs
}

// FuzzEventCodec round-trips random append programs through both storage
// forms twice: as one big batch (checkCodecRoundTrip, which also audits Ctl
// offsets), and streamed through tiny-capacity rings so batch boundaries,
// Reset reuse, and the per-batch delta-base reset are all exercised. The
// decoded event sequences must be identical.
func FuzzEventCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 0, 1, 2})                                  // structure only
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0x10, 0}) // one small read
	// Boundary operands: a max-size access, then a max range.
	f.Add(append(append([]byte{3},
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // size = MaxAccessSize
		0, 0, 0, 0, 0, 0, 0, 1), // addr
		5, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 2))
	// Address-wrap delta: access at 2^64-1 then at 0.
	f.Add(append(append([]byte{4, 0, 0, 0, 0, 0, 0, 8},
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff),
		3, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0))
	// Boundary seeds. In this program encoding an access is op byte 3
	// (read) / 4 (write), 7 size bytes, 8 addr bytes; a range is op byte
	// 5/6, 4 count + 3 elem + 8 addr.
	read := func(data []byte, addr, size uint64) []byte {
		data = append(data, 3, byte(size>>48), byte(size>>40), byte(size>>32),
			byte(size>>24), byte(size>>16), byte(size>>8), byte(size))
		return append(data, byte(addr>>56), byte(addr>>48), byte(addr>>40), byte(addr>>32),
			byte(addr>>24), byte(addr>>16), byte(addr>>8), byte(addr))
	}
	// A run of accesses long enough that small ring batch capacities
	// (bcap = data[0]%8+1 = 4 here) cut the run at every batch tail and the
	// big batch takes more than one DecodeBlock call.
	seed := []byte{}
	for i := 0; i < 70; i++ {
		seed = read(seed, 0x1000+uint64(8*i), 8)
	}
	f.Add(seed)
	// A two-byte size among one-byte ones: sizes 4,4,300,4 take the
	// decoder's inline single-byte path and its uvarint path in turn.
	seed = []byte{}
	for i, size := range []uint64{4, 4, 300, 4} {
		seed = read(seed, 0x2000+uint64(4*i), size)
	}
	f.Add(seed)
	// A maximal range as the last event a DecodeBlock call can hold: 63
	// reads then the range.
	seed = []byte{}
	for i := 0; i < 63; i++ {
		seed = read(seed, uint64(16*i), 4)
	}
	seed = append(seed, 5, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0, 0, 0, 0, 0, 0, 0x40, 0)
	f.Add(seed)
	// One event left over after a full DecodeBlock call.
	seed = []byte{}
	for i := 0; i < BlockEvents+1; i++ {
		seed = read(seed, 0x3000+uint64(4*i), 4)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		events := decodeCodecProgram(data)
		checkCodecRoundTrip(t, events)

		// Stream the same program through both ring encodings with a tiny
		// batch capacity so the fuzzer hits flush boundaries constantly.
		bcap := 1
		if len(data) > 0 {
			bcap = int(data[0]%8) + 1
		}
		stream := func(r *Ring) []Event {
			out := make(chan []Event)
			go func() {
				var got []Event
				for {
					b, ok := r.Next()
					if !ok {
						break
					}
					evs := decodeBlocks(b)
					got = append(got, evs...)
					r.Recycle(b)
				}
				out <- got
			}()
			b := r.Get()
			for _, c := range events {
				if b.Full() {
					r.Publish(b)
					b = r.Get()
				}
				c.appendTo(b)
			}
			r.Publish(b)
			r.Close()
			return <-out
		}
		fixed := stream(NewRing(2, bcap))
		compact := stream(NewCompactRing(2, bcap))
		if len(fixed) != len(events) || len(compact) != len(events) {
			t.Fatalf("streamed %d (fixed) / %d (compact) events, want %d",
				len(fixed), len(compact), len(events))
		}
		for i := range fixed {
			if fixed[i] != compact[i] {
				t.Fatalf("streamed event %d: fixed %+v != compact %+v", i, fixed[i], compact[i])
			}
		}
	})
}

// appendFromBatch builds a compact batch of n pseudo-random access/range
// events, with occasional wild address jumps and escaped operand sizes so
// AppendFrom's rebase path sees multi-byte deltas.
func appendFromBatch(rng *rand.Rand, n int, base uint64) (*Batch, []Event) {
	b := newCompactBatch(127)
	var want []Event
	addr := base
	for i := 0; i < n; i++ {
		switch rng.Intn(8) {
		case 0:
			addr = rng.Uint64() // wild jump
		default:
			addr += uint64(rng.Intn(128)) * 8
		}
		switch rng.Intn(4) {
		case 0:
			ev := Range(OpWriteRange, addr, 1+rng.Intn(1000), uint64(1+rng.Intn(64)))
			b.AppendRange(ev.EvOp(), ev.Addr(), ev.Count(), ev.Elem())
			want = append(want, ev)
		default:
			size := uint64(1 + rng.Intn(8))
			if rng.Intn(8) == 0 {
				size = uint64(31 + rng.Intn(1000)) // escaped operand
			}
			op := OpRead
			if rng.Intn(2) == 0 {
				op = OpWrite
			}
			b.AppendAccess(op, addr, size)
			want = append(want, Access(op, addr, size))
		}
	}
	return b, want
}

func drainBatch(t *testing.T, b *Batch) []Event {
	t.Helper()
	return decodeBlocks(b)
}

// TestAppendFromRoundTrip concatenates many source batches into one
// accumulator and checks the accumulator decodes to exactly the sources'
// events in order — including across the delta-rebased boundary — and
// that direct appends after an AppendFrom continue from the inherited
// delta base.
func TestAppendFromRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	out := newCompactBatch(2047)
	var want []Event
	for i := 0; i < 40; i++ {
		src, evs := appendFromBatch(rng, 1+rng.Intn(50), rng.Uint64())
		if !out.AppendFrom(src) {
			t.Fatal("AppendFrom reported no room in a large accumulator")
		}
		want = append(want, evs...)
		// Interleave direct appends: they must delta from the source's
		// final base, not a stale one.
		b := uint64(0xdead0000 + i)
		out.AppendAccess(OpWrite, b, 8)
		want = append(want, Access(OpWrite, b, 8))
	}
	got := drainBatch(t, out)
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if out.Len() != len(want) {
		t.Fatalf("Len=%d, want %d", out.Len(), len(want))
	}
}

// TestAppendFromSeam checks the one frame AppendFrom re-encodes: whatever
// the widths of the source's own first delta and of the seam's — one byte or
// ten, forward or backward — the accumulator ends up byte for byte what
// appending the events directly would have produced.
func TestAppendFromSeam(t *testing.T) {
	for _, tc := range []struct{ dstAddr, srcAddr uint64 }{
		{0x1000, 0x1008},    // multi-byte in src, one byte across the seam
		{1 << 40, 0x10},     // one byte in src, six bytes backward across the seam
		{0x10, 1 << 40},     // six bytes in src, six forward across the seam
		{1 << 63, 1},        // ten bytes backward
		{1, 1 << 63},        // ten bytes in src, ten forward
		{1<<64 - 1, 0},      // the address-space wrap: +1
		{0x2000, 0x2000},    // zero delta
		{0, 1<<64 - 0x1000}, // backward through zero
	} {
		src, direct, out := newCompactBatch(4), newCompactBatch(4), newCompactBatch(4)
		for _, b := range []*Batch{direct, out} {
			b.AppendAccess(OpWrite, tc.dstAddr, 8)
		}
		for _, b := range []*Batch{direct, src} {
			b.AppendAccess(OpRead, tc.srcAddr, 300)
			b.AppendRange(OpWriteRange, tc.srcAddr+64, 1000, 8)
		}
		if !out.AppendFrom(src) {
			t.Fatalf("%#x -> %#x: AppendFrom reported no room", tc.dstAddr, tc.srcAddr)
		}
		for _, b := range []*Batch{direct, out} {
			b.AppendAccess(OpRead, tc.srcAddr+72, 8) // continues from the inherited base
		}
		if !bytes.Equal(out.Buf, direct.Buf) || out.Len() != direct.Len() {
			t.Errorf("%#x -> %#x: merged %d events as % x, direct appends give %d as % x",
				tc.dstAddr, tc.srcAddr, out.Len(), out.Buf, direct.Len(), direct.Buf)
		}
	}
}

// TestAppendFromNoRoom checks the no-room path leaves the destination
// bit-for-bit untouched, and that an empty source always fits.
func TestAppendFromNoRoom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dst := newCompactBatch(1)
	dst.AppendAccess(OpRead, 0x1000, 8)
	wantLen, wantWire := dst.Len(), dst.WireBytes()
	src, _ := appendFromBatch(rng, 200, 0x2000)
	if dst.AppendFrom(src) {
		t.Fatal("200 events reported as fitting a tiny batch")
	}
	if dst.Len() != wantLen || dst.WireBytes() != wantWire {
		t.Fatal("failed AppendFrom mutated the destination")
	}
	if !dst.AppendFrom(newCompactBatch(1)) {
		t.Fatal("empty source must always fit")
	}
	if dst.Len() != wantLen {
		t.Fatal("empty AppendFrom changed Len")
	}
}
