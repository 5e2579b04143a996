package evstream

import (
	"bytes"
	"testing"
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
		off := b.AppendCtl(c.op)
		b.Sum.AddCtl(off)
	case OpRead, OpWrite:
		b.AppendAccess(c.op, c.addr, c.size)
	default:
		b.AppendRange(c.op, c.addr, c.count, c.size)
	}
}

// newCompactBatch sizes a standalone compact batch so appending n events can
// never overflow the buffer mid-test.
func newCompactBatch(n int) *Batch {
	return &Batch{Buf: make([]byte, 0, (n+1)*MaxEventBytes), compact: true}
}

// decodeBlocks drains a batch through DecodeBlock, returning the flattened
// event sequence and the Summary.Ctl-form offset of every structure event,
// computed from Iter.Pos: the i-th event of a returned group sits at
// Pos-before-the-call + i (an index for fixed batches; a byte offset for
// compact ones, where structure events decode as contiguous runs of one
// tag byte each).
func decodeBlocks(b *Batch) (evs []Event, ctlOffs []int) {
	it := b.Iter()
	var blk [BlockEvents]Event
	for {
		pos := it.Pos()
		group := it.DecodeBlock(&blk)
		if len(group) == 0 {
			return evs, ctlOffs
		}
		for j, ev := range group {
			if ev.EvOp() <= OpSync {
				ctlOffs = append(ctlOffs, pos+j)
			}
		}
		evs = append(evs, group...)
	}
}

// checkCodecRoundTrip appends the program to a fixed and a compact batch and
// asserts both decode to identical Event sequences via DecodeBlock and via
// the per-event Next shim, that block-relative positions reproduce the
// offsets Summary.Ctl records, that CtlOp resolves every structure event
// from one tag byte, and that the staged-block byte accounting (pendN +
// pendExtra, what Full budgets against) exactly matches what seal emits.
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
	// Full's no-growth guarantee rests on the baseline byte per staged
	// event plus pendExtra plus the closed-form structural overhead being
	// the staged block's exact sealed size — pin exactness, not just an
	// upper bound.
	pend, pre := compact.pendN+compact.pendExtra+blockOverhead(compact.pendN), len(compact.Buf)
	fevs, fctl := decodeBlocks(fixed)
	cevs, cctl := decodeBlocks(compact)
	if got := len(compact.Buf) - pre; got != pend {
		t.Fatalf("seal emitted %d bytes for a staged block accounted at %d", got, pend)
	}
	if len(fevs) != len(events) || len(cevs) != len(events) {
		t.Fatalf("decoded %d (fixed) / %d (compact) events, want %d", len(fevs), len(cevs), len(events))
	}
	for i := range fevs {
		if fevs[i] != cevs[i] {
			t.Fatalf("event %d: fixed %+v != compact %+v", i, fevs[i], cevs[i])
		}
	}
	if len(fctl) != len(fixed.Sum.Ctl) || len(cctl) != len(compact.Sum.Ctl) {
		t.Fatalf("found %d (fixed) / %d (compact) ctl events, Summary recorded %d / %d",
			len(fctl), len(cctl), len(fixed.Sum.Ctl), len(compact.Sum.Ctl))
	}
	for i := range fctl {
		if fixed.Sum.Ctl[i] != int32(fctl[i]) || compact.Sum.Ctl[i] != int32(cctl[i]) {
			t.Fatalf("ctl %d: Summary offsets (%d, %d) != block-derived positions (%d, %d)",
				i, fixed.Sum.Ctl[i], compact.Sum.Ctl[i], fctl[i], cctl[i])
		}
		if fixed.CtlOp(i) != compact.CtlOp(i) || fixed.CtlOp(i) > OpSync || fixed.CtlOp(i) == 0 {
			t.Fatalf("ctl %d: CtlOp = %v (fixed) / %v (compact)", i, fixed.CtlOp(i), compact.CtlOp(i))
		}
	}
	if fixed.WireBytes() != 16*len(events) {
		t.Fatalf("fixed WireBytes = %d, want %d", fixed.WireBytes(), 16*len(events))
	}
	if compact.WireBytes() != len(compact.Buf) {
		t.Fatalf("compact WireBytes = %d, want %d", compact.WireBytes(), len(compact.Buf))
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
		// Inline/escape boundary: sizes 254 and 255 straddle the size-run
		// escape byte (blockArgEsc).
		{op: OpRead, addr: 0, size: blockArgEsc - 1},
		{op: OpWrite, addr: 0, size: blockArgEsc},
		{op: OpRead, addr: 0, size: 0},
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

// TestCompactSequentialBlockBytes pins the fast path the format exists
// for: a full block of same-size small-stride accesses costs ~1.6 bytes
// per event — 2 bytes of block framing, one size run, 2 op bits plus a
// quarter of a group control byte plus a 1-byte delta per event.
func TestCompactSequentialBlockBytes(t *testing.T) {
	b := newCompactBatch(BlockEvents + 1)
	for i := 0; i < BlockEvents; i++ {
		b.AppendAccess(OpRead, 0x1000+uint64(4*i), 4)
	}
	// Staging auto-seals exactly at a full block.
	if b.pendN != 0 {
		t.Fatalf("full block left %d events staged", b.pendN)
	}
	// marker+header (2) + op bits (16) + one size run (2) + control bytes
	// (16) + deltas (2-byte first from base zero, then 1 byte each) = 101.
	if got := len(b.Buf); got != 101 {
		t.Fatalf("sequential %d-event block encoded in %d bytes, want 101 (~1.6 B/event)", BlockEvents, got)
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

// TestCompactDeltaBaseResetsPerBatch pins the independence property the
// skip-scan path relies on: after Reset, addresses delta from zero again, so
// a batch decodes identically whether or not anyone scanned its predecessor.
func TestCompactDeltaBaseResetsPerBatch(t *testing.T) {
	b := newCompactBatch(4)
	b.AppendAccess(OpRead, 0x12345678, 4)
	first := bytes.Clone(b.Buf)
	b.Reset()
	b.AppendAccess(OpRead, 0x12345678, 4)
	if !bytes.Equal(first, b.Buf) {
		t.Fatalf("same event encodes differently after Reset: %x vs %x", first, b.Buf)
	}
	evs, _ := decodeBlocks(b)
	if len(evs) != 1 || evs[0].Addr() != 0x12345678 || evs[0].Size() != 4 {
		t.Fatalf("decoded %+v after Reset", evs)
	}
}

// TestCompactRingCarriesMoreEventsPerBatch checks the ring-level win: even
// at a quarter of the fixed ring's per-batch footprint (4 bytes per event
// slot, see NewCompactRing), a compact ring hands over more events per
// publication, and the ring's stats count logical events and wire bytes.
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
	fixed := emit(NewRing(4, 64))
	compact := emit(NewCompactRing(4, 64))
	if fixed.EventsPublished != n || compact.EventsPublished != n {
		t.Fatalf("EventsPublished = %d (fixed) / %d (compact), want %d logical events both ways",
			fixed.EventsPublished, compact.EventsPublished, n)
	}
	if fixed.StreamBytes != 16*n {
		t.Fatalf("fixed StreamBytes = %d, want %d", fixed.StreamBytes, 16*n)
	}
	if compact.StreamBytes*2 > fixed.StreamBytes {
		t.Fatalf("compact StreamBytes = %d, want at least 2x below the fixed %d",
			compact.StreamBytes, fixed.StreamBytes)
	}
	if compact.BatchesPublished*3 > fixed.BatchesPublished*2 {
		t.Fatalf("compact used %d batches vs fixed %d: sequential accesses should cut handoffs by a third or more",
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
	// Block-boundary seeds for the v2 block format. In this program
	// encoding an access is op byte 3 (read) / 4 (write), 7 size bytes,
	// 8 addr bytes; a range is op byte 5/6, 4 count + 3 elem + 8 addr.
	read := func(data []byte, addr, size uint64) []byte {
		data = append(data, 3, byte(size>>48), byte(size>>40), byte(size>>32),
			byte(size>>24), byte(size>>16), byte(size>>8), byte(size))
		return append(data, byte(addr>>56), byte(addr>>48), byte(addr>>40), byte(addr>>32),
			byte(addr>>24), byte(addr>>16), byte(addr>>8), byte(addr))
	}
	// A run of accesses long enough that small ring batch capacities
	// (bcap = data[0]%8+1 = 4 here) cut partial blocks at every batch tail.
	seed := []byte{}
	for i := 0; i < 70; i++ {
		seed = read(seed, 0x1000+uint64(8*i), 8)
	}
	f.Add(seed)
	// An op-run broken by a uvarint size escape mid-group: sizes 4,4,300,4
	// split the size run inside one group-varint control group.
	seed = []byte{}
	for i, size := range []uint64{4, 4, 300, 4} {
		seed = read(seed, 0x2000+uint64(4*i), size)
	}
	f.Add(seed)
	// A MaxRangeCount escape as the last event of a full block: 63 reads
	// then one maximal range.
	seed = []byte{}
	for i := 0; i < 63; i++ {
		seed = read(seed, uint64(16*i), 4)
	}
	seed = append(seed, 5, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0, 0, 0, 0, 0, 0, 0x40, 0)
	f.Add(seed)
	// A partial final block of exactly 1 event after a full block.
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
					evs, _ := decodeBlocks(b)
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
