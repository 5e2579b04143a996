package evstream

import "encoding/binary"

// Compact wire format: one frame per event. A compact Batch stores its
// events as a byte stream in Buf instead of as 16-byte Event structs in Ev:
//
//	structure event:  one bare tag byte, OpSpawn/OpRestore/OpSync (1..3).
//	interval:         op byte (OpRead/OpWrite) | zig-zag uvarint of the
//	                  address's movement since the previous interval or
//	                  range frame in this batch | uvarint size
//	range:            an interval frame under a range op, the element size
//	                  as its operand, then a uvarint count. No pipeline
//	                  streams ranges; the frame exists because the frozen
//	                  bench/isolate.go still feeds AppendRange to a compact
//	                  batch, and goes with it (ROADMAP A2/G(1)).
//
// Address deltas are in wrapping (mod 2^64) arithmetic — an address-space
// wrap (prev 2^64-1 → addr 0) is a +1 delta, and a wild jump anywhere in
// the address space costs at most 10 bytes, never an error. The delta base
// resets to zero with every batch (Batch.Reset clears prev): each batch
// decodes independently of every other. That is load-bearing — every shard
// worker holds its own Iter over the one broadcast batch, and the
// parallel-detect merge forwards a full chunk whole, wherever it lands in
// the stream, so no decoder can rely on state carried over from the batch
// before.
//
// A strand's coalesced intervals arrive address-sorted and mostly under 128
// bytes long, so the common frame is 3 bytes against the fixed form's 16.
// DESIGN.md §3 records why nothing more elaborate pays on this stream.
const (
	// BlockEvents is the most events one Iter.DecodeBlock call returns — a
	// 1 KiB array on the caller's stack, enough to amortize the call away.
	BlockEvents = 64

	// MaxEventBytes bounds one frame: tag (1) + delta (≤10) + size (≤10) +
	// range count (≤5: counts fit 32 bits), rounded up. Batch.Full publishes
	// while at least this much capacity remains and every pooled batch is
	// born with at least this much (compactBufCap), so an append never grows
	// a buffer: the encoder reslices into the reserve and stores by index.
	MaxEventBytes = 32

	// MaxAccessSize bounds a plain access's size in bytes: the fixed Event
	// packs it in the 56 bits above the op byte, and the compact encoding
	// enforces the same limit so the two forms accept the same programs.
	MaxAccessSize = 1<<56 - 1
)

// compactBufCap is the byte capacity of a compact batch of batchCap slots:
// 4 bytes a slot and never less than one worst-case frame, so even the
// tests' one-slot geometry carries one event per batch.
func compactBufCap(batchCap int) int { return max(4*batchCap, MaxEventBytes) }

// checkRangeFields is the shared range-operand validation: both encodings
// (Range for the fixed form, AppendRange for the compact form) reject
// operands outside the representable fields rather than truncate.
func checkRangeFields(count int, elem uint64) {
	if count < 0 || uint64(count) > MaxRangeCount {
		panic("evstream: range count does not fit the 32-bit count field")
	}
	if elem > MaxRangeElem {
		panic("evstream: range element size does not fit the 24-bit elem field")
	}
}

func zig(d uint64) uint64    { return d<<1 ^ uint64(int64(d)>>63) }
func unzig(zz uint64) uint64 { return zz>>1 ^ -(zz & 1) }

// putUvarint stores v as a uvarint at buf[k:] and returns the next index.
func putUvarint(buf []byte, k int, v uint64) int {
	for v >= 0x80 {
		buf[k] = byte(v) | 0x80
		v >>= 7
		k++
	}
	buf[k] = byte(v)
	return k + 1
}

// Compact reports the storage form: frames in Buf, or fixed Events in Ev.
func (b *Batch) Compact() bool { return b.compact }

// Len returns the batch's logical event count, independent of encoding.
func (b *Batch) Len() int {
	if b.compact {
		return b.n
	}
	return len(b.Ev)
}

// WireBytes returns the bytes the batch occupies in the stream: the frame
// buffer's length, or 16 per event for the fixed encoding.
func (b *Batch) WireBytes() int {
	if b.compact {
		return len(b.Buf)
	}
	return 16 * len(b.Ev)
}

// Full reports whether the producer should publish before the next append.
// A fixed batch is full at capacity; a compact batch when a worst-case
// frame might not fit — but never while empty, so a batch always carries an
// event. Producers ask before every append; appending to a full compact
// batch is a bug and panics on the encoder's reslice.
func (b *Batch) Full() bool {
	if b.compact {
		return b.n > 0 && len(b.Buf)+MaxEventBytes > cap(b.Buf)
	}
	return len(b.Ev) == cap(b.Ev)
}

// Reset clears the batch for reuse under either encoding, keeping the
// storage capacity, and zeroes the delta base so batches decode
// independently (see the format comment).
func (b *Batch) Reset() {
	b.Ev = b.Ev[:0]
	b.Buf = b.Buf[:0]
	b.n = 0
	b.prev = 0
}

// AppendCtl appends one structure event.
func (b *Batch) AppendCtl(op Op) {
	if b.compact {
		b.n++
		b.Buf = append(b.Buf, byte(op))
		return
	}
	b.Ev = append(b.Ev, Ctl(op))
}

// AppendAccess appends one interval event (OpRead/OpWrite), encoding the
// frame with indexed stores into the capacity Full reserved.
func (b *Batch) AppendAccess(op Op, addr, size uint64) {
	if !b.compact {
		b.Ev = append(b.Ev, Access(op, addr, size))
		return
	}
	if size > MaxAccessSize {
		panic("evstream: access size does not fit the 56-bit size field")
	}
	k := len(b.Buf)
	buf := b.Buf[:k+MaxEventBytes]
	buf[k] = byte(op)
	k = putUvarint(buf, k+1, zig(addr-b.prev))
	b.Buf = buf[:putUvarint(buf, k, size)]
	b.prev = addr
	b.n++
}

// AppendRange appends one range event (OpReadRange/OpWriteRange),
// enforcing the same operand limits as the fixed Range constructor. The
// frame is an interval frame under the range op with the element size as
// its operand, then the count — still inside AppendAccess's reserve.
func (b *Batch) AppendRange(op Op, addr uint64, count int, elem uint64) {
	if !b.compact {
		b.Ev = append(b.Ev, Range(op, addr, count, elem))
		return
	}
	checkRangeFields(count, elem)
	b.AppendAccess(op, addr, elem)
	b.Buf = binary.AppendUvarint(b.Buf, uint64(count))
}

// AppendFrom bulk-appends every event of src to b, reporting false — and
// leaving b untouched — unless they fit inside the reserve Full keeps. It
// exists for the parallel-detect merge, which coalesces many small per-task
// chunks into full-size batches, so it is defined for compact batches only;
// a chunk cut because it was itself Full never fits, and the merge forwards
// it whole instead of copying it. Only src's first frame depends on the
// delta base: its delta, taken from zero, is the address itself, so that
// one varint is re-encoded against b's base, the rest copies verbatim, and
// b inherits src's base. The source must start with an interval or range
// event (a leading structure event has no delta to re-base, and panics): the
// merge's chunks hold nothing else, their structure events are written from
// the chunks' End.
func (b *Batch) AppendFrom(src *Batch) bool {
	if src.Len() == 0 {
		return true
	}
	if !b.compact || !src.compact {
		panic("evstream: AppendFrom needs compact batches")
	}
	if Op(src.Buf[0]) <= OpSync {
		panic("evstream: AppendFrom source starts with a structure event")
	}
	k := len(b.Buf)
	if k+len(src.Buf)+MaxEventBytes > cap(b.Buf) {
		return false
	}
	zz, pos := uvarintAt(src.Buf, 1)
	buf := b.Buf[:k+MaxEventBytes]
	buf[k] = src.Buf[0]
	k = putUvarint(buf, k+1, zig(unzig(zz)-b.prev))
	b.Buf = append(buf[:k], src.Buf[pos:]...)
	b.n += src.n
	b.prev = src.prev
	return true
}

// Iter returns an iterator over the batch's events; consumers scan both
// storage forms with one DecodeBlock loop. Every shard worker iterates the
// same broadcast batch concurrently: Iter does not touch the batch, and
// each Iter carries its own delta base.
func (b *Batch) Iter() Iter {
	return Iter{ev: b.Ev, buf: b.Buf, compact: b.compact}
}

// Iter decodes a batch. The zero Iter is empty; obtain one from Batch.Iter.
type Iter struct {
	ev      []Event
	buf     []byte
	pos     int
	prev    uint64
	compact bool
}

// DecodeBlock decodes up to BlockEvents events, structure and interval
// frames in stream order, and returns them as a slice valid until the next
// call: into dst for compact batches, a zero-copy window of the underlying
// slice for fixed ones. It returns an empty slice at the end of the batch.
// Compact buffers are produced in-process by the Append methods, so a
// malformed one is a bug and panics rather than returning an error.
func (it *Iter) DecodeBlock(dst *[BlockEvents]Event) []Event {
	if !it.compact {
		n := min(len(it.ev)-it.pos, BlockEvents)
		evs := it.ev[it.pos : it.pos+n]
		it.pos += n
		return evs
	}
	buf, pos, prev := it.buf, it.pos, it.prev
	n := 0
	for ; n < BlockEvents && pos < len(buf); n++ {
		tag := uint64(buf[pos])
		pos++
		if tag-1 >= uint64(OpWriteRange) { // 0 wraps: not an Op either way
			panic("evstream: corrupt compact event stream")
		}
		if tag <= uint64(OpSync) {
			dst[n] = Event{word: tag}
			continue
		}
		// Both operands are overwhelmingly single bytes (a sorted strand's
		// small strides, sizes under 128): test that inline, else uvarintAt.
		var zz, a uint64
		if pos+1 < len(buf) && buf[pos]|buf[pos+1] < 0x80 {
			zz, a = uint64(buf[pos]), uint64(buf[pos+1])
			pos += 2
		} else {
			zz, pos = uvarintAt(buf, pos)
			a, pos = uvarintAt(buf, pos)
		}
		prev += unzig(zz)
		if tag >= uint64(OpReadRange) {
			var c uint64
			c, pos = uvarintAt(buf, pos)
			a |= c << 24
		}
		dst[n] = Event{word: tag | a<<8, addr: prev}
	}
	it.pos, it.prev = pos, prev
	return dst[:n]
}

// uvarintAt decodes a uvarint at buf[pos:], returning the value and the
// next position; one that runs off the buffer or past 64 bits panics.
func uvarintAt(buf []byte, pos int) (uint64, int) {
	var v uint64
	for s := uint(0); pos < len(buf) && s < 64; s += 7 {
		c := buf[pos]
		pos++
		v |= uint64(c&0x7f) << s
		if c < 0x80 {
			return v, pos
		}
	}
	panic("evstream: truncated compact event stream")
}
