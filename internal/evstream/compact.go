package evstream

import (
	"encoding/binary"
	"math/bits"
)

// Compact wire format, v2: block-structured. A compact Batch stores its
// events delta-packed in Buf instead of as 16-byte Event structs in Ev,
// exploiting the two regularities real event streams have in abundance:
// operand sizes repeat (almost every access is a 4- or 8-byte load/store)
// and addresses move in small strides (loops walk buffers). Where the v1
// format spent a tag byte and a varint on every event — paying a
// per-byte branch loop on every decode — v2 groups access events into
// blocks of up to BlockEvents (64) and moves every per-event decision
// into small per-block tables the decoder reads with shifts and unaligned
// loads (Iter.DecodeBlock), so decoding one event costs a table fill plus
// one masked load instead of a varint loop.
//
// Stream layout: a compact buffer is a sequence of two element kinds,
// distinguishable from their first byte (the low 3 bits are an Op for
// structure events and 0 — no Op — for a block):
//
//	structure event:  one bare tag byte, value OpSpawn/OpRestore/OpSync
//	                  (1..3). Structure events never ride inside blocks,
//	                  so Summary.Ctl byte offsets keep pointing at single
//	                  tag bytes and skip-scan replay (Batch.CtlOp) still
//	                  reads the op without decoding anything else.
//
//	access block (1..BlockEvents access/range events):
//	    marker   byte 0x00 (blockMarker: no Op in the low bits)
//	    header   byte: bits 0-5 = n-1, bit 6 = block contains range events
//	    opBits   ceil(n/4) bytes: 2-bit op code per event, in order.
//	             The four access ops are exactly OpRead..OpWriteRange =
//	             4..7, so code = op&3 and op = code+4 — op runs cost 2
//	             bits per event no matter how reads and writes interleave.
//	    sizeRuns run-length encoded size/elem operands: each run is
//	             (valueByte, lenByte) with value 0..254 inline and 255
//	             meaning "value follows as a uvarint", lenByte = run-1.
//	             Same-size runs are overwhelmingly common, so this
//	             section is typically one run for the whole block.
//	    deltas   group-varint address deltas: per 4 events one control
//	             byte holding four 2-bit width codes (0..3 = 1/2/4/8
//	             bytes), then the zig-zag deltas little-endian, truncated
//	             to their coded width. The decoder turns a code into a
//	             mask and does one unaligned 8-byte load per delta — no
//	             per-byte continuation branches.
//	    counts   (only if header bit 6) one uvarint per range event, in
//	             event order. Last so the decoder's count pass starts
//	             exactly where the fused op/delta pass stopped, with
//	             range positions re-read from the packed op bytes — no
//	             side state between sections.
//
// Address deltas are zig-zag encodings of the address's movement since
// the previous access in the same batch, in wrapping (mod 2^64)
// arithmetic — an address-space wrap (prev 2^64-1 → addr 0) is a tiny +1
// delta, and a wild jump anywhere in the address space costs at most 8
// bytes, never an error. The delta chain runs across blocks within a
// batch but resets to zero with every batch (Batch.Reset clears prev):
// each batch decodes independently of every other. That is load-bearing,
// not just convenient — shard workers skip batches wholesale on the
// Summary fast path, so no decoder can rely on state carried over from a
// batch it may never have scanned.
//
// The sequential fast path — a run of same-size accesses striding
// through a buffer — costs 1 delta byte + 2 op bits + 1/4 control byte
// per event, ~1.6 bytes against the fixed encoding's 16 and the v1
// per-event encoding's 2.
//
// The encoder stages up to one block of pending events in the Batch
// (pendOp/pendA/pendC/pendZZ/pendW) and seals the block into Buf when it
// reaches BlockEvents, when a structure event arrives, or when the batch
// is published or read (Iter/WireBytes seal as a courtesy; Ring.Publish
// and TaskQueue.Publish seal explicitly). pendN + pendExtra +
// blockOverhead(pendN) is the staged block's exact sealed size, so
// Batch.Full never lets an append grow a recycled batch's buffer.
const (
	tagOpMask = 0b111 // low three bits of a structure tag byte: the Op

	// BlockEvents is the maximum number of access events per block, and
	// the size of the stack array Iter.DecodeBlock fills. 64 keeps a
	// decoded block (1 KiB of Events) inside L1 while amortizing the
	// per-block header work over enough events to vanish.
	BlockEvents = 64

	blockMarker    = 0x00 // first byte of a block: no Op in the low bits
	blockHasRanges = 1 << 6
	blockArgEsc    = 0xff // size-run value byte: operand follows as uvarint
)

// groupMask and unzig support the group-varint delta decode: a 2-bit
// width code selects how many low bytes of an unaligned 8-byte load are
// the delta.
var groupMask = [4]uint64{0xff, 0xffff, 0xffffffff, ^uint64(0)}

func unzig(zz uint64) uint64 { return zz>>1 ^ -(zz & 1) }

// unzigB is unzig over single-byte zig-zag values — the sequential fast
// path's delta width. One L1-resident table load per lane replaces the
// shift/negate/xor chain in the kernel's hottest group shape.
var unzigB = func() (t [256]uint64) {
	for i := range t {
		t[i] = unzig(uint64(i))
	}
	return
}()

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// MaxEventBytes bounds one event's marginal contribution to the encoded
// stream: block header (2) + op-bits byte (1) + control byte (1) + a new
// size run (2) with an escaped operand (≤10) + a range count (≤5: counts
// fit 32 bits) + the widest delta (8), rounded up. Batch.Full publishes
// while at least this much capacity remains, so an append never grows a
// recycled batch's buffer.
const MaxEventBytes = 32

// MaxAccessSize bounds a plain access's size in bytes: the fixed Event
// packs it in the 56 bits above the op byte, and the compact encoding
// enforces the same limit so toggling the encoding cannot change which
// programs are accepted. The stint hook layer validates raw-address
// accesses before emitting.
const MaxAccessSize = 1<<56 - 1

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

// Compact reports which storage form the batch uses: delta-packed bytes in
// Buf (true) or fixed 16-byte Events in Ev (false).
func (b *Batch) Compact() bool { return b.compact }

// Len returns the batch's logical event count, independent of encoding
// and including any staged-but-unsealed events.
func (b *Batch) Len() int {
	if b.compact {
		return b.n + b.pendN
	}
	return len(b.Ev)
}

// WireBytes returns the bytes the batch occupies on the ring: the packed
// buffer's length (sealing any staged block first), or 16 per event for
// the fixed encoding.
func (b *Batch) WireBytes() int {
	if b.compact {
		b.seal()
		return len(b.Buf)
	}
	return 16 * len(b.Ev)
}

// Full reports whether the producer should publish before the next append.
// A fixed batch is full at capacity; a compact batch is full when the next
// event might not fit (pendN + pendExtra + blockOverhead is the staged
// block's exact sealed size, MaxEventBytes the worst-case next event) —
// but never while empty, so even a tiny batch (the tests' one-event
// geometry) always carries at least one event.
func (b *Batch) Full() bool {
	if b.compact {
		return b.n+b.pendN > 0 &&
			len(b.Buf)+b.pendN+b.pendExtra+blockOverhead(b.pendN)+MaxEventBytes > cap(b.Buf)
	}
	return len(b.Ev) == cap(b.Ev)
}

// blockOverhead is the staged block's structural byte count: marker and
// header, plus one op-bits and one control byte per (partial) group of
// four. Zero while nothing is staged.
func blockOverhead(pendN int) int {
	if pendN == 0 {
		return 0
	}
	return 2 + ((pendN+3)>>2)<<1
}

// Reset clears the batch for reuse under either encoding, keeping the
// storage capacity and — via Summary.Reset — the Ctl capacity. It also
// zeroes the delta base: every batch's addresses delta from zero, so
// batches decode independently (see the wire-format comment).
func (b *Batch) Reset() {
	b.Ev = b.Ev[:0]
	b.Buf = b.Buf[:0]
	b.n = 0
	b.prev = 0
	b.pendN = 0
	b.pendExtra = 0
	b.pendRunN = 0
	b.pendRangeN = 0
	b.Sum.Reset()
}

// AppendCtl appends one structure event and returns its offset in the form
// Summary.AddCtl records: a byte offset into Buf for compact batches (the
// staged block is sealed first, so the offset is final), an event index
// into Ev otherwise.
func (b *Batch) AppendCtl(op Op) int {
	if b.compact {
		b.seal()
		off := len(b.Buf)
		b.Buf = append(b.Buf, byte(op))
		b.n++
		return off
	}
	off := len(b.Ev)
	b.Ev = append(b.Ev, Ctl(op))
	return off
}

// AppendAccess appends one per-access event (OpRead/OpWrite). The compact
// path is a hand-specialized copy of stage without the range-count leg —
// plain accesses are the producer's hot path, and routing them through the
// generic stage call costs a second call frame per event. The codec tests'
// exact byte-accounting pin keeps the copy honest; see stage for the
// commentary on each step.
func (b *Batch) AppendAccess(op Op, addr, size uint64) {
	if !b.compact {
		b.appendFixedAccess(op, addr, size)
		return
	}
	if size > MaxAccessSize {
		panic("evstream: access size does not fit the 56-bit size field")
	}
	d := addr - b.prev
	b.prev = addr
	zz := (d << 1) ^ uint64(int64(d)>>63)
	i := b.pendN
	var wc byte
	if zz >= 1<<8 {
		wc = byte(bits.Len32(uint32((bits.Len64(zz)+7)>>3) - 1))
		b.pendExtra += 1<<wc - 1
	}
	b.pendOW[i] = (byte(op)&3)<<4 | wc
	if size != b.pendLastA || i == 0 {
		r := b.pendRunN
		b.pendRunV[r] = size
		b.pendRunS[r] = byte(i)
		b.pendRunN = r + 1
		b.pendLastA = size
		extra := 2
		if size >= blockArgEsc {
			extra += uvarintLen(size)
		}
		b.pendExtra += extra
	}
	b.pendZZ[i] = zz
	b.pendN = i + 1
	if i+1 == BlockEvents {
		b.seal()
	}
}

func (b *Batch) appendFixedAccess(op Op, addr, size uint64) {
	b.Ev = append(b.Ev, Access(op, addr, size))
}

// AppendRange appends one range event (OpReadRange/OpWriteRange),
// enforcing the same operand limits as the fixed Range constructor.
func (b *Batch) AppendRange(op Op, addr uint64, count int, elem uint64) {
	if !b.compact {
		b.appendFixedRange(op, addr, count, elem)
		return
	}
	checkRangeFields(count, elem)
	b.stage(byte(op), elem, uint64(count), addr)
}

func (b *Batch) appendFixedRange(op Op, addr uint64, count int, elem uint64) {
	b.Ev = append(b.Ev, Range(op, addr, count, elem))
}

// stage buffers one access/range event into the pending block, tracking
// the block's exceptional bytes as it goes (run boundaries, escapes,
// wide deltas, range counts — everything beyond the baseline one delta
// byte per event that pendN itself counts), and seals when the block is
// complete. Per-event codes go into flat byte arrays — independent stores;
// OR-ing into shared packed bytes here would chain every call through a
// store-forward of the previous one, as would bumping a run-length counter,
// so runs are staged as (value, start index) and only on a value change.
func (b *Batch) stage(op byte, a, c, addr uint64) {
	d := addr - b.prev
	b.prev = addr
	zz := (d << 1) ^ uint64(int64(d)>>63)
	i := b.pendN
	var wc byte
	if zz >= 1<<8 {
		// Wide delta: bytes needed (2..8), whose bit length over 1..7
		// collapses 2/4/8 to codes 1..3.
		wc = byte(bits.Len32(uint32((bits.Len64(zz)+7)>>3) - 1))
		b.pendExtra += 1<<wc - 1
	}
	code := op & 3
	b.pendOW[i] = code<<4 | wc
	if a != b.pendLastA || i == 0 {
		r := b.pendRunN
		b.pendRunV[r] = a
		b.pendRunS[r] = byte(i)
		b.pendRunN = r + 1
		b.pendLastA = a
		extra := 2 // size-run value + length bytes
		if a >= blockArgEsc {
			extra += uvarintLen(a)
		}
		b.pendExtra += extra
	}
	if code&2 != 0 {
		r := b.pendRangeN
		b.pendC[r] = c
		b.pendRangeN = r + 1
		b.pendExtra += uvarintLen(c)
	}
	b.pendZZ[i] = zz
	b.pendN = i + 1
	if i+1 == BlockEvents {
		b.seal()
	}
}

// seal encodes the staged events as one block at the end of Buf. The
// encoded size equals exactly what the stage calls accounted — one
// baseline delta byte per event plus pendExtra plus the closed-form
// structural overhead (pinned by tests) — which lets Full guarantee no
// buffer growth:
// seal extends Buf by that amount up front and fills it with indexed
// stores (deltas as one unconditional 8-byte store each, the spill
// overwritten by the next field or clipped by the final truncation),
// never appending byte by byte.
func (b *Batch) seal() {
	n := b.pendN
	if n == 0 {
		return
	}
	buf := b.Buf
	k := len(buf)
	end := k + n + b.pendExtra + blockOverhead(n)
	if cap(buf) < end+8 {
		// Outside the ring's Full-governed geometry (tests, ad-hoc
		// batches): grow once, keeping the 8-byte store slack.
		grown := make([]byte, k, end+8)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:end+8]
	hdr := byte(n - 1)
	if b.pendRangeN > 0 {
		hdr |= blockHasRanges
	}
	buf[k] = blockMarker
	buf[k+1] = hdr
	k += 2
	// Zero the padding lanes of a partial final group so the packed bytes
	// below (and the wire stream) stay deterministic across batch reuse.
	for i := n; i < (n+3)&^3; i++ {
		b.pendOW[i] = 0
	}
	// Pack the op codes (high nibbles) and delta width codes (low nibbles)
	// four per byte in one pass: one word load per group, the lane bytes
	// folded down with shifts (lane L sits at bit 8L and wants bit 2L; the
	// stray bits all land outside the low byte). Op bytes go to the wire
	// here; control bytes wait on the stack for the delta section below.
	g := (n + 3) >> 2
	var ctrls [BlockEvents / 4]byte
	for gi := 0; gi < g; gi++ {
		w := binary.LittleEndian.Uint32(b.pendOW[gi*4:])
		op4 := (w >> 4) & 0x03030303
		wc4 := w & 0x03030303
		buf[k+gi] = byte(op4 | op4>>6 | op4>>12 | op4>>18)
		ctrls[gi] = byte(wc4 | wc4>>6 | wc4>>12 | wc4>>18)
	}
	k += g
	// Size/elem runs: lengths fall out of consecutive start indices (the
	// sentinel closes the last run).
	b.pendRunS[b.pendRunN] = byte(n)
	for r := 0; r < b.pendRunN; r++ {
		v := b.pendRunV[r]
		runL := b.pendRunS[r+1] - b.pendRunS[r] - 1
		if v < blockArgEsc {
			buf[k] = byte(v)
			buf[k+1] = runL
			k += 2
		} else {
			buf[k] = blockArgEsc
			buf[k+1] = runL
			k += 2 + binary.PutUvarint(buf[k+2:], v)
		}
	}
	// Group-varint deltas: the packed control byte, then the lanes. An
	// all-one-byte-wide group — the sequential-stream common case — packs
	// its four delta bytes with a single 4-byte store; otherwise the lane
	// offsets are precomputed off the control byte so the four full-width
	// stores issue independently instead of chaining through one running
	// cursor.
	for base := 0; base < n; base += 4 {
		ctrl := ctrls[base>>2]
		buf[k] = ctrl
		k++
		if n-base >= 4 {
			if ctrl == 0 {
				v := uint32(b.pendZZ[base]) | uint32(b.pendZZ[base+1])<<8 |
					uint32(b.pendZZ[base+2])<<16 | uint32(b.pendZZ[base+3])<<24
				binary.LittleEndian.PutUint32(buf[k:], v)
				k += 4
				continue
			}
			p1 := k + 1<<(ctrl&3)
			p2 := p1 + 1<<((ctrl>>2)&3)
			p3 := p2 + 1<<((ctrl>>4)&3)
			binary.LittleEndian.PutUint64(buf[k:], b.pendZZ[base])
			binary.LittleEndian.PutUint64(buf[p1:], b.pendZZ[base+1])
			binary.LittleEndian.PutUint64(buf[p2:], b.pendZZ[base+2])
			binary.LittleEndian.PutUint64(buf[p3:], b.pendZZ[base+3])
			k = p3 + 1<<(ctrl>>6)
			continue
		}
		for lane := 0; lane < n-base; lane++ {
			binary.LittleEndian.PutUint64(buf[k:], b.pendZZ[base+lane])
			k += 1 << ((ctrl >> (uint(lane) * 2)) & 3)
		}
	}
	// Range counts, event order, after the deltas: the decoder's count
	// pass then needs no side state — by the time it runs, the fused
	// op/delta pass has consumed the buffer up to exactly here. The
	// counts were staged dense in range order, so no scan for them here.
	for r := 0; r < b.pendRangeN; r++ {
		k += binary.PutUvarint(buf[k:], b.pendC[r])
	}
	if k != end {
		panic("evstream: sealed block size disagrees with staged accounting")
	}
	b.Buf = buf[:end]
	b.n += n
	b.pendN = 0
	b.pendExtra = 0
	b.pendRunN = 0
	b.pendRangeN = 0
}

// AppendFrom bulk-appends every event of src to b, reporting false — and
// leaving b untouched — when they might not fit without growing b's
// storage. It exists for the parallel-detect merge stage, which coalesces
// many small per-task chunks into full-size batches, so it is defined for
// compact batches only. The rebase must understand block boundaries: only
// src's FIRST block's deltas depend on the delta base (its first event
// deltas from zero; everything after re-chains from in-block addresses),
// so that one block is decoded and re-staged against b's base —
// re-run-length-encoded and re-grouped — after which every remaining block
// copies verbatim and b inherits src's final delta base.
//
// The source must hold access/range events only (AppendFrom panics on a
// leading structure event and would silently lose Summary.Ctl offsets for
// an embedded one); the merge keeps structure events out of chunks by
// design, synthesizing them from chunk terminators instead. Summaries are
// not merged — the caller ORs masks and stamps Ctl itself.
func (b *Batch) AppendFrom(src *Batch) bool {
	n := src.Len()
	if n == 0 {
		return true
	}
	if !b.compact || !src.compact {
		panic("evstream: AppendFrom needs compact batches")
	}
	src.seal()
	// Conservative: the re-staged first block costs at most its worst-case
	// encoding beyond the bytes it replaces, so this bound guarantees no
	// growth. Chunks that fail it against an empty accumulator are
	// forwarded wholesale by the caller instead — no copy at all.
	if len(b.Buf)+b.pendN+b.pendExtra+len(src.Buf)+2+BlockEvents*MaxEventBytes > cap(b.Buf) {
		return false
	}
	it := src.Iter()
	var blk [BlockEvents]Event
	evs := it.DecodeBlock(&blk)
	for _, ev := range evs {
		switch op := ev.EvOp(); op {
		case OpRead, OpWrite:
			b.AppendAccess(op, ev.Addr(), ev.Size())
		case OpReadRange, OpWriteRange:
			b.AppendRange(op, ev.Addr(), ev.Count(), ev.Elem())
		default:
			panic("evstream: AppendFrom source starts with a structure event")
		}
	}
	b.seal()
	b.Buf = append(b.Buf, src.Buf[it.Pos():]...)
	b.n += n - len(evs)
	b.prev = src.prev
	return true
}

// CtlOp returns the op of the i-th structure event recorded in the batch's
// Summary.Ctl, resolving the offset against whichever storage form the
// batch uses. For compact batches this reads one tag byte — skip-scan
// replay never decodes operands.
func (b *Batch) CtlOp(i int) Op {
	off := b.Sum.Ctl[i]
	if b.compact {
		return Op(b.Buf[off] & tagOpMask)
	}
	return b.Ev[off].EvOp()
}

// Iter returns an iterator over the batch's events, sealing any staged
// block first. Consumers scan both storage forms with one DecodeBlock
// loop without materializing a []Event for the whole compact batch.
// Concurrent iteration of one batch (every shard worker scans the same
// broadcast batch) is safe because published batches are sealed and
// read-only; each Iter carries its own delta base.
func (b *Batch) Iter() Iter {
	b.seal()
	return Iter{ev: b.Ev, buf: b.Buf, compact: b.compact}
}

// Iter decodes a batch. The zero Iter is empty; obtain one from
// Batch.Iter. One DecodeBlock call decodes a whole block into a
// caller-owned stack array.
type Iter struct {
	ev      []Event
	buf     []byte
	pos     int
	prev    uint64
	compact bool
}

// Pos returns the iterator's position in the same form Summary.Ctl
// records (byte offset into the compact buffer, event index otherwise).
// It advances at DecodeBlock granularity: after a DecodeBlock call it
// points at the next block boundary. Within a returned group of structure
// events, the i-th event sits at Pos()+i of the position read *before*
// the call — structure events are single contiguous tag bytes in a
// compact batch and single slots in a fixed one.
func (it *Iter) Pos() int { return it.pos }

// DecodeBlock decodes the next block of events and returns them as a
// slice valid until the next call: into dst for compact batches (the
// block decode kernel — table fills plus one masked unaligned load per
// address), or a zero-copy window of the underlying slice for fixed
// batches. A compact batch yields its elements in stream order, each
// either one access block (1..BlockEvents access/range events) or a run
// of consecutive structure events; a fixed batch yields up to
// BlockEvents events as stored, structure and access events mixed. It
// returns an empty slice at the end of the batch. Compact buffers are
// trusted input — they are produced in-process by the Append methods —
// so a malformed buffer panics rather than returning an error.
func (it *Iter) DecodeBlock(dst *[BlockEvents]Event) []Event {
	if !it.compact {
		n := len(it.ev) - it.pos
		if n <= 0 {
			return nil
		}
		if n > BlockEvents {
			n = BlockEvents
		}
		evs := it.ev[it.pos : it.pos+n]
		it.pos += n
		return evs
	}
	buf := it.buf
	pos := it.pos
	if pos >= len(buf) {
		return nil
	}
	if op := buf[pos] & tagOpMask; op != 0 {
		// A run of bare structure tags: one byte per event, contiguous.
		k := 0
		for pos < len(buf) && k < BlockEvents {
			tag := buf[pos]
			if tag == blockMarker || tag > byte(OpSync) {
				break
			}
			dst[k] = Event{word: uint64(tag)}
			k++
			pos++
		}
		if k == 0 {
			panic("evstream: corrupt compact event stream")
		}
		it.pos = pos
		return dst[:k]
	}
	// Access block.
	if pos+1 >= len(buf) {
		panic("evstream: truncated compact event stream")
	}
	hdr := buf[pos+1]
	n := int(hdr&(blockHasRanges-1)) + 1
	pos += 2
	opPos := pos
	pos += (n + 3) / 4
	if pos > len(buf) {
		panic("evstream: truncated compact event stream")
	}
	// Size/elem runs. The overwhelmingly common block is one run covering
	// every event: fuse the size fill with the op unpack below by folding
	// the shared size into each group's op writes instead of a separate
	// pass. Multi-run blocks fall back to a run fill plus an op pass.
	oneRun := uint64(0)
	if pos+1 < len(buf) && int(buf[pos+1])+1 == n {
		a := uint64(buf[pos])
		pos += 2
		if a == blockArgEsc {
			a, pos = uvarintAt(buf, pos)
		}
		oneRun = a<<8 | 4 // pre-composed word base: size and the op-code bias
	} else {
		for filled := 0; filled < n; {
			if pos+1 >= len(buf) {
				panic("evstream: truncated compact event stream")
			}
			a := uint64(buf[pos])
			rl := int(buf[pos+1]) + 1
			pos += 2
			if a == blockArgEsc {
				a, pos = uvarintAt(buf, pos)
			}
			if filled+rl > n {
				panic("evstream: corrupt compact event stream")
			}
			w := a<<8 | 4
			for j := filled; j < filled+rl; j++ {
				dst[j].word = w
			}
			filled += rl
		}
	}
	// Fused op-unpack + group-varint delta pass: per four events, one
	// packed op byte unpacked with constant shifts (the op code is op&3,
	// so each word gains its code plus the bias 4 folded into the base)
	// and one delta control byte. The sequential common case — all four
	// deltas 1 byte — decodes from a single 4-byte load with no width
	// table; mixed widths take four unaligned 8-byte loads masked to their
	// coded widths.
	prev := it.prev
	base, g := 0, opPos
	for ; base+4 <= n; base, g = base+4, g+1 {
		ob := uint64(buf[g])
		if oneRun != 0 {
			dst[base].word = oneRun + (ob & 3)
			dst[base+1].word = oneRun + (ob >> 2 & 3)
			dst[base+2].word = oneRun + (ob >> 4 & 3)
			dst[base+3].word = oneRun + (ob >> 6 & 3)
		} else {
			dst[base].word += ob & 3
			dst[base+1].word += ob >> 2 & 3
			dst[base+2].word += ob >> 4 & 3
			dst[base+3].word += ob >> 6 & 3
		}
		if pos >= len(buf) {
			panic("evstream: truncated compact event stream")
		}
		if pos+8 <= len(buf) {
			// One 8-byte load picks up the control byte and (for the
			// all-one-byte sequential shape) the whole delta group behind
			// it. The four unzigs are independent table loads and the
			// addresses come from prefix sums, so the only work serialized
			// across groups is one add — the delta chain's data dependency
			// never exceeds one addition per four events.
			w8 := binary.LittleEndian.Uint64(buf[pos:])
			if w8&0x0000ff00000000ff == 0 && base+8 <= n && pos+10 <= len(buf) {
				// Two consecutive all-one-byte groups — the sequential
				// stream's steady state. The pair sits wholly inside w8
				// plus a 2-byte tail (ctrl, 4 deltas, ctrl, 4 deltas =
				// 10 bytes), so 8 events decode per loop trip: half the
				// loop, branch, and bounds-check overhead of the
				// group-at-a-time path.
				w16 := uint64(binary.LittleEndian.Uint16(buf[pos+8:]))
				u0 := unzigB[w8>>8&0xff]
				u1 := unzigB[w8>>16&0xff]
				u2 := unzigB[w8>>24&0xff]
				u3 := unzigB[w8>>32&0xff]
				u4 := unzigB[w8>>48&0xff]
				u5 := unzigB[w8>>56]
				u6 := unzigB[w16&0xff]
				u7 := unzigB[w16>>8]
				s01 := u0 + u1
				s0123 := s01 + u2 + u3
				s45 := u4 + u5
				dst[base].addr = prev + u0
				dst[base+1].addr = prev + s01
				dst[base+2].addr = prev + s01 + u2
				dst[base+3].addr = prev + s0123
				prev += s0123
				dst[base+4].addr = prev + u4
				dst[base+5].addr = prev + s45
				dst[base+6].addr = prev + s45 + u6
				prev += s45 + u6 + u7
				dst[base+7].addr = prev
				ob = uint64(buf[g+1])
				if oneRun != 0 {
					dst[base+4].word = oneRun + (ob & 3)
					dst[base+5].word = oneRun + (ob >> 2 & 3)
					dst[base+6].word = oneRun + (ob >> 4 & 3)
					dst[base+7].word = oneRun + (ob >> 6 & 3)
				} else {
					dst[base+4].word += ob & 3
					dst[base+5].word += ob >> 2 & 3
					dst[base+6].word += ob >> 4 & 3
					dst[base+7].word += ob >> 6 & 3
				}
				pos += 10
				base += 4
				g++
				continue
			}
			if byte(w8) == 0 {
				u0 := unzigB[w8>>8&0xff]
				u1 := unzigB[w8>>16&0xff]
				u2 := unzigB[w8>>24&0xff]
				u3 := unzigB[w8>>32&0xff]
				s01 := u0 + u1
				dst[base].addr = prev + u0
				dst[base+1].addr = prev + s01
				dst[base+2].addr = prev + s01 + u2
				prev += s01 + u2 + u3
				dst[base+3].addr = prev
				pos += 5
				continue
			}
		}
		ctrl := buf[pos]
		pos++
		if pos+32 <= len(buf) {
			// Mixed widths: the four lane offsets fall out of the width
			// codes up front, so the loads issue independently and the same
			// prefix-sum trick keeps the chain at one add per group.
			c0, c1, c2, c3 := ctrl&3, ctrl>>2&3, ctrl>>4&3, ctrl>>6&3
			p1 := pos + 1<<c0
			p2 := p1 + 1<<c1
			p3 := p2 + 1<<c2
			u0 := unzig(binary.LittleEndian.Uint64(buf[pos:]) & groupMask[c0])
			u1 := unzig(binary.LittleEndian.Uint64(buf[p1:]) & groupMask[c1])
			u2 := unzig(binary.LittleEndian.Uint64(buf[p2:]) & groupMask[c2])
			u3 := unzig(binary.LittleEndian.Uint64(buf[p3:]) & groupMask[c3])
			s01 := u0 + u1
			dst[base].addr = prev + u0
			dst[base+1].addr = prev + s01
			dst[base+2].addr = prev + s01 + u2
			prev += s01 + u2 + u3
			dst[base+3].addr = prev
			pos = p3 + 1<<c3
			continue
		}
		// Buffer-tail fallback: too close to the end for unconditional
		// 8-byte loads — assemble each delta bytewise.
		for lane := 0; lane < 4; lane++ {
			code := ctrl >> (lane * 2) & 3
			w := 1 << code
			if pos+w > len(buf) {
				panic("evstream: truncated compact event stream")
			}
			var zz uint64
			for j := w - 1; j >= 0; j-- {
				zz = zz<<8 | uint64(buf[pos+j])
			}
			pos += w
			prev += unzig(zz)
			dst[base+lane].addr = prev
		}
	}
	// Partial final group (n not a multiple of 4): ops and deltas lane by
	// lane.
	if base < n {
		ob := uint64(buf[g])
		if pos >= len(buf) {
			panic("evstream: truncated compact event stream")
		}
		ctrl := buf[pos]
		pos++
		for lane := 0; base+lane < n; lane++ {
			if oneRun != 0 {
				dst[base+lane].word = oneRun + (ob >> (lane * 2) & 3)
			} else {
				dst[base+lane].word += ob >> (lane * 2) & 3
			}
			code := ctrl >> (lane * 2) & 3
			w := 1 << code
			if pos+w > len(buf) {
				panic("evstream: truncated compact event stream")
			}
			var zz uint64
			if pos+8 <= len(buf) {
				zz = binary.LittleEndian.Uint64(buf[pos:]) & groupMask[code]
			} else {
				for j := w - 1; j >= 0; j-- {
					zz = zz<<8 | uint64(buf[pos+j])
				}
			}
			pos += w
			prev += unzig(zz)
			dst[base+lane].addr = prev
		}
	}
	// Range counts, in event order, from the tail section after the
	// deltas. Even in a flagged block most op groups hold no range events
	// — a group's packed byte has a range op iff one of its codes has bit
	// 1 set — so whole groups skip on one byte test.
	if hdr&blockHasRanges != 0 {
		for cg, i := opPos, 0; i < n; cg, i = cg+1, i+4 {
			ob := buf[cg]
			if ob&0b10101010 == 0 {
				continue
			}
			m := i + 4
			if m > n {
				m = n
			}
			for j := i; j < m; j++ {
				if ob>>(uint(j-i)*2)&2 != 0 {
					var c uint64
					c, pos = uvarintAt(buf, pos)
					dst[j].word |= c << 32
				}
			}
		}
	}
	it.prev = prev
	it.pos = pos
	return dst[:n]
}

// uvarintAt decodes a uvarint at buf[pos:], with an inlined single-byte
// fast path, returning the value and the next position.
func uvarintAt(buf []byte, pos int) (uint64, int) {
	if pos < len(buf) {
		if b := buf[pos]; b < 0x80 {
			return uint64(b), pos + 1
		}
	}
	v, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		panic("evstream: truncated compact event stream")
	}
	return v, pos + n
}
