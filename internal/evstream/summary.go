package evstream

// Summary is a batch header: a conservative digest of a batch's access
// events, computed cheaply by the producer as it appends them, that lets a
// downstream shard worker decide — without scanning the batch — whether any
// piece of any access event can map to its shard.
//
// The mechanism is the paper's interval-coalescing idea lifted one level
// up: just as a coalesced interval summarizes many word accesses, the mask
// summarizes a whole batch of accesses by the set of shards their pages can
// hash to. A worker whose bit is clear takes the fast path — it jumps
// through Ctl to replay only the structure events (advancing its strand
// tracker and flushing strand boundaries) and never touches the access
// events.
//
// Skipping is exact, not approximate: a clear bit proves that no piece of
// any access in the batch maps to this shard, because
//
//   - an access spanning at most two pages contributes exactly the bits of
//     PickShard(first page) and PickShard(last page), and PageSplit emits
//     pieces on exactly those pages;
//   - an access spanning more than two pages (whose middle pages could hash
//     anywhere) contributes MaskAll, forcing every worker to scan;
//   - shard indices above 63 fold into bit shard%64, so bit b covers every
//     shard congruent to b — a clear bit b still proves "no page hashes to
//     any shard ≡ b (mod 64)", a superset of what worker b needs.
//
// The structure events replayed through Ctl are the batch's complete
// spawn/restore/sync sequence, so the skipping worker's tracker and strand
// flushes stay byte-identical to a full scan.
type Summary struct {
	// Mask is the shard-occupancy bitmask: bit (shard & 63) is set when
	// some access event in the batch may touch a page PickShard maps to
	// that shard. The zero mask means "no access event can touch any
	// shard" — every worker may skip. MaskAll disables skipping.
	Mask uint64
	// Ctl holds the batch-relative offsets of the structure events
	// (OpSpawn/OpRestore/OpSync), in stream order. The offset unit follows
	// the batch's storage form: an event index into Ev for fixed batches, a
	// byte offset of the event's tag byte into Buf for compact batches —
	// Batch.AppendCtl produces the right unit and Batch.CtlOp resolves it,
	// so skip-scan replay never needs to know which form it got.
	Ctl []int32
}

// MaskAll is the all-shards mask: no worker may skip the batch. It is the
// fallback for wide ranges.
const MaskAll = ^uint64(0)

// Reset clears the summary for batch reuse, keeping Ctl's capacity.
func (s *Summary) Reset() {
	s.Mask = 0
	s.Ctl = s.Ctl[:0]
}

// AddCtl records a structure event at batch offset i.
func (s *Summary) AddCtl(i int) { s.Ctl = append(s.Ctl, int32(i)) }

// SkippableBy reports whether the worker for shard may skip the batch's
// access events: its mask bit is clear, which proves no piece of any access
// in the batch maps to the shard (see the type comment for why the fold to
// bit shard%64 preserves that proof).
func (s *Summary) SkippableBy(shard int) bool {
	return s.Mask&(1<<(uint(shard)&63)) == 0
}

// SpanMask returns the summary-mask contribution of one access or range
// event — given as its raw (address, total size) span, the hook operands a
// producer has in hand before encoding — for an n-shard run: the bits of
// the first and last page's shards, or MaskAll when the span covers more
// than two pages (its middle pages could hash to any shard) or wraps the
// address space (PageSplit rejects such events; the stamp stays
// conservative rather than guessing).
func SpanMask(addr, size uint64, pageBits uint, shards int) uint64 {
	first := addr >> pageBits
	last := first
	if size > 1 {
		end := addr + size - 1
		if end < addr {
			return MaskAll
		}
		last = end >> pageBits
	}
	if last-first > 1 {
		return MaskAll
	}
	return 1<<(uint(PickShard(first, shards))&63) | 1<<(uint(PickShard(last, shards))&63)
}
