package evstream

// Summary is a batch header: a digest of a batch's interval events,
// computed cheaply by the producer as it appends them, that lets a
// downstream shard worker decide — without scanning the batch — whether any
// event in it belongs to its shard.
//
// The mechanism is the paper's interval-coalescing idea lifted one level
// up: just as a coalesced interval summarizes many word accesses, the mask
// summarizes a whole batch of intervals by the set of shards their pages
// hash to. A worker whose bit is clear takes the fast path — it jumps
// through Ctl to replay only the structure events (advancing its strand
// tracker and sampling strand boundaries) and never touches the intervals.
//
// Skipping is exact, not approximate: every streamed event is one flushed
// interval, contained in one shadow page, and a worker keeps an event iff
// PickShard of that page is its index — the same function SpanMask stamps.
// A clear bit therefore proves the worker keeps nothing from the batch.
// Shard indices above 63 fold into bit shard%64, so bit b covers every
// shard congruent to b — a clear bit b still proves "no page hashes to any
// shard ≡ b (mod 64)", a superset of what worker b needs.
//
// The structure events replayed through Ctl are the batch's complete
// spawn/restore/sync sequence, so the skipping worker's tracker and strand
// boundaries stay byte-identical to a full scan.
type Summary struct {
	// Mask is the shard-occupancy bitmask: bit (shard & 63) is set when
	// some interval in the batch lies on a page PickShard maps to that
	// shard. The zero mask means "no interval for anyone" — every worker
	// may skip.
	Mask uint64
	// Ctl holds the batch-relative offsets of the structure events
	// (OpSpawn/OpRestore/OpSync), in stream order. The offset unit follows
	// the batch's storage form: an event index into Ev for fixed batches, a
	// byte offset of the event's tag byte into Buf for compact batches —
	// Batch.AppendCtl produces the right unit and Batch.CtlOp resolves it,
	// so skip-scan replay never needs to know which form it got.
	Ctl []int32
}

// Reset clears the summary for batch reuse, keeping Ctl's capacity.
func (s *Summary) Reset() {
	s.Mask = 0
	s.Ctl = s.Ctl[:0]
}

// AddCtl records a structure event at batch offset i.
func (s *Summary) AddCtl(i int) { s.Ctl = append(s.Ctl, int32(i)) }

// SkippableBy reports whether the worker for shard may skip the batch's
// interval events: its mask bit is clear, which proves no interval in the
// batch lies on one of its pages (see the type comment for why the fold to
// bit shard%64 preserves that proof).
func (s *Summary) SkippableBy(shard int) bool {
	return s.Mask&(1<<(uint(shard)&63)) == 0
}

// SpanMask returns the summary-mask contribution of one page-contained
// interval starting at addr, for an n-shard run: the bit of its page's
// shard.
func SpanMask(addr uint64, pageBits uint, shards int) uint64 {
	return 1 << (uint(PickShard(addr>>pageBits, shards)) & 63)
}
