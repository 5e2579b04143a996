// Canonical race recording. Every execution mode — inline, pipelined,
// sharded — funnels its race reports through a Collector, which keeps the
// MaxRacesRecorded smallest races under one total order and returns them
// sorted. The order is a property of the program, not of the engine's
// traversal: races are keyed first by the sequential rank of the later
// access's strand (the serial-execution moment the race becomes
// observable), then by the remaining fields as tie-breakers. Report.Races
// is therefore byte-identical across sync, async, and every shard count.

package stage

import "stint/internal/detect"

// keyedRace pairs a race with the sequential rank of its Cur strand. Ranks
// come from the engine's own SP-bags structure — the inline one, or a
// pipeline worker's private replay, which the root package's contract
// harness and TestWorkersReplayTheSameSPOrder pin to agree.
type keyedRace struct {
	seq int32
	r   detect.Race
}

// raceKeyLess is the canonical total order on race reports. Within one
// strand the read-phase checks run before the write-phase checks, so
// CurWrite=false sorts first; address, size, and the previous access break
// the remaining ties. Two reports with equal keys are identical races (a
// redundant-interval store can legitimately report the same pair twice).
func raceKeyLess(a, b keyedRace) bool {
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	if a.r.CurWrite != b.r.CurWrite {
		return !a.r.CurWrite
	}
	if a.r.Addr != b.r.Addr {
		return a.r.Addr < b.r.Addr
	}
	if a.r.Size != b.r.Size {
		return a.r.Size < b.r.Size
	}
	if a.r.PrevWrite != b.r.PrevWrite {
		return !a.r.PrevWrite
	}
	return a.r.Prev < b.r.Prev
}

// Collector keeps the max smallest-keyed races seen so far in a binary
// max-heap (h[0] holds the largest retained key), so a run reporting far
// more races than MaxRacesRecorded costs O(log max) per report and no
// allocation beyond the bounded heap. A Collector is single-owner; stages
// collect independently, and the producer Merges them once the graph has
// joined.
type Collector struct {
	max int
	h   []keyedRace
}

// NewCollector returns a Collector retaining at most max races.
func NewCollector(max int) *Collector {
	return &Collector{max: max}
}

// Add offers one race with the sequential rank of its later access. A full
// Collector rejects a later rank than any it keeps at once: an engine's
// ranks only rise, so after the budget fills that is nearly every race.
func (c *Collector) Add(seq int32, r detect.Race) {
	if len(c.h) == c.max && (c.max == 0 || seq > c.h[0].seq) {
		return
	}
	c.addKeyed(keyedRace{seq: seq, r: r})
}

func (c *Collector) addKeyed(kr keyedRace) {
	if len(c.h) < c.max {
		c.h = append(c.h, kr)
		c.siftUp(len(c.h) - 1)
		return
	}
	if c.max == 0 || !raceKeyLess(kr, c.h[0]) {
		return
	}
	c.h[0] = kr
	c.siftDown(0, len(c.h))
}

// Merge folds another collector's retained races into this one.
func (c *Collector) Merge(o *Collector) {
	for _, kr := range o.h {
		c.addKeyed(kr)
	}
}

func (c *Collector) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !raceKeyLess(c.h[p], c.h[i]) {
			return
		}
		c.h[p], c.h[i] = c.h[i], c.h[p]
		i = p
	}
}

// siftDown restores the max-heap property over h[:n] below index i.
func (c *Collector) siftDown(i, n int) {
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && raceKeyLess(c.h[big], c.h[l]) {
			big = l
		}
		if r < n && raceKeyLess(c.h[big], c.h[r]) {
			big = r
		}
		if big == i {
			return
		}
		c.h[i], c.h[big] = c.h[big], c.h[i]
		i = big
	}
}

// Sorted destructively extracts the retained races in ascending canonical
// order.
func (c *Collector) Sorted() []detect.Race {
	n := len(c.h)
	if n == 0 {
		return nil
	}
	// Heap-sort in place: repeatedly move the max to the tail.
	for end := n - 1; end > 0; end-- {
		c.h[0], c.h[end] = c.h[end], c.h[0]
		c.siftDown(0, end)
	}
	out := make([]detect.Race, n)
	for i, kr := range c.h {
		out[i] = kr.r
	}
	// Keep the backing array: a reused Collector re-heaps into the same
	// bounded allocation instead of growing the heap each run.
	c.h = c.h[:0]
	return out
}

// Reset empties the collector for another run, retaining the heap's backing
// array (bounded by max) so steady-state reuse allocates nothing.
func (c *Collector) Reset() {
	c.h = c.h[:0]
}
