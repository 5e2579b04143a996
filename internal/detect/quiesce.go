package detect

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrHistoryCap is the sentinel every history-cap error unwraps to; callers
// match it with errors.Is to distinguish a resource-bound abort from a
// detector failure.
var ErrHistoryCap = errors.New("detect: access history exceeded MaxHistoryBytes")

// HistoryCapError reports that an engine's retained access history crossed
// the configured cap. It wraps ErrHistoryCap. The overshoot is bounded by
// one strand's worth of history: the check runs at strand boundaries. An
// engine whose node pool might run out of 32-bit refs (4 GiB of nodes)
// reports it too, before the interval, with that space as Limit.
type HistoryCapError struct {
	Limit uint64 // the per-engine budget: Config.MaxHistoryBytes, or the pool's ref space
	Bytes uint64 // the footprint estimate that tripped it
}

func (e *HistoryCapError) Error() string {
	return fmt.Sprintf("detect: access history %d bytes exceeds its %d-byte budget (MaxHistoryBytes, or the node pool's ref space)", e.Bytes, e.Limit)
}

func (e *HistoryCapError) Unwrap() error { return ErrHistoryCap }

// samplePeak is a history's strand-boundary sample: live footprint b raises
// the high-water mark and, past a positive limit, trips the cap.
func samplePeak(st *Stats, b, limit uint64) error {
	if b > st.HistoryBytesPeak {
		st.HistoryBytesPeak = b
		if limit > 0 && b > limit {
			return &HistoryCapError{Limit: limit, Bytes: b}
		}
	}
	return nil
}

// quiesceSetCap bounds the registry. It is a power of two. 4096 pages cover
// 256 MiB of quiesced address space; a workload racing on more than that is
// beyond what the producer-side fast path needs to optimize, and a full set
// simply stops absorbing inserts (conservatively sound — pages not in the
// registry are still dropped engine-side).
const quiesceSetCap = 4096

// QuiesceSet is a fixed-capacity concurrent set of quiesced page indices.
// Engines (detector goroutines) Add; producer-side stages Contains. It is
// insert-only during a run — monotonicity is what makes producer-side drops
// sound: once a page is observed quiesced, every event the producer has yet
// to emit is later in the serial order than the quiesce point, so the
// owning engine would drop it anyway. Reset may only be called when no
// goroutine is concurrently using the set (between runs).
type QuiesceSet struct {
	slots [quiesceSetCap]atomic.Uint64 // page index + 1; 0 = empty
	n     atomic.Int64
}

// NewQuiesceSet returns an empty registry.
func NewQuiesceSet() *QuiesceSet { return &QuiesceSet{} }

// Add inserts the page index. When the set is full the insert is dropped —
// the engine-side quiesce check remains authoritative.
func (s *QuiesceSet) Add(page uint64) {
	if s.n.Load() >= quiesceSetCap/2 {
		return // keep probe chains short; past half full, stop absorbing
	}
	v := page + 1
	mask := uint64(quiesceSetCap - 1)
	for i := (page * 0x9E3779B97F4A7C15) >> (64 - 12); ; i = (i + 1) & mask {
		cur := s.slots[i].Load()
		if cur == v {
			return // already present
		}
		if cur == 0 {
			if s.slots[i].CompareAndSwap(0, v) {
				s.n.Add(1)
				return
			}
			if s.slots[i].Load() == v {
				return
			}
			// lost the race to a different key; keep probing
		}
	}
}

// Contains reports whether the page index has been Added. Lock-free; may
// miss an insert that is concurrently in flight, which is always safe (the
// caller falls back to emitting the event and the engine drops it).
func (s *QuiesceSet) Contains(page uint64) bool {
	if s.n.Load() == 0 {
		return false
	}
	v := page + 1
	mask := uint64(quiesceSetCap - 1)
	for i := (page * 0x9E3779B97F4A7C15) >> (64 - 12); ; i = (i + 1) & mask {
		cur := s.slots[i].Load()
		if cur == v {
			return true
		}
		if cur == 0 {
			return false
		}
	}
}

// Len returns the number of pages registered.
func (s *QuiesceSet) Len() int { return int(s.n.Load()) }

// Reset empties the set. Callers must guarantee no concurrent Add/Contains.
func (s *QuiesceSet) Reset() {
	if s.n.Load() == 0 {
		return
	}
	for i := range s.slots {
		s.slots[i].Store(0)
	}
	s.n.Store(0)
}
