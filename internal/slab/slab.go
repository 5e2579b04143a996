// Package slab is the one carve-and-rewind allocator of the runtime's
// bookkeeping: SP-bags' strand and task records (internal/spord), and the
// parallel merge's parked-chunk records and per-task queues
// (internal/stage). Values are carved out of fixed-size chunks instead of
// one heap object each, stay valid until Reset, and Reset rewinds the
// cursor over chunks it keeps, so a reused structure allocates nothing in
// steady state.
package slab

// chunkLen is how many values one chunk holds.
const chunkLen = 256

// Slab hands out zero values of T. The zero value is an empty Slab.
type Slab[T any] struct {
	chunks [][]T // every chunk kept, each chunkLen long
	n      int   // values carved since the last Reset
	peak   int   // chunks carved into since the last Trim
}

// New returns a pointer to a zero T, stable until Reset.
func (s *Slab[T]) New() *T {
	c := s.n / chunkLen
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, chunkLen))
	}
	v := &s.chunks[c][s.n%chunkLen]
	s.n++
	return v
}

// At returns a pointer to the i-th value, stable until Reset, carving it
// and every value before it: a slab addressed by index.
func (s *Slab[T]) At(i int) *T {
	for i/chunkLen >= len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, chunkLen))
	}
	s.n = max(s.n, i+1)
	return &s.chunks[i/chunkLen][i%chunkLen]
}

// Get returns the i-th value if a chunk holds it, else nil. It carves
// nothing, so a value not carved since Reset reads zero.
func (s *Slab[T]) Get(i int) *T {
	if c := i / chunkLen; c < len(s.chunks) {
		return &s.chunks[c][i%chunkLen]
	}
	return nil
}

// Reset recycles every value New or At has returned: it zeroes only what
// was carved and keeps the chunks. The caller must hold no pointer from
// before.
func (s *Slab[T]) Reset() {
	s.peak = max(s.peak, (s.n+chunkLen-1)/chunkLen)
	for c := 0; s.n > 0; c++ {
		k := min(s.n, chunkLen)
		clear(s.chunks[c][:k])
		s.n -= k
	}
}

// Trim is Reset with the retention rule: it keeps the chunks carved into
// since the last Trim, and once it holds more than twice that many, gives
// the rest to the garbage collector. So a one-off large run is not held
// past the next Trim, and runs of varying size below twice the last one's
// carve without allocating.
func (s *Slab[T]) Trim() {
	s.Reset()
	if len(s.chunks) > 2*s.peak {
		clear(s.chunks[s.peak:])
		s.chunks = s.chunks[:s.peak]
	}
	s.peak = 0
}

// Cap returns how many values the kept chunks hold.
func (s *Slab[T]) Cap() int { return len(s.chunks) * chunkLen }
