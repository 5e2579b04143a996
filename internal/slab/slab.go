// Package slab is the one carve-and-rewind allocator of the runtime's
// bookkeeping: the order-maintenance lists' nodes and groups
// (internal/om) and SP-Order's strand records (internal/spord). Values are
// carved in order out of fixed-size chunks instead of one heap object
// each, stay valid until Reset, and Reset rewinds the cursor over chunks it
// keeps, so a reused structure allocates nothing in steady state.
package slab

// chunkLen is how many values one chunk holds.
const chunkLen = 256

// Slab hands out zero values of T. The zero value is an empty Slab.
type Slab[T any] struct {
	chunks [][]T // every chunk ever made, each chunkLen long
	n      int   // values carved since the last Reset
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

// Reset recycles every value New has returned: it zeroes only what was
// carved and keeps the chunks. The caller must hold no pointer from before.
func (s *Slab[T]) Reset() {
	for c := 0; s.n > 0; c++ {
		k := min(s.n, chunkLen)
		clear(s.chunks[c][:k])
		s.n -= k
	}
}
