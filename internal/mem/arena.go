// Package mem provides the virtual address space used by the race detector.
//
// The paper's detector shadows the real process address space at 4-byte-word
// granularity. This reproduction keeps the detector pure and deterministic by
// giving every instrumented buffer a range of *virtual* addresses from an
// Arena instead of taking addresses of Go objects. Workloads still compute on
// ordinary Go slices; the virtual addresses exist only so the access history
// sees the same interval structure the paper's instrumentation saw.
package mem

import "fmt"

// WordSize is the shadow-memory granularity in bytes. The paper tracks
// accesses per four-byte word; every address handed to the detector is
// word-aligned and every size is a whole number of words.
const WordSize = 4

// WordShift is log2(WordSize): addr >> WordShift is a word position.
const WordShift = 2

// Addr is a virtual byte address in an Arena.
type Addr = uint64

// SpanWraps reports whether the shadow words covering [addr, addr+size) run
// off the end of the address space. The bit hashmap rounds a span's end up
// to a word boundary, so the very last word is out of reach too: an access
// the detector cannot represent must be rejected, never silently dropped.
// (One comparison, because raw-address hooks and trace replay pay it per
// access; an empty span is judged like a one-byte one.)
func SpanWraps(addr Addr, size uint64) bool {
	return addr+size+WordSize-1 < addr
}

// Buffer is a contiguous virtual allocation. Element i of a buffer with
// elemWords words per element occupies words [i*elemWords, (i+1)*elemWords).
type Buffer struct {
	name      string
	base      Addr // byte address, word-aligned
	elems     int
	elemWords int
}

// Name returns the label the buffer was allocated under.
func (b *Buffer) Name() string { return b.name }

// Base returns the first byte address of the buffer.
func (b *Buffer) Base() Addr { return b.base }

// Len returns the number of elements in the buffer.
func (b *Buffer) Len() int { return b.elems }

// ElemBytes returns the size of one element in bytes.
func (b *Buffer) ElemBytes() int { return b.elemWords * WordSize }

// Bytes returns the total size of the buffer in bytes.
func (b *Buffer) Bytes() uint64 { return uint64(b.elems) * uint64(b.elemWords) * WordSize }

// Addr returns the byte address of element i. Its out-of-range panic value
// formats lazily (indexError), which keeps Addr inlinable into every hook.
func (b *Buffer) Addr(i int) Addr {
	if uint(i) >= uint(b.elems) {
		panic(indexError{b, i})
	}
	return b.base + uint64(i)*uint64(b.elemWords)*WordSize
}

type indexError struct {
	b *Buffer
	i int
}

func (e indexError) Error() string {
	return fmt.Sprintf("mem: element %d out of range [0,%d) in buffer %q", e.i, e.b.elems, e.b.name)
}

// Range returns the byte address of element i and the byte length of n
// consecutive elements starting there.
func (b *Buffer) Range(i, n int) (Addr, uint64) {
	if n < 0 || i < 0 || i+n > b.elems {
		panic(fmt.Sprintf("mem: range [%d,%d) out of bounds [0,%d) in buffer %q", i, i+n, b.elems, b.name))
	}
	return b.base + uint64(i)*uint64(b.elemWords)*WordSize, uint64(n) * uint64(b.elemWords) * WordSize
}

// Arena hands out non-overlapping virtual address ranges. Allocations are
// padded so distinct buffers never share a shadow page, mirroring how
// distinct heap allocations behave under the paper's two-level tables.
type Arena struct {
	next    Addr
	buffers []*Buffer
}

// arenaBase leaves the low address range unused so that address 0 never
// appears, which makes "zero means empty" encodings safe in the shadow
// structures.
const arenaBase Addr = 1 << 20

// pad aligns each allocation to a 4 KiB boundary.
const pad = 1 << 12

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{next: arenaBase}
}

// Alloc reserves a buffer of elems elements, each elemBytes bytes.
// elemBytes must be a positive multiple of WordSize.
func (a *Arena) Alloc(name string, elems, elemBytes int) *Buffer {
	if elems < 0 {
		panic(fmt.Sprintf("mem: negative element count %d for buffer %q", elems, name))
	}
	if elemBytes <= 0 || elemBytes%WordSize != 0 {
		panic(fmt.Sprintf("mem: element size %d is not a positive multiple of %d", elemBytes, WordSize))
	}
	b := &Buffer{
		name:      name,
		base:      a.next,
		elems:     elems,
		elemWords: elemBytes / WordSize,
	}
	size := b.Bytes()
	a.next += (size + pad - 1) / pad * pad
	if size == 0 {
		a.next += pad
	}
	a.buffers = append(a.buffers, b)
	return b
}

// AllocWords reserves a buffer of elems single-word (4-byte) elements.
func (a *Arena) AllocWords(name string, elems int) *Buffer {
	return a.Alloc(name, elems, WordSize)
}

// AllocFloat64 reserves a buffer of elems two-word (8-byte) elements, the
// footprint of a float64 array in the benchmarks.
func (a *Arena) AllocFloat64(name string, elems int) *Buffer {
	return a.Alloc(name, elems, 2*WordSize)
}

// Buffers returns all allocations in allocation order.
func (a *Arena) Buffers() []*Buffer { return a.buffers }

// Reset discards every allocation and rewinds the address space to its
// initial state: the next Alloc hands out the same addresses a fresh Arena
// would. Allocation is deterministic, so a caller replaying an identical
// Alloc sequence after Reset gets byte-identical buffers — the property
// that lets a reused Runner re-Setup a workload per run without growing
// its shadow footprint. Previously returned Buffers are invalidated; the
// caller must drop them along with whatever state referenced them
// (typically via Runner.Reset).
func (a *Arena) Reset() {
	a.next = arenaBase
	a.buffers = a.buffers[:0]
}

// Resolve maps a virtual address back to the buffer containing it and the
// element index within that buffer. It returns (nil, 0) for addresses
// outside every allocation (padding or unallocated space). Buffers are
// allocated at increasing addresses, so this is a binary search.
func (a *Arena) Resolve(addr Addr) (*Buffer, int) {
	lo, hi := 0, len(a.buffers)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.buffers[mid].base <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil, 0
	}
	b := a.buffers[lo-1]
	if addr >= b.base+b.Bytes() {
		return nil, 0
	}
	return b, int((addr - b.base) / (uint64(b.elemWords) * WordSize))
}

// Footprint returns the total number of bytes reserved (including padding).
func (a *Arena) Footprint() uint64 { return uint64(a.next - arenaBase) }
