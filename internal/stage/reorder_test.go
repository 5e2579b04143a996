package stage

import (
	"math/rand"
	"testing"

	"stint/internal/evstream"
)

// chunkGen builds the serial-order chunk stream of a random fork-join
// program: a DFS emission over a random spawn tree, with random mid-strand
// cuts, matching exactly what the parallel executor would publish if it
// ran serially. The emitted slice IS the expected reorder output.
type chunkGen struct {
	chunks []evstream.Chunk
	next   uint64
	rng    *rand.Rand
}

func (g *chunkGen) add(task uint64, idx *uint32, end evstream.Op, child uint64) {
	g.chunks = append(g.chunks, evstream.Chunk{Task: task, Idx: *idx, End: end, Child: child})
	*idx++
}

func (g *chunkGen) task(id uint64, depth int) {
	var idx uint32
	spans := g.rng.Intn(3)
	for s := 0; s < spans; s++ {
		for g.rng.Intn(3) == 0 {
			g.add(id, &idx, 0, 0) // batch filled mid-strand
		}
		if depth > 0 {
			g.next++
			child := g.next
			g.add(id, &idx, evstream.OpSpawn, child)
			g.task(child, depth-1) // child subtree next in serial order
			if g.rng.Intn(2) == 0 {
				g.add(id, &idx, evstream.OpSync, 0)
			}
		}
	}
	g.add(id, &idx, evstream.OpRestore, 0)
}

// TestReorderRandomArrival generates random programs, adds their chunks in
// random arrival order, draining Next after each, and asserts the returned
// sequence is exactly the serial order regardless of the permutation.
func TestReorderRandomArrival(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := &chunkGen{rng: rng}
		g.task(0, 1+rng.Intn(4))
		serial := g.chunks

		arrival := make([]evstream.Chunk, len(serial))
		copy(arrival, serial)
		rng.Shuffle(len(arrival), func(i, j int) { arrival[i], arrival[j] = arrival[j], arrival[i] })

		r := NewReorder()
		var got []evstream.Chunk
		for _, c := range arrival {
			r.Add(c)
			for c, ok := r.Next(); ok; c, ok = r.Next() {
				got = append(got, c)
			}
		}
		if !r.Done() {
			t.Fatalf("seed %d: walk not done after all %d chunks added", seed, len(serial))
		}
		if r.Pending() != 0 {
			t.Fatalf("seed %d: %d chunks still pending after done", seed, r.Pending())
		}
		if len(got) != len(serial) {
			t.Fatalf("seed %d: emitted %d chunks, want %d", seed, len(got), len(serial))
		}
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("seed %d: position %d emitted (task %d, idx %d), want (task %d, idx %d)",
					seed, i, got[i].Task, got[i].Idx, serial[i].Task, serial[i].Idx)
			}
		}
		if r.Peak() < 1 || r.Peak() > len(serial) {
			t.Fatalf("seed %d: peak %d outside [1, %d]", seed, r.Peak(), len(serial))
		}
	}
}

// TestReorderSerialArrivalBuffersNothing checks the fast path: chunks
// arriving already in serial order are returned by the next Next, one held
// at a time, and Next reports false until the needed chunk arrives.
func TestReorderSerialArrivalBuffersNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := &chunkGen{rng: rng}
	g.task(0, 3)
	r := NewReorder()
	for i, c := range g.chunks {
		if _, ok := r.Next(); ok {
			t.Fatalf("chunk %d: Next returned a chunk before it arrived", i)
		}
		r.Add(c)
		if got, ok := r.Next(); !ok || got != c {
			t.Fatalf("chunk %d: Next = %+v, %v, want the chunk just added", i, got, ok)
		}
	}
	if !r.Done() {
		t.Fatal("walk not done after the root's final chunk")
	}
	if r.Peak() != 1 {
		t.Fatalf("serial arrival peaked at %d pending chunks, want 1", r.Peak())
	}
}

func mustPanic(t *testing.T, why string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic: %s", why)
		}
	}()
	fn()
}

// TestReorderProtocolViolations checks the walk rejects corrupt streams
// loudly instead of silently misordering events.
func TestReorderProtocolViolations(t *testing.T) {
	// Duplicates are caught while the first copy is still pending (an
	// already-emitted key is forgotten — tracking every emitted key would
	// cost memory proportional to the whole stream).
	r := NewReorder()
	r.Add(evstream.Chunk{Task: 1, Idx: 0})
	mustPanic(t, "duplicate (task, idx)", func() {
		r.Add(evstream.Chunk{Task: 1, Idx: 0})
	})

	r = NewReorder()
	r.Add(evstream.Chunk{Task: 0, Idx: 0, End: evstream.OpRestore})
	if _, ok := r.Next(); !ok || !r.Done() {
		t.Fatal("single root chunk did not complete the walk")
	}
	mustPanic(t, "add after done", func() {
		r.Add(evstream.Chunk{Task: 1, Idx: 0})
	})

	r = NewReorder()
	r.Add(evstream.Chunk{Task: 1, Idx: 0}) // pending forever
	r.Add(evstream.Chunk{Task: 0, Idx: 0, End: evstream.OpRestore})
	mustPanic(t, "root end with chunks pending", func() { r.Next() })

	r = NewReorder()
	r.Add(evstream.Chunk{Task: 0, Idx: 0, End: evstream.OpRead})
	mustPanic(t, "unknown End", func() { r.Next() })
}
