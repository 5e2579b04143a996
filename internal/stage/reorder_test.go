package stage

import (
	"bytes"
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

// arrive returns a random arrival order of serial, a serial-order stream,
// that keeps each task's chunks in index order, as the executor sends
// them: one goroutine per task, down one channel.
func arrive(rng *rand.Rand, serial []evstream.Chunk) []evstream.Chunk {
	byTask := map[uint64][]evstream.Chunk{}
	for _, c := range serial {
		byTask[c.Task] = append(byTask[c.Task], c)
	}
	out := append([]evstream.Chunk(nil), serial...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i, c := range out {
		q := byTask[c.Task]
		out[i], byTask[c.Task] = q[0], q[1:]
	}
	return out
}

// TestReorderRandomArrival generates random programs, adds their chunks in
// random arrival order across tasks, draining Next after each, and asserts
// the returned sequence is exactly the serial order whatever the order.
func TestReorderRandomArrival(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := &chunkGen{rng: rng}
		g.task(0, 1+rng.Intn(4))
		serial := g.chunks

		arrival := arrive(rng, serial)

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
	// Duplicates and a task's chunks out of index order are caught while
	// the task has a chunk parked (an already-emitted key is forgotten —
	// tracking every emitted key would cost memory proportional to the
	// whole stream).
	r := NewReorder()
	r.Add(evstream.Chunk{Task: 1, Idx: 0})
	mustPanic(t, "duplicate (task, idx)", func() {
		r.Add(evstream.Chunk{Task: 1, Idx: 0})
	})
	r = NewReorder()
	r.Add(evstream.Chunk{Task: 1, Idx: 1})
	mustPanic(t, "a task's chunk before the one it follows", func() {
		r.Add(evstream.Chunk{Task: 1, Idx: 0})
	})
	r = NewReorder()
	r.Add(evstream.Chunk{Task: 1, Idx: 0})
	mustPanic(t, "a gap in a task's chunks", func() {
		r.Add(evstream.Chunk{Task: 1, Idx: 2})
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

// TestReorderParksBytesNotBatches: a chunk that arrives before its turn
// is parked as a copy of its frames — Add returns its batch for the caller
// to recycle, and Next hands back a view with the same events — while the
// chunk that is next, and a full one, keep their own batch. A view must
// never reach a pool.
func TestReorderParksBytesNotBatches(t *testing.T) {
	pool := evstream.NewBatchPool(1024, 16)
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := &chunkGen{rng: rng}
		g.task(0, 1+rng.Intn(4))
		want := map[chunkKey][]byte{}
		for i := range g.chunks {
			c := &g.chunks[i]
			if rng.Intn(4) == 0 {
				continue // a strand with no interval: no batch
			}
			b := pool.Get()
			n := 1 + rng.Intn(3)
			if rng.Intn(5) == 0 {
				n = 1 << 10 // until full: a mid-strand cut
			}
			for ; n > 0 && !b.Full(); n-- {
				b.AppendAccess(evstream.OpWrite, uint64(rng.Intn(1<<20)), 8)
			}
			c.Batch = b
			want[chunkKey{c.Task, c.Idx}] = append([]byte(nil), b.Buf...)
		}
		arrival := arrive(rng, g.chunks)
		r := NewReorder()
		for _, c := range arrival {
			next := chunkKey{c.Task, c.Idx} == r.need
			spent := r.Add(c)
			switch {
			case c.Batch == nil || next || c.Batch.Full():
				if spent != nil {
					t.Fatalf("seed %d: chunk (%d, %d) gave up a batch it keeps", seed, c.Task, c.Idx)
				}
			case spent != c.Batch:
				t.Fatalf("seed %d: parked chunk (%d, %d) kept its batch", seed, c.Task, c.Idx)
			default:
				spent.Reset() // recycled: a view that still read it would see nothing
			}
			for got, ok := r.Next(); ok; got, ok = r.Next() {
				k := chunkKey{got.Task, got.Idx}
				if (got.Batch == nil) != (want[k] == nil) || got.Batch != nil && !bytes.Equal(got.Batch.Buf, want[k]) {
					t.Fatalf("seed %d: chunk (%d, %d) came back with other events", seed, got.Task, got.Idx)
				}
				if got.Batch != nil && got.Batch.Parked() {
					mustPanic(t, "a parked view reached the pool", func() { pool.Put(got.Batch) })
				}
			}
		}
		if !r.Done() {
			t.Fatalf("seed %d: walk not done", seed)
		}
		r.Reset()
	}
}
