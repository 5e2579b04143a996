package trace

import (
	"bytes"
	"testing"

	"stint"
)

// FuzzReplay feeds arbitrary bytes to the replay parser: it must reject or
// process them without panicking, for any detector.
func FuzzReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(magic[:])
	f.Add(append(append([]byte{}, magic[:]...), opEnd))
	f.Add(append(append([]byte{}, magic[:]...), opSpawn, opRestore, opEnd))
	f.Add(append(append([]byte{}, magic[:]...), opRead, 0x10, 0x08, opEnd))
	// The depth bomb: one spawn past the nesting bound, never closed.
	f.Add(spawnNest(maxSpawnDepth+1, false))
	// Parallel stores running off the end of the address space.
	f.Add(wrapTrace(^stint.Addr(3), 8))
	// A valid recorded program as a seed.
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	r, _ := stint.NewRunner(stint.Options{Tracer: rec})
	data := r.Arena().AllocWords("d", 16)
	r.Run(func(t *stint.Task) {
		t.Spawn(func(c *stint.Task) { c.Store(data, 1) })
		t.Store(data, 1)
		t.Sync()
	})
	rec.Flush()
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, d := range []stint.Detector{stint.DetectorVanilla, stint.DetectorSTINT} {
			rep, err := Replay(bytes.NewReader(raw), Options{Detector: d})
			if err == nil && rep == nil {
				t.Fatal("nil report without error")
			}
			// An access event is at least three bytes and at most 2^54+1 words.
			if err == nil && len(raw) < 512 && rep.Stats.ReadAccesses+rep.Stats.WriteAccesses > uint64(len(raw))<<54 {
				t.Fatalf("%d trace bytes cannot carry %d+%d words", len(raw), rep.Stats.ReadAccesses, rep.Stats.WriteAccesses)
			}
		}
	})
}
