package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/iotest"

	"stint"
)

// FuzzReplay feeds arbitrary bytes to the replay parser: it must reject or
// process them without panicking, for any detector, and identically whether
// src hands the decoder's window its bytes all at once or one per Read.
func FuzzReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(magic[:])
	f.Add(append(append([]byte{}, magic[:]...), opEnd))
	f.Add(append(append([]byte{}, magic[:]...), opSpawn, opRestore, opEnd))
	f.Add(append(append([]byte{}, magic[:]...), opRead, 0x10, 0x08, opEnd))
	// The depth bomb: one spawn past the nesting bound, never closed.
	f.Add(spawnNest(maxSpawnDepth+1, false))
	// Parallel stores running off the end of the address space, met by the
	// switch and by the decode step.
	f.Add(wrapTrace(^stint.Addr(3), 8, 0, false))
	f.Add(wrapTrace(^stint.Addr(3), 8, 0, true))
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
	// A valid prefix followed by garbage: a one-byte form, a two-byte form
	// and an unknown opcode.
	f.Add(append(append([]byte{}, buf.Bytes()[:len(buf.Bytes())-1]...), 0xff, 0x55, 0x80, 0x60))
	// An address operand overflowing 64 bits.
	f.Add(readEvents(append(bytes.Repeat([]byte{0xff}, 10), 0x01, 0x04)))
	// A trace cut mid-varint just past 64 KiB: eight-byte reads alternating
	// between two addresses 2^40 bytes apart, shifted so the address operand
	// at [65532, 65538) straddles the window's edge.
	long := append(append([]byte{}, magic[:]...), opRead, 0x08, 0x04)
	for i := 0; len(long) < windowBytes+8; i++ {
		zz := uint64(1) << 41 // +2^40, zig-zagged
		if i&1 == 1 {
			zz-- // -2^40
		}
		long = append(binary.AppendUvarint(append(long, opRead), zz), 0x04)
	}
	f.Add(long[:windowBytes+1])
	// Reads and ranges whose operands are all two bytes but one elem, cut by
	// the window's edge inside the range address operand at [65535, 65537):
	// the decode step must not read past a truncated window.
	two := append(append([]byte{}, magic[:]...), opRead, 0x08, 0x04)
	for len(two) < windowBytes {
		two = append(two,
			opRead, 0x82, 0x01, 0x80, 0x01, // +65, 128 bytes
			opReadRange, 0x81, 0x01, 0x80, 0x01, 0x01, // -65, 128 × 1 byte
			opWriteRange, 0x82, 0x01, 0x01, 0x80, 0x01) // +65, 1 × 128 bytes
	}
	f.Add(two[:windowBytes])
	// A short form as the first access, of the predicted size 0, in each form.
	f.Add(append(append([]byte{}, magic[:]...), opShort1, opShort2+1<<5, 0x05, opEnd))
	// A one-byte store one word past a read at ^7, wrapping the address
	// space, with a window's event's worth behind it for the decode step.
	f.Add(append(append([]byte{}, magic[:]...), append([]byte{opRead, 0x0F, 0x04, opShort1 | 1<<6 | 1},
		bytes.Repeat([]byte{opEnd}, maxEventBytes)...)...))
	// Two-byte reads 300 words up and down after a five-byte read at 2^16, so
	// one's tag sits at offset 65 535 and its second byte past the window's
	// edge: whole, and cut between the two.
	alt := append(append([]byte{}, magic[:]...), opRead, 0x80, 0x80, 0x08, 0x04)
	for len(alt) < windowBytes+8 {
		alt = append(alt, opShort2+0x1, 0x2C, opShort2+0xE, 0xD4) // +0x12C, -0x12C words
	}
	f.Add(append(alt, opEnd))
	f.Add(alt[:windowBytes])
	// A short form right after a range event, and one right after a size
	// change.
	f.Add(append(append([]byte{}, magic[:]...), opRead, 0x08, 0x04, opReadRange, 0x20, 0x04, 0x04, opShort1|1<<6|1, opEnd))
	f.Add(append(append([]byte{}, magic[:]...), opRead, 0x08, 0x04, opWrite, 0x02, 0x08, opShort1|1<<5, opEnd))

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Every input first replays with detection off, through a Tracer
		// counting the bytes its accesses span.
		var spans [2]spanTracer
		off := func(i int) Options {
			spans[i].left = maxFuzzSpan
			r, err := stint.NewRunner(stint.Options{Tracer: &spans[i]})
			if err != nil {
				t.Fatal(err)
			}
			return Options{Runner: r}
		}
		replayBoth(t, raw, off(0), off(1))
		if spans[0] != spans[1] {
			t.Fatalf("one byte per Read leaves %d span bytes of %d, all at once %d", spans[1].left, maxFuzzSpan, spans[0].left)
		}
		// One access event may name 2^56 bytes, and every engine materializes
		// the span it is handed (bitmap pages, shadow cells): the detectors
		// replay only inputs they can hold in memory.
		if spans[0].left == 0 {
			return
		}
		for _, d := range []stint.Detector{stint.DetectorVanilla, stint.DetectorSTINT} {
			rep, err := replayBoth(t, raw, Options{Detector: d}, Options{Detector: d})
			// An access event is at least one byte, after the eight of the
			// header, and at most 2^54+1 words.
			if err == nil && len(raw) < 512 && rep.Stats.ReadAccesses+rep.Stats.WriteAccesses > uint64(len(raw))<<54 {
				t.Fatalf("%d trace bytes cannot carry %d+%d words", len(raw), rep.Stats.ReadAccesses, rep.Stats.WriteAccesses)
			}
		}
	})
}

// maxFuzzSpan bounds the bytes an input's accesses may span before
// FuzzReplay keeps it from the detectors. Vanilla's shadow costs about two
// bytes per byte spanned, so one input under the bound needs up to 2 GiB;
// one far over it runs the process out of memory, a fatal error.
const maxFuzzSpan = 1 << 30

// replayBoth replays raw all at once under all and one byte per Read under
// one, and requires the same report or the same error text from both.
func replayBoth(t *testing.T, raw []byte, all, one Options) (*stint.Report, error) {
	t.Helper()
	rep, err := Replay(bytes.NewReader(raw), all)
	if err == nil && rep == nil {
		t.Fatal("nil report without error")
	}
	oneRep, oneErr := Replay(iotest.OneByteReader(bytes.NewReader(raw)), one)
	if (err == nil) != (oneErr == nil) || err != nil && err.Error() != oneErr.Error() ||
		err == nil && !sameReport(rep, oneRep) {
		t.Fatalf("%v: one byte per Read diverges: %v, %v; all at once: %v, %v", all.Detector, oneRep, oneErr, rep, err)
	}
	return rep, err
}

// spanTracer counts down the bytes a replay's access events span.
type spanTracer struct{ left uint64 }

func (s *spanTracer) Spawn()                                      {}
func (s *spanTracer) Restore()                                    {}
func (s *spanTracer) Sync()                                       {}
func (s *spanTracer) Read(_ stint.Addr, size uint64)              { s.take(size) }
func (s *spanTracer) Write(_ stint.Addr, size uint64)             { s.take(size) }
func (s *spanTracer) ReadRange(_ stint.Addr, n int, elem uint64)  { s.take(uint64(n) * elem) }
func (s *spanTracer) WriteRange(_ stint.Addr, n int, elem uint64) { s.take(uint64(n) * elem) }
func (s *spanTracer) take(n uint64)                               { s.left -= min(n, s.left) }
