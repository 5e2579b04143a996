package stint

import (
	"fmt"
	"reflect"
	"testing"
)

// fuzzWideElems sizes the fuzz-only "wide" buffer: 128 KiB of words, so it
// straddles at least one 64 KiB shadow-page boundary and range accesses on
// it exercise the flush's split at page boundaries and the workers' shard
// filtering.
const fuzzWideElems = 32768

// fuzzAllocBufs allocates the equivalence suite's buffers plus the wide
// one. Only the fuzzer uses the wide buffer — the oracle-backed tests keep
// the small set so brute-force stays cheap.
func fuzzAllocBufs(r *Runner) ([]*Buffer, []int) {
	bufs, sizes := allocBufs(r)
	bufs = append(bufs, r.Arena().Alloc("wide", fuzzWideElems, 4))
	sizes = append(sizes, fuzzWideElems)
	return bufs, sizes
}

// FuzzAsyncAgainstSync decodes arbitrary bytes into a fork-join program
// and pipeline geometry — batch capacity, ring depth, a detection shard
// count, and a flags byte adding the ParallelDetect legs — runs it once
// synchronously, once through the plain async pipeline, (when the shard
// byte asks for two or more workers) once sharded, and (when the flags byte asks for it)
// once under ParallelDetect, and requires identical racing-word sets,
// canonical race reports, strand counts, and (timing-normalized) stats. A
// further flags bit re-runs the mode matrix with per-page quiescing enabled
// and requires the quiesced reports to agree across modes too. Tiny batch
// capacities and ring depths force the batch-boundary edge cases: a
// strand's flush split across batches, empty final batches, backpressure
// stalls, and drain while a strand's accesses are still in its bit
// hashmaps. Shard counts above one additionally force page-hash filtering
// and cross-worker merge.
func FuzzAsyncAgainstSync(f *testing.F) {
	f.Add([]byte{})
	// Geometry 1x1 (max handoffs), unsharded, racy spawn/store/store/sync.
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x05, 0x01, 0x04, 0x00, 0x05, 0x02})
	// Range accesses split across 2-event batches, 2 shards.
	f.Add([]byte{0x01, 0x01, 0x02, 0x00, 0x00, 0x05, 0x01, 0x00, 0x00, 0x00, 0x20, 0x01, 0x06, 0x01, 0x00, 0x10, 0x00, 0x30, 0x02})
	// Drain mid-strand: spawn body never terminated, accesses buffered at
	// stream end.
	f.Add([]byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x04, 0x02, 0x07, 0x03, 0x00, 0x01})
	// Deep nesting with interleaved syncs.
	f.Add([]byte{0x03, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x01, 0x02, 0x01, 0x02, 0x01, 0x04, 0x02, 0x08, 0x02})
	// Cross-shard racy pair: two strands write the same 128 KiB span of the
	// wide buffer, so the racing pieces land on different shards.
	f.Add([]byte{0x01, 0x01, 0x02, 0x00, 0x00, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x01, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x02})
	// One page-straddling access: a 16-byte range write at wide index 13310
	// crosses the 64 KiB boundary at index 13312, so the flush emits one
	// interval per page, each worker keeps only its own, and the single hook
	// call is counted once, on the mutator side. Two parallel strands write
	// the same straddling range, so the race itself spans the boundary too.
	f.Add([]byte{0x01, 0x01, 0x02, 0x00, 0x00, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x01, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x02})
	// All-events-one-page skew: 4 shards but every access on one page, so a
	// single worker carries the whole load and the others skip-scan off the
	// batch summaries.
	f.Add([]byte{0x00, 0x00, 0x04, 0x00, 0x00, 0x04, 0x00, 0x05, 0x01, 0x04, 0x00, 0x05, 0x02})
	// Wide spans: the two racing range writes cover the full 128 KiB wide
	// buffer (3 pages), so each flushes one interval per page and the batch
	// mask is the union of their shards' bits — a worker scans exactly the
	// batches that carry one of its pages.
	f.Add([]byte{0x01, 0x01, 0x04, 0x00, 0x00, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x01, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x02})
	// Parallel-detect (flags bit 3) over the cross-shard racy pair: the two
	// racing strands execute on distinct goroutines and their chunks reach
	// the merge in scheduler order, yet the race must land on both shards'
	// reports exactly as in sync.
	f.Add([]byte{0x01, 0x01, 0x02, 0x08, 0x00, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x01, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x02})
	// Parallel-detect on a degenerate single-strand program: no spawns, so
	// the whole stream is the root task's chunks — the reorder walk never
	// buffers and the merge must still synthesize an identical report.
	f.Add([]byte{0x00, 0x00, 0x01, 0x08, 0x00, 0x03, 0x00, 0x05, 0x04, 0x00, 0x06, 0x05, 0x00, 0x07})
	// Quiescing mid-batch (flags bit 4): the page-straddling racy range pair
	// again, now with a threshold-2 quiesce differential — the page under the
	// straddle retires while the range's other interval is still live, and
	// the sharded workers must agree with sync on which interval died.
	f.Add([]byte{0x01, 0x01, 0x02, 0x10, 0x00, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x01, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x02})
	// The same under ParallelDetect too (bits 3+4), and with repeated racy
	// pairs so the threshold actually trips.
	f.Add([]byte{0x01, 0x01, 0x02, 0x18, 0x00, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x01, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x01, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x01, 0x06, 0x03, 0x33, 0xfe, 0x00, 0x03, 0x02})
	// Cross-shard racy pair with quiescing: the racing span covers two full
	// pages, so both pages accumulate races and retire on different workers.
	f.Add([]byte{0x01, 0x01, 0x02, 0x10, 0x00, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x01, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x01, 0x06, 0x03, 0x00, 0x00, 0x7f, 0xff, 0x02})
	// Merge-boundary straddle: one-event batches force every access into
	// its own chunk, and a spawn-heavy body with nested children makes the
	// chunk cuts land on every structure boundary — the deterministic merge
	// must re-interleave the per-task chunk streams exactly.
	f.Add([]byte{0x00, 0x00, 0x02, 0x08, 0x00, 0x04, 0x00, 0x00, 0x04, 0x00, 0x05, 0x01, 0x01, 0x02, 0x04, 0x00, 0x05, 0x02, 0x01, 0x02})
	// Mid-flush batch boundary, serial: one-event batches, and every strand
	// flushes two read and two write intervals, so the producer publishes
	// between two intervals of one strand and the strand's structure event
	// lands in yet another batch.
	f.Add([]byte{0x00, 0x01, 0x02, 0x00, 0x00, 0x04, 0x01, 0x00, 0x04, 0x01, 0x08, 0x03, 0x01, 0x10, 0x03, 0x01, 0x04, 0x01, 0x04, 0x01, 0x08, 0x04, 0x01, 0x14, 0x03, 0x01, 0x00, 0x03, 0x01, 0x20, 0x02})
	// The same under ParallelDetect at batch capacity 2: each task's flush
	// is cut into ChunkCut chunks mid-strand, and the merge must splice them
	// back ahead of the strand's terminator.
	f.Add([]byte{0x01, 0x01, 0x02, 0x08, 0x00, 0x04, 0x01, 0x00, 0x04, 0x01, 0x08, 0x03, 0x01, 0x10, 0x03, 0x01, 0x04, 0x01, 0x04, 0x01, 0x08, 0x04, 0x01, 0x14, 0x03, 0x01, 0x00, 0x03, 0x01, 0x20, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return // keep individual executions fast
		}
		prog, batchEvents, ringDepth, shards, parallel, quiesce := decodeFuzzProgram(data)
		defer logProgramOnFailure(t, prog)

		// run executes the program under the mode fields of mode (the zero
		// Options is the synchronous run) at the given PageQuiesceThreshold
		// and returns the report and the racing-word set.
		run := func(mode Options, qthresh int) (*Report, map[Addr]bool) {
			words := make(map[Addr]bool)
			opts := pipeMode{Opts: mode}.With(Options{
				Detector:             DetectorSTINT,
				PageQuiesceThreshold: qthresh,
				OnRace: func(rc Race) {
					for a := rc.Addr &^ 3; a < rc.Addr+rc.Size; a += 4 {
						words[a] = true
					}
				},
			})
			r, err := NewRunner(opts)
			if err != nil {
				t.Fatal(err)
			}
			r.asyncBatchEvents, r.asyncRingDepth = batchEvents, ringDepth
			bufs, _ := fuzzAllocBufs(r)
			rep, err := r.Run(func(task *Task) { runActs(task, bufs, prog) })
			if err != nil {
				t.Fatal(err)
			}
			return rep, words
		}
		// matrix holds every pipelined mode the input selects to the
		// synchronous run at the same quiesce threshold.
		matrix := func(qthresh int) {
			sync, syncWords := run(Options{}, qthresh)
			check := func(name string, mode Options) {
				got, words := run(mode, qthresh)
				assertSameReport(t, fmt.Sprintf("%s (batch=%d depth=%d shards=%d quiesce=%d)",
					name, batchEvents, ringDepth, shards, qthresh), got, sync)
				if !reflect.DeepEqual(words, syncWords) {
					t.Fatalf("racing words diverge (%s, quiesce=%d): %d vs sync %d",
						name, qthresh, len(words), len(syncWords))
				}
			}
			check("async", Options{Async: true})
			if shards > 1 { // one shard is the async leg
				check("sharded", Options{Async: true, DetectShards: shards})
			}
			if parallel {
				// ParallelDetect executes the same program on real goroutines;
				// the deterministic merge reconstructs the serial stream, so the
				// normalized result must still match sync byte for byte.
				check("parallel-detect", Options{ParallelDetect: true, DetectShards: shards})
			}
		}
		matrix(0)
		if quiesce {
			// Quiescing differential: with a threshold of 2, pages retire
			// their history mid-run — possibly mid-batch, possibly under a
			// page-straddling range. The quiesce decision is page-local and
			// taken at a deterministic point in the serial order, so the
			// whole normalized result (pages quiesced included) must again be
			// identical across every mode.
			matrix(2)
		}
	})
}

// decodeFuzzProgram turns raw bytes into (program, batchEvents, ringDepth,
// shards, parallel, quiesce). The first four bytes pick a tiny pipeline
// geometry — shards of zero or one means "compare the plain async pipeline
// only", the one-worker case; the flags byte adds the ParallelDetect legs
// (bit 3) and the per-page quiescing differential legs (bit 4,
// PageQuiesceThreshold 2 on every mode) — and the rest is a byte-code for
// act programs. Flags bits 0-2 once selected pipeline knobs that no longer
// exist; they are ignored rather than reassigned so every checked-in corpus
// input still decodes to the program it was saved for.
// Every input decodes to a valid program — the fuzzer explores program
// shapes, not parser rejections.
func decodeFuzzProgram(data []byte) (prog []act, batchEvents, ringDepth, shards int, parallel, quiesce bool) {
	batchEvents, ringDepth = 1, 1
	if len(data) > 0 {
		batchEvents = int(data[0]%16) + 1
		data = data[1:]
	}
	if len(data) > 0 {
		ringDepth = int(data[0]%4) + 1
		data = data[1:]
	}
	if len(data) > 0 {
		shards = int(data[0] % 5)
		data = data[1:]
	}
	if len(data) > 0 {
		parallel = data[0]&8 != 0
		quiesce = data[0]&16 != 0
		data = data[1:]
	}
	pos := 0
	next := func() (byte, bool) {
		if pos >= len(data) {
			return 0, false
		}
		b := data[pos]
		pos++
		return b, true
	}
	// sizes must match fuzzAllocBufs: the equivalence suite's buffers plus
	// the multi-page wide buffer. Range acts use 16-bit index and count so
	// they can reach — and straddle — the wide buffer's page boundaries.
	sizes := make([]int, len(bufSpecs), len(bufSpecs)+1)
	for i, s := range bufSpecs {
		sizes[i] = s.elems
	}
	sizes = append(sizes, fuzzWideElems)
	var parse func(depth int) []act
	parse = func(depth int) []act {
		var acts []act
		for len(acts) < 64 {
			b, ok := next()
			if !ok {
				return acts // unterminated bodies auto-close: drain mid-strand
			}
			switch b % 8 {
			case 0: // spawn with nested body
				if depth >= 6 {
					continue
				}
				acts = append(acts, act{kind: 'S', body: parse(depth + 1)})
			case 1: // end of this body
				return acts
			case 2: // sync
				acts = append(acts, act{kind: 'Y'})
			case 3, 4: // word load/store
				bi, _ := next()
				ii, _ := next()
				buf := int(bi) % len(sizes)
				acts = append(acts, act{
					kind: map[byte]byte{3: 'l', 4: 's'}[b%8],
					buf:  buf, idx: int(ii) % sizes[buf],
				})
			case 5, 6: // range load/store (16-bit index and count)
				bi, _ := next()
				i1, _ := next()
				i2, _ := next()
				n1, _ := next()
				n2, _ := next()
				buf := int(bi) % len(sizes)
				idx := (int(i1)<<8 | int(i2)) % sizes[buf]
				acts = append(acts, act{
					kind: map[byte]byte{5: 'L', 6: 'W'}[b%8],
					buf:  buf, idx: idx, n: (int(n1)<<8|int(n2))%(sizes[buf]-idx) + 1,
				})
			case 7: // no-op (reserved)
			}
		}
		return acts
	}
	return parse(0), batchEvents, ringDepth, shards, parallel, quiesce
}
