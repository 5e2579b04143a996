// Package cliutil holds what the stint command-line tools share: the
// detector flag set, declared once, and the output helpers that make the
// live-run and replay binaries describe pipeline behavior in the same words
// and the same arithmetic.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"time"

	"stint"
)

// DetectorFlags registers the detector flags every stint CLI takes —
// -detector, -async, -shards (which implies -async), -quiesce and
// -max-history — on fs and returns a function that, once fs is parsed,
// folds them into a stint.Options. An unknown -detector name is an error,
// returned with every other field still filled in (cmd/stint's own
// "-detector all" reads -async that way); combinations are validated by
// stint.NewRunner, which every caller hands the Options to.
func DetectorFlags(fs *flag.FlagSet) func() (stint.Options, error) {
	detector := fs.String("detector", "stint", "detector mode (off, reach, vanilla, compiler, comp+rts, stint)")
	async := fs.Bool("async", false, "pipeline detection: each strand is coalesced where the program (or the trace decoder) runs and its intervals stream to detector workers, overlapping compute with the access history (comp+rts or stint only)")
	shards := fs.Int("shards", 0, "partition pipelined detection across N workers by shadow page (implies -async; comp+rts or stint only)")
	quiesce := fs.Int("quiesce", 0, "retire a 64 KiB shadow page's access history once it has produced N races (0 disables)")
	maxHistory := fs.Int64("max-history", 0, "abort the run with an error when the retained access history exceeds N bytes (0 = unlimited)")
	return func() (stint.Options, error) {
		mode, err := stint.ParseDetector(*detector)
		return stint.Options{
			Detector:             mode,
			Async:                *async || *shards > 0,
			DetectShards:         *shards,
			PageQuiesceThreshold: *quiesce,
			MaxHistoryBytes:      *maxHistory,
		}, err
	}
}

// pct formats part as a percentage of whole, guarding division by zero.
func pct(part, whole time.Duration) string {
	if whole <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(whole))
}

// StageBusy decomposes a pipelined run's detector-side busy time: the
// summed detection work across the workers and the busiest single worker —
// the detection side's critical path once cores are available. ok is false
// for synchronous runs (no pipeline, no workers); a plain async run has one
// worker, which is both the sum and the maximum.
func StageBusy(rep *stint.Report) (workers, maxWorker time.Duration, ok bool) {
	for _, l := range rep.ShardLoad {
		workers += l.Busy
		maxWorker = max(maxWorker, l.Busy)
	}
	return workers, maxWorker, len(rep.ShardLoad) > 0
}

// PipelineReport renders a pipelined run's utilization readout: the event
// stream, under ParallelDetect the executor/merge split, and the workers'
// busy time against the run's wall time with each worker's load. It returns
// nil for synchronous runs (no pipeline, nothing to report).
//
// On a single core the pipeline cannot beat the synchronous run — the busy
// figures then say how much detection work would overlap with compute once
// cores are available, which is why the lines spell out the "max of any
// side" floor instead of promising a speedup.
func PipelineReport(rep *stint.Report) []string {
	workers, _, ok := StageBusy(rep)
	if !ok {
		return nil
	}
	var lines []string
	if st := rep.Stats; st.EventsStreamed > 0 {
		lines = append(lines, fmt.Sprintf(
			"event stream: %d events in %d bytes (%.2f B/event)",
			st.EventsStreamed, st.StreamBytes,
			float64(st.StreamBytes)/float64(st.EventsStreamed)))
	}
	if rep.ExecutorBusy > 0 {
		// Parallel-detect run: the mutator itself ran on many goroutines.
		// SequencerBusy is the deterministic merge; the reorder peak says
		// how much scheduling skew it had to buffer.
		lines = append(lines, fmt.Sprintf(
			"parallel executors busy %v of %v wall (%s; merge stage busy %v, reorder peak %d chunks)",
			rep.ExecutorBusy.Round(time.Microsecond),
			rep.WallTime.Round(time.Microsecond),
			pct(rep.ExecutorBusy, rep.WallTime),
			rep.SequencerBusy.Round(time.Microsecond),
			rep.ReorderPeak))
	}
	lines = append(lines, fmt.Sprintf(
		"detection: %d workers busy %v total of %v wall (%s; multi-core floor is max of any side)",
		len(rep.ShardLoad),
		workers.Round(time.Microsecond),
		rep.WallTime.Round(time.Microsecond),
		pct(workers, rep.WallTime)))
	minW, maxW := rep.ShardLoad[0].RingWaits, rep.ShardLoad[0].RingWaits
	for i, l := range rep.ShardLoad {
		line := fmt.Sprintf("  shard %d busy %v (%s of detect work), scanned %d batches, %d ring waits",
			i, l.Busy.Round(time.Microsecond), pct(l.Busy, workers),
			l.BatchesScanned, l.RingWaits)
		if l.BlocksDecoded > 0 {
			// Events per DecodeBlock call (at most 64; a call never
			// crosses a batch, so a low figure means short batches), and
			// the decode share: how much of the worker's busy time went
			// to the wire format rather than page filtering and detection.
			line += fmt.Sprintf(", %.1f ev/blk (decode %s of busy)",
				float64(l.EventsScanned)/float64(l.BlocksDecoded),
				pct(l.DecodeBusy, l.Busy))
		}
		lines = append(lines, line)
		minW, maxW = min(minW, l.RingWaits), max(maxW, l.RingWaits)
	}
	// Wait attribution: per-consumer waits distinguish a uniformly starved
	// fleet (the stage feeding the workers is the bottleneck) from one
	// straggler pacing everyone (the low-wait outlier never waits — its full
	// channel makes the others wait on it).
	return append(lines, fmt.Sprintf(
		"  ring waits per worker: max %d, min %d (uniform waits = the producer is the bottleneck; a low-wait outlier is the straggler)",
		maxW, minW))
}

// PrintReport writes the readout cmd/stint and cmd/stint-replay share for
// one detection run: counters, the pipeline's utilization, retained history
// and the recorded races, each through race. detail adds the engine-study
// lines cmd/stint prints (hook calls, interval sizes, hash and treap ops,
// heap allocations); stint-replay keeps the short form, whose race lines
// scripts/serve_smoke.sh diffs against the service.
func PrintReport(w io.Writer, rep *stint.Report, opts stint.Options, detail bool, race func(stint.Race) string) {
	st := &rep.Stats
	fmt.Fprintf(w, "strands    %d\n", rep.Strands)
	if detail {
		fmt.Fprintf(w, "accesses   read %d  write %d (4-byte words)\n", st.ReadAccesses, st.WriteAccesses)
		fmt.Fprintf(w, "hook calls read %d  write %d\n", st.ReadHookCalls, st.WriteHookCalls)
	} else {
		fmt.Fprintf(w, "accesses   read %d  write %d\n", st.ReadAccesses, st.WriteAccesses)
	}
	if st.ReadIntervals+st.WriteIntervals > 0 {
		if detail {
			fmt.Fprintf(w, "intervals  read %d (%.1f B avg)  write %d (%.1f B avg)\n",
				st.ReadIntervals, avg(st.ReadIntervalBytes, st.ReadIntervals),
				st.WriteIntervals, avg(st.WriteIntervalBytes, st.WriteIntervals))
		} else {
			fmt.Fprintf(w, "intervals  read %d  write %d\n", st.ReadIntervals, st.WriteIntervals)
		}
	}
	if detail && st.HashOps > 0 {
		fmt.Fprintf(w, "hash ops   %d\n", st.HashOps)
	}
	if detail && st.TreapOps > 0 {
		fmt.Fprintf(w, "treap ops  %d  (%.2f nodes, %.2f overlaps per op)\n", st.TreapOps,
			avg(st.TreapNodesVisited, st.TreapOps), avg(st.TreapOverlaps, st.TreapOps))
	}
	if opts.TimeAccessHistory {
		fmt.Fprintf(w, "access-history time %v\n", st.AccessHistoryTime.Round(time.Microsecond))
	}
	for _, line := range PipelineReport(rep) {
		fmt.Fprintln(w, line)
	}
	if st.HistoryBytesPeak > 0 {
		fmt.Fprintf(w, "history    %.1f KiB peak retained\n", float64(st.HistoryBytesPeak)/1024)
	}
	if q := opts.PageQuiesceThreshold; q > 0 {
		fmt.Fprintf(w, "quiesced   %d pages (threshold %d races/page)\n", st.PagesQuiesced, q)
	}
	if detail {
		fmt.Fprintf(w, "heap allocs %d objects, %.1f KiB during the run\n",
			st.AllocObjects, float64(st.AllocBytes)/1024)
	}
	if !rep.Racy() {
		fmt.Fprintln(w, "no races found")
		return
	}
	fmt.Fprintf(w, "RACES: %d found\n", rep.RaceCount)
	for _, rc := range rep.Races {
		fmt.Fprintf(w, "  %s\n", race(rc))
	}
}

func avg(total, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}
