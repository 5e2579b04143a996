// Package cliutil holds output helpers shared by the stint command-line
// tools, so the live-run and replay binaries describe pipeline behavior in
// the same words and the same arithmetic.
package cliutil

import (
	"fmt"
	"time"

	"stint"
	"stint/internal/serve"
)

// pct formats part as a percentage of whole, guarding division by zero.
func pct(part, whole time.Duration) string {
	if whole <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(whole))
}

// StageBusy decomposes a pipelined run's busy time by stage: the label
// stage (which only consumes structure events and stamps batches with
// reachability labels), the summed detection work across workers, and the
// busiest single worker — the detection side's critical path once cores
// are available. ok is false for synchronous runs (no pipeline). For plain
// async runs the one consumer is both the only worker and the maximum, and
// the label stage's work is folded into it (label = 0).
func StageBusy(rep *stint.Report) (label, workers, maxWorker time.Duration, ok bool) {
	st := rep.Stats
	if st.PipelineDetectTime <= 0 {
		return 0, 0, 0, false
	}
	label = rep.SequencerBusy
	workers = st.PipelineDetectTime
	maxWorker = workers
	if rep.ShardLoad != nil {
		maxWorker = 0
		for _, l := range rep.ShardLoad {
			if l.Busy > maxWorker {
				maxWorker = l.Busy
			}
		}
	}
	return label, workers, maxWorker, true
}

// PipelineReport renders the async pipeline's utilization readout: the
// detector side's busy time against the run's wall time and, for sharded
// runs, the label-stage/worker split. It returns nil for synchronous runs
// (no pipeline, nothing to report).
//
// On a single core the pipeline cannot beat the synchronous run — the busy
// figures then say how much detection work would overlap with compute once
// cores are available, which is why the lines spell out the "max of the
// two sides" floor instead of promising a speedup.
func PipelineReport(rep *stint.Report) []string {
	label, workers, _, ok := StageBusy(rep)
	if !ok {
		return nil
	}
	var stream []string
	if st := rep.Stats; st.EventsStreamed > 0 {
		stream = []string{fmt.Sprintf(
			"event stream: %d events in %d bytes (%.2f B/event)",
			st.EventsStreamed, st.StreamBytes,
			float64(st.StreamBytes)/float64(st.EventsStreamed))}
	}
	if rep.ExecutorBusy > 0 {
		// Parallel-detect run: the mutator itself ran on many goroutines.
		// SequencerBusy is the deterministic merge here (it inherits the
		// label stage's role); the reorder peak says how much scheduling
		// skew the merge had to buffer.
		stream = append(stream, fmt.Sprintf(
			"parallel executors busy %v of %v wall (%s; merge stage busy %v, reorder peak %d chunks)",
			rep.ExecutorBusy.Round(time.Microsecond),
			rep.WallTime.Round(time.Microsecond),
			pct(rep.ExecutorBusy, rep.WallTime),
			rep.SequencerBusy.Round(time.Microsecond),
			rep.ReorderPeak))
	}
	if rep.ShardLoad == nil {
		return append(stream, fmt.Sprintf(
			"detector-goroutine busy %v of %v wall (%s; multi-core floor is max of the two sides)",
			workers.Round(time.Microsecond),
			rep.WallTime.Round(time.Microsecond),
			pct(workers, rep.WallTime)))
	}
	lines := append(stream, fmt.Sprintf(
		"sharded detection: %d workers busy %v total of %v wall (label stage busy %v, %d label snapshots; multi-core floor is max of any side)",
		len(rep.ShardLoad),
		workers.Round(time.Microsecond),
		rep.WallTime.Round(time.Microsecond),
		label.Round(time.Microsecond),
		rep.LabelViewSnapshots))
	for i, l := range rep.ShardLoad {
		line := fmt.Sprintf("  shard %d busy %v (%s of detect work), scanned %d/%d batches (skipped %s), %d ring waits",
			i, l.Busy.Round(time.Microsecond), pct(l.Busy, workers),
			l.BatchesScanned, l.BatchesScanned+l.BatchesSkipped,
			pctCount(l.BatchesSkipped, l.BatchesScanned+l.BatchesSkipped),
			l.RingWaits)
		if l.BlocksDecoded > 0 {
			// Events per decode block says how well the stream blocks for
			// this worker (near 64 is healthy; low means structure-dense
			// or tiny batches), and the decode share says how much of its
			// busy time went to block decode itself rather than page
			// splitting and detection.
			line += fmt.Sprintf(", %.1f ev/blk (decode %s of busy)",
				float64(l.EventsScanned)/float64(l.BlocksDecoded),
				pct(l.DecodeBusy, l.Busy))
		}
		lines = append(lines, line)
	}
	// Wait attribution: per-consumer waits distinguish a uniformly starved
	// fleet (the label stage is the bottleneck) from one straggler pacing
	// everyone (the low-wait outlier never waits — the ring's backpressure
	// makes the others wait on it).
	minW, maxW := rep.ShardLoad[0].RingWaits, rep.ShardLoad[0].RingWaits
	for _, l := range rep.ShardLoad[1:] {
		if l.RingWaits < minW {
			minW = l.RingWaits
		}
		if l.RingWaits > maxW {
			maxW = l.RingWaits
		}
	}
	lines = append(lines, fmt.Sprintf(
		"  ring waits per worker: max %d, min %d (uniform waits = label stage is the bottleneck; a low-wait outlier is the straggler)",
		maxW, minW))
	return lines
}

// pctCount formats part as a percentage of whole for plain counters.
func pctCount(part, whole uint64) string {
	if whole == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(whole))
}

// ServeStatus renders a trace-ingest service's pool utilization — the
// /v1/statusz payload — in the same vocabulary stint-serve's API uses:
// fleet occupancy, admission-queue depth, the admission counters, and the
// lifetime throughput.
func ServeStatus(st serve.Stats) []string {
	lines := []string{
		fmt.Sprintf("runners     %d busy / %d idle (fleet %d)", st.Busy, st.Idle, st.Runners),
		fmt.Sprintf("queue       %d/%d pending", st.QueueLen, st.QueueCap),
		fmt.Sprintf("admissions  %d admitted, %d rejected, %d oversized, %d failed",
			st.Admitted, st.Rejected, st.Oversized, st.Failed),
	}
	tps := "-"
	if st.TracesPerSec > 0 {
		tps = fmt.Sprintf("%.1f traces/sec", st.TracesPerSec)
	}
	lines = append(lines, fmt.Sprintf("throughput  %d completed, %s over %.2fs",
		st.Completed, tps, st.UptimeSec))
	return lines
}
