package main

import "stint"

// ledger fills in the per-layer metrics of the live path from three
// sources, all outside the program: the mode ladder, the Report fields of
// the pipelined modes, and the layers driven in isolation.
func (b *bench) ledger(live *rounds, vals values) error {
	// Mode ladder (the paper's Fig 1/7): each mode adds one layer, the
	// difference of two walls is that layer's cost.
	off, syncW := timing(live.walls[modeOff]), timing(live.walls[modeSync])
	reach, timed := timing(live.walls[modeReach]), timing(live.walls[modeTimed])
	history := timing(mapF(live.reports[modeTimed], func(r *stint.Report) float64 { return ms(r.Stats.AccessHistoryTime) }))
	vals["workloads.compute_ms"] = off
	vals["spord.reach_ms"] = stat(reach.Value-off.Value, reach.N)
	vals["core.history_ms"] = history
	vals["stint.hook_coalesce_ms"] = stat(timed.Value-history.Value-reach.Value, timed.N)
	vals["detect.comprts_ms"] = timing(live.walls[modeCompRTS])
	vals["shadow.vanilla_ms"] = timing(live.walls[modeVanilla])
	vals["trace.replay_sync_ms"] = timing(live.walls[modeReplay])
	// The four shares sum to the wall of the run with the history timers
	// on; the gap to the untimed synchronous wall is what the timers cost.
	vals["bench.ladder_gap_pct"] = stat(100*ratio(timed.Value-syncW.Value, syncW.Value), timed.N)

	// Span recording alternated on and off by round: the difference between
	// the two halves is the tracing overhead on the end-to-end number.
	var on, offSpans []float64
	for i, w := range live.walls[modeSync] {
		if live.spansOn[i] {
			on = append(on, w)
		} else {
			offSpans = append(offSpans, w)
		}
	}
	plain := timing(offSpans)
	vals["bench.trace_overhead_pct"] = stat(100*ratio(timing(on).Value-plain.Value, plain.Value), len(on))

	// Exact counts of the synchronous run.
	last := func(name string) *stint.Report {
		reps := live.reports[name]
		if len(reps) == 0 {
			return nil
		}
		return reps[len(reps)-1]
	}
	s := &last(modeSync).Stats
	words := float64(s.ReadAccesses + s.WriteAccesses)
	ivals := float64(s.ReadIntervals + s.WriteIntervals)
	vals["stint.hook_calls"] = point(float64(s.ReadHookCalls + s.WriteHookCalls))
	vals["stint.word_accesses"] = point(words)
	vals["coalesce.intervals"] = point(ivals)
	vals["coalesce.words_per_interval"] = point(ratio(float64(s.ReadIntervalBytes+s.WriteIntervalBytes)/4, ivals))
	vals["core.treap_ops"] = point(float64(s.TreapOps))
	vals["core.nodes_per_op"] = point(ratio(float64(s.TreapNodesVisited), float64(s.TreapOps)))
	vals["core.overlaps_per_op"] = point(ratio(float64(s.TreapOverlaps), float64(s.TreapOps)))
	vals["spord.strands"] = point(float64(last(modeSync).Strands))
	vals["detect.races"] = point(float64(s.Races))
	field := func(name string, f func(*stint.Report) float64) dist { return summarize(mapF(live.reports[name], f)) }
	busy := func(name string, f func(*stint.Report) float64) dist { return timing(mapF(live.reports[name], f)) }
	vals["stint.allocs_per_run"] = field(modeSync, func(r *stint.Report) float64 { return float64(r.Stats.AllocObjects) })
	vals["stint.alloc_kb_per_run"] = field(modeSync, func(r *stint.Report) float64 { return float64(r.Stats.AllocBytes) / 1024 })

	// Pipelined modes' Report fields; a mode dropped from liveModes drops
	// its rows.
	if rep := last(modeAsync); rep != nil {
		vals["evstream.events"] = point(float64(rep.Stats.EventsStreamed))
		vals["evstream.bytes_per_event"] = point(ratio(float64(rep.Stats.StreamBytes), float64(rep.Stats.EventsStreamed)))
		vals["stint.async_detect_busy_ms"] = busy(modeAsync, func(r *stint.Report) float64 { return ms(r.Stats.PipelineDetectTime) })
	}
	if last(modeSharded) != nil {
		shards := func(f func(shardTotals) float64) func(*stint.Report) float64 {
			return func(r *stint.Report) float64 { return f(totalsOf(r)) }
		}
		label := busy(modeSharded, func(r *stint.Report) float64 { return ms(r.SequencerBusy) })
		sum := busy(modeSharded, shards(func(t shardTotals) float64 { return t.busy }))
		vals["stage.label_busy_ms"] = label
		vals["stage.shard_busy_ms_sum"] = sum
		vals["stage.shard_busy_ms_max"] = busy(modeSharded, shards(func(t shardTotals) float64 { return t.busyMax }))
		vals["stage.shard_skew"] = field(modeSharded, shards(func(t shardTotals) float64 { return ratio(t.busyMax*t.workers, t.busy) }))
		vals["stage.batches_skipped_share"] = field(modeSharded, shards(func(t shardTotals) float64 { return ratio(t.skipped, t.skipped+t.scanned) }))
		vals["stage.ring_waits"] = field(modeSharded, shards(func(t shardTotals) float64 { return t.waits }))
		vals["evstream.decode_busy_ms"] = busy(modeSharded, shards(func(t shardTotals) float64 { return t.decode }))
		vals["evstream.events_per_block"] = field(modeSharded, shards(func(t shardTotals) float64 { return ratio(t.events, t.blocks) }))
		vals["depa.view_snapshots"] = field(modeSharded, func(r *stint.Report) float64 { return float64(r.LabelViewSnapshots) })
		// ROADMAP's "150 ms busy against a 74 ms sync run", tracked.
		vals["stint.pipeline_inflation_x"] = stat(ratio(label.Value+sum.Value, syncW.Value), sum.N)
	}
	if last(modePardetect) != nil {
		vals["stint.executor_busy_ms"] = busy(modePardetect, func(r *stint.Report) float64 { return ms(r.ExecutorBusy) })
		vals["stage.merge_busy_ms"] = busy(modePardetect, func(r *stint.Report) float64 { return ms(r.SequencerBusy) })
		vals["stage.reorder_peak"] = field(modePardetect, func(r *stint.Report) float64 { return float64(r.ReorderPeak) })
	}
	return b.isolate(vals)
}

// shardTotals sums the per-worker loads of one sharded Report; times in ms.
type shardTotals struct {
	workers, busy, busyMax, decode float64
	skipped, scanned, waits        float64
	events, blocks                 float64
}

func totalsOf(r *stint.Report) shardTotals {
	t := shardTotals{workers: float64(len(r.ShardLoad))}
	for _, l := range r.ShardLoad {
		t.busy += ms(l.Busy)
		t.busyMax = max(t.busyMax, ms(l.Busy))
		t.decode += ms(l.DecodeBusy)
		t.skipped += float64(l.BatchesSkipped)
		t.scanned += float64(l.BatchesScanned)
		t.waits += float64(l.RingWaits)
		t.events += float64(l.EventsScanned)
		t.blocks += float64(l.BlocksDecoded)
	}
	return t
}
