package main

import (
	"stint"
	"stint/workloads"
)

// workload is one benchmark input: a program that is run live under every
// mode and whose recorded trace is then served by stint-serve. The sizes
// are frozen here and named in BENCHMARK.json; the names are fixed, later
// issues refer to them.
type workload struct {
	name string
	// racy programs must report races (the same ones in every mode);
	// race-free ones must report none.
	racy bool
	// liveShare is the part of the time budget the live phase gets; the
	// service phase gets the rest. The serve-* workloads exist for the
	// service numbers and give them the larger part.
	liveShare float64
	new       workloads.Factory
}

var allWorkloads = []workload{
	{name: "sort", liveShare: 0.6, new: func() workloads.Workload { return workloads.NewSort(40000, 512) }},
	{name: "fft", liveShare: 0.6, new: func() workloads.Workload { return workloads.NewFFT(32768, 64) }},
	{name: "mmul", liveShare: 0.6, new: func() workloads.Workload { return workloads.NewMMul(112, 16) }},
	{name: "serve-small", liveShare: 0.4, new: func() workloads.Workload { return workloads.NewChol(192, 16) }},
	{name: "serve-racy", racy: true, liveShare: 0.4, new: func() workloads.Workload { return workloads.NewRacyMMul(96, 16) }},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range allWorkloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// mode is one leg of a live round. This table is the only place the modes
// are listed: removing a row removes its end-to-end ratio and every ledger
// metric read from its Report, so when a mode is deleted from the program a
// one-line change here (and in BENCHMARK.json) drops it from the benchmark
// first.
type mode struct {
	name string
	opts stint.Options
	// replay legs run trace.Replay of the set-up trace on the warm Runner
	// instead of the workload itself.
	replay bool
	// ratio names the mode's end-to-end metric: its wall over the wall of
	// the mode named by against, taken in the same round. Empty for modes
	// that only serve as a denominator or feed the ledger.
	ratio, against string
	bound          float64
}

const (
	modeOff       = "off"
	modeSync      = "sync"
	modeAsync     = "async"
	modeSharded   = "sharded2"
	modePardetect = "pardetect"
	modeReplay    = "replay"
)

var stintSync = stint.Options{Detector: stint.DetectorSTINT}

var liveModes = []mode{
	{name: modeOff, opts: stint.Options{Detector: stint.DetectorOff}},
	{name: modeSync, opts: stintSync, ratio: "overhead_x.sync", against: modeOff, bound: 0.25},
	{name: modeAsync, opts: stint.Options{Detector: stint.DetectorSTINT, Async: true}, ratio: "vs_sync_x.async", against: modeSync, bound: 0.25},
	{name: modeSharded, opts: stint.Options{Detector: stint.DetectorSTINT, Async: true, DetectShards: 2}, ratio: "vs_sync_x.sharded2", against: modeSync, bound: 0.25},
	{name: modePardetect, opts: stint.Options{Detector: stint.DetectorSTINT, ParallelDetect: true, DetectShards: 2}, ratio: "vs_sync_x.pardetect", against: modeSync, bound: 0.25},
	{name: modeReplay, opts: stintSync, replay: true, ratio: "vs_sync_x.replay", against: modeSync, bound: 0.25},
}

// ladderModes run only in the traced phase: the paper's Fig 1/7 method of
// attributing the wall to layers by switching them on one at a time.
const (
	modeReach   = "reach"
	modeTimed   = "sync+timers"
	modeCompRTS = "comprts"
	modeVanilla = "vanilla"
)

var ladderModes = []mode{
	{name: modeReach, opts: stint.Options{Detector: stint.DetectorReachOnly}},
	{name: modeTimed, opts: stint.Options{Detector: stint.DetectorSTINT, TimeAccessHistory: true}},
	{name: modeCompRTS, opts: stint.Options{Detector: stint.DetectorCompRTS}},
	{name: modeVanilla, opts: stint.Options{Detector: stint.DetectorVanilla}},
}

// metricDef declares a metric; BENCHMARK.json repeats these and a test
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Exact  bool    // a count that repeats exactly for one seed
}

// endToEndDefs lists what a user of the system sees, in output order. On
// the shared reference box absolute times move by a quarter with the
// neighbours' load, so the gated timings are ratios of walls taken side by
// side, which do not; the absolute numbers are in the ledger.
func endToEndDefs() []metricDef {
	defs := []metricDef{{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}}
	for _, m := range liveModes {
		if m.ratio != "" {
			defs = append(defs, metricDef{Name: m.ratio, Unit: "x", Better: "lower", Bound: m.bound})
		}
	}
	return append(defs,
		metricDef{Name: "serve_latency_x", Unit: "x", Better: "lower", Bound: 0.15},
		metricDef{Name: "history_peak_kb", Unit: "KiB", Better: "lower", Bound: 0.03, Exact: true},
		metricDef{Name: "rss_peak_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	)
}

// perLayerDefs is the ledger, named <module>.<metric>: never gated, read
// to see where an end-to-end change came from.
var perLayerDefs = []metricDef{
	// The absolute numbers behind the end-to-end ratios.
	{Name: "wall_ms.sync", Unit: "ms", Better: "lower"},
	{Name: "wall_ms.async", Unit: "ms", Better: "lower"},
	{Name: "wall_ms.sharded2", Unit: "ms", Better: "lower"},
	{Name: "wall_ms.pardetect", Unit: "ms", Better: "lower"},
	{Name: "traces_per_s", Unit: "1/s", Better: "higher"},
	{Name: "latency_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "latency_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "serve.rss_peak_mb", Unit: "MiB", Better: "lower"},
	// Mode ladder.
	{Name: "workloads.compute_ms", Unit: "ms", Better: "lower"},
	{Name: "spord.reach_ms", Unit: "ms", Better: "lower"},
	{Name: "core.history_ms", Unit: "ms", Better: "lower"},
	{Name: "stint.hook_coalesce_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.comprts_ms", Unit: "ms", Better: "lower"},
	{Name: "shadow.vanilla_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.ladder_gap_pct", Unit: "%", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "failed_share", Unit: "fraction", Better: "lower"},
	// Exact counts from the synchronous run's Stats.
	{Name: "stint.hook_calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "stint.word_accesses", Unit: "count", Better: "lower", Exact: true},
	{Name: "coalesce.intervals", Unit: "count", Better: "lower", Exact: true},
	{Name: "coalesce.words_per_interval", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.treap_ops", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.nodes_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.overlaps_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "spord.strands", Unit: "count", Better: "lower", Exact: true},
	{Name: "detect.races", Unit: "count", Better: "lower", Exact: true},
	{Name: "stint.allocs_per_run", Unit: "count", Better: "lower"},
	{Name: "stint.alloc_kb_per_run", Unit: "KiB", Better: "lower"},
	// Pipelined Report fields.
	{Name: "evstream.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "evstream.bytes_per_event", Unit: "B", Better: "lower", Exact: true},
	{Name: "stint.async_detect_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.label_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.shard_busy_ms_sum", Unit: "ms", Better: "lower"},
	{Name: "stage.shard_busy_ms_max", Unit: "ms", Better: "lower"},
	{Name: "stage.shard_skew", Unit: "x", Better: "lower"},
	{Name: "stage.batches_skipped_share", Unit: "fraction", Better: "higher"},
	{Name: "stage.ring_waits", Unit: "count", Better: "lower"},
	{Name: "evstream.decode_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "evstream.events_per_block", Unit: "count", Better: "higher"},
	{Name: "depa.view_snapshots", Unit: "count", Better: "lower"},
	{Name: "stint.executor_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.merge_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.reorder_peak", Unit: "count", Better: "lower"},
	{Name: "stint.pipeline_inflation_x", Unit: "x", Better: "lower"},
	// Layer isolation.
	{Name: "detect.engine_ms", Unit: "ms", Better: "lower"},
	{Name: "coalesce.set_flush_ms", Unit: "ms", Better: "lower"},
	{Name: "coalesce.ns_per_word", Unit: "ns", Better: "lower"},
	{Name: "spord.structure_ms", Unit: "ms", Better: "lower"},
	{Name: "depa.label_ms", Unit: "ms", Better: "lower"},
	{Name: "evstream.encode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "evstream.decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "evstream.fixed_encode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "evstream.fixed_decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "trace.record_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.bytes_per_event", Unit: "B", Better: "lower", Exact: true},
	{Name: "trace.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.replay_sync_ms", Unit: "ms", Better: "lower"},
	// Service request spans and /v1/statusz.
	{Name: "serve.upload_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.replay_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.result_fetch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.polls_per_trace", Unit: "count", Better: "lower"},
	{Name: "serve.traces_per_s_mean", Unit: "1/s", Better: "higher"},
	{Name: "serve.latency_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "serve.latency_ms_max", Unit: "ms", Better: "lower"},
	{Name: "serve.upload_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "serve.busy_share", Unit: "fraction", Better: "higher"},
	{Name: "serve.rejected_429", Unit: "count", Better: "lower"},
	{Name: "serve.oversized", Unit: "count", Better: "lower"},
}
