// Options validation. Every constraint on an Options value lives in one
// table here — the runner files assume a validated configuration and never
// re-check combinations — so NewRunner is the single gate and the table is
// the single place to read (and test) the rules.

package stint

import "fmt"

// maxDetectShards bounds DetectShards. Shards cost a goroutine, an engine,
// a private SP-Order structure (reachability memory scales with the worker
// count), and a broadcast-ring cursor each, and the page hash cannot usefully
// spread a program over more workers than it has distinct 64 KiB shadow
// pages; four-digit counts are a configuration error, not a scale-up.
const maxDetectShards = 1024

// DefaultMaxRacesRecorded is the race-report budget applied when
// Options.MaxRacesRecorded is zero. Every entry point — NewRunner,
// trace.Replay, the dag and pipeline runners, and stint-serve — defaults
// through this one constant, so a zero value means the same thing
// everywhere.
const DefaultMaxRacesRecorded = 64

// defaultMaxRaces resolves a zero MaxRacesRecorded to the shared default.
func defaultMaxRaces(n int) int {
	if n == 0 {
		return DefaultMaxRacesRecorded
	}
	return n
}

// optionsRule is one validation rule: bad reports whether opts violate the
// rule, and err renders the violation.
type optionsRule struct {
	bad func(o *Options) bool
	err func(o *Options) error
}

// optionsRules is evaluated in order; the first violated rule wins.
var optionsRules = []optionsRule{
	{
		bad: func(o *Options) bool { return o.Detector < DetectorOff || o.Detector > DetectorSTINTUnbalanced },
		err: func(o *Options) error { return fmt.Errorf("stint: unknown Detector %v", o.Detector) },
	},
	{
		bad: func(o *Options) bool { return o.ParallelDetect && o.Tracer != nil },
		err: func(o *Options) error {
			return fmt.Errorf("stint: tracing requires serial execution; ParallelDetect's executors emit events out of program order")
		},
	},
	{
		bad: func(o *Options) bool { return o.ParallelDetect && o.Async },
		err: func(o *Options) error {
			return fmt.Errorf("stint: Async and ParallelDetect are incompatible; Async pipelines the serial projection, ParallelDetect merges a parallel execution's streams itself")
		},
	},
	{
		// Every pipeline streams the strand-end flush of the mutator-side
		// bit hashmaps, so its detector must be fed by runtime coalescing.
		// Under DetectorOff no pipeline is built (ParallelDetect is then the
		// bare goroutine executor), and Async (with DetectShards under it)
		// is inert under ReachOnly too; both stay legal.
		bad: func(o *Options) bool {
			inert := o.Detector == DetectorOff || (o.Async && o.Detector == DetectorReachOnly)
			return (o.Async || o.ParallelDetect) && !inert && !coalescingDetector(o.Detector)
		},
		err: func(o *Options) error {
			return fmt.Errorf("stint: Async, DetectShards and ParallelDetect stream coalesced intervals and require a runtime-coalescing detector (comp+rts or a stint variant), got %v; for detection-off parallel execution use ParallelDetect with DetectorOff", o.Detector)
		},
	},
	{
		bad: func(o *Options) bool { return o.MaxRacesRecorded < 0 },
		err: func(o *Options) error {
			return fmt.Errorf("stint: MaxRacesRecorded must be non-negative, got %d", o.MaxRacesRecorded)
		},
	},
	{
		bad: func(o *Options) bool { return o.DetectShards < 0 },
		err: func(o *Options) error {
			return fmt.Errorf("stint: DetectShards must be non-negative, got %d", o.DetectShards)
		},
	},
	{
		bad: func(o *Options) bool { return o.DetectShards > maxDetectShards },
		err: func(o *Options) error {
			return fmt.Errorf("stint: DetectShards %d exceeds the maximum of %d", o.DetectShards, maxDetectShards)
		},
	},
	{
		bad: func(o *Options) bool { return o.DetectShards > 0 && !o.Async && !o.ParallelDetect },
		err: func(o *Options) error {
			return fmt.Errorf("stint: DetectShards requires Async or ParallelDetect; sharding splits the pipelined detector")
		},
	},
	{
		bad: func(o *Options) bool { return o.PageQuiesceThreshold < 0 },
		err: func(o *Options) error {
			return fmt.Errorf("stint: PageQuiesceThreshold must be non-negative, got %d", o.PageQuiesceThreshold)
		},
	},
	{
		bad: func(o *Options) bool { return o.MaxHistoryBytes < 0 },
		err: func(o *Options) error {
			return fmt.Errorf("stint: MaxHistoryBytes must be non-negative, got %d", o.MaxHistoryBytes)
		},
	},
	{
		bad: func(o *Options) bool {
			return o.MaxHistoryBytes > 0 && (o.Detector == DetectorOff || o.Detector == DetectorReachOnly)
		},
		err: func(o *Options) error {
			return fmt.Errorf("stint: MaxHistoryBytes requires a detector with an access history, got %v", o.Detector)
		},
	},
}

// coalescingDetector reports whether d is one of the runtime-coalescing
// engines — the ones whose history is fed a strand's flushed intervals,
// which is all a pipeline streams.
func coalescingDetector(d Detector) bool {
	switch d {
	case DetectorCompRTS, DetectorSTINT, DetectorSTINTUnbalanced:
		return true
	}
	return false
}

// validate checks opts against every rule, returning the first violation.
func (o *Options) validate() error {
	for _, rule := range optionsRules {
		if rule.bad(o) {
			return rule.err(o)
		}
	}
	return nil
}
