package stint

import (
	"reflect"
	"testing"
)

// pipeMode is one pipelined execution mode: a name and the Options fields
// that select it (Async, ParallelDetect, DetectShards — nothing else set).
type pipeMode struct {
	Name string
	Opts Options
}

// pipeModes is the one table of pipelined modes every root suite ranges
// over. Async with DetectShards 0 and 1 are the same code path (one worker),
// so there is no shards=1 leg; the bare "parallel-detect" is the two-worker
// configuration bench/ calls pardetect.
var pipeModes = []pipeMode{
	{"async", Options{Async: true}},
	{"shards=2", Options{Async: true, DetectShards: 2}},
	{"shards=4", Options{Async: true, DetectShards: 4}},
	{"parallel-detect=1", Options{ParallelDetect: true, DetectShards: 1}},
	{"parallel-detect", Options{ParallelDetect: true, DetectShards: 2}},
	{"parallel-detect=4", Options{ParallelDetect: true, DetectShards: 4}},
}

// With returns base switched to the mode.
func (m pipeMode) With(base Options) Options {
	base.Async, base.ParallelDetect, base.DetectShards = m.Opts.Async, m.Opts.ParallelDetect, m.Opts.DetectShards
	return base
}

// modeNamed looks a mode up for the suites that pin a single one.
func modeNamed(name string) pipeMode {
	for _, m := range pipeModes {
		if m.Name == name {
			return m
		}
	}
	panic("no pipelined mode named " + name)
}

// normStats zeroes the timing-, allocation-, and scheduling-dependent
// fields so the deterministic counters can be compared across execution
// modes. EventsStreamed and StreamBytes describe the transport, not the
// detection: sync runs have no stream.
// HistoryBytesPeak sums each engine's retained footprint, so a sharded
// run's N directories and pools legitimately peak higher than one inline
// engine's. PagesQuiesced stays compared: quiesce decisions are page-local
// and deterministic, so the count is mode-independent (and zero with
// quiescing off).
func normStats(s Stats) Stats {
	s.AccessHistoryTime = 0
	s.AllocObjects = 0
	s.AllocBytes = 0
	s.PipelineDetectTime = 0
	s.EventsStreamed = 0
	s.StreamBytes = 0
	s.HistoryBytesPeak = 0
	return s
}

// assertSameReport fails the test unless got agrees with want on every
// deterministic field: the counts, the race list byte for byte, and the
// normalized stats. It is the one statement of "byte-identical reports" —
// across modes, across runs, fresh against reused.
func assertSameReport(t testing.TB, label string, got, want *Report) {
	t.Helper()
	if got.RaceCount != want.RaceCount || got.Strands != want.Strands {
		t.Fatalf("%s: RaceCount/Strands %d/%d, want %d/%d",
			label, got.RaceCount, got.Strands, want.RaceCount, want.Strands)
	}
	if !reflect.DeepEqual(got.Races, want.Races) {
		t.Fatalf("%s: race list diverges\n got: %v\nwant: %v", label, got.Races, want.Races)
	}
	if g, w := normStats(got.Stats), normStats(want.Stats); g != w {
		t.Fatalf("%s: stats diverge\n got: %+v\nwant: %+v", label, g, w)
	}
}

// logProgramOnFailure, deferred, prints the act program a failing
// differential ran — once, and only when there is something to debug.
func logProgramOnFailure(t testing.TB, acts []act) {
	if t.Failed() {
		t.Logf("program: %+v", acts)
	}
}

// The external (package stint_test) suites range over the same table.
var (
	PipeModes        = pipeModes
	AssertSameReport = assertSameReport
)
