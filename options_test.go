package stint

import (
	"reflect"
	"strings"
	"testing"
)

// TestNewRunnerValidationTable exercises every rule in the options table:
// each rejected combination names the offending option in its error, and
// each boundary-legal combination constructs a Runner.
func TestNewRunnerValidationTable(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		// wantErr, when non-empty, must be a substring of the error.
		wantErr string
	}{
		// The bare goroutine executor (ParallelDetect under DetectorOff) still
		// excludes the tracer and Async; DetectShards is ignored.
		{"parallel off ok", Options{Detector: DetectorOff, ParallelDetect: true, DetectShards: 2}, ""},
		{"parallel tracer", Options{Detector: DetectorOff, ParallelDetect: true, Tracer: &accessCounter{}}, "tracing"},
		{"parallel async", Options{Detector: DetectorOff, ParallelDetect: true, Async: true}, "Async and ParallelDetect"},

		// MaxRacesRecorded: negative rejected, zero defaults, positive kept.
		{"negative max races", Options{Detector: DetectorSTINT, MaxRacesRecorded: -1}, "MaxRacesRecorded"},
		{"negative max races async", Options{Detector: DetectorSTINT, Async: true, MaxRacesRecorded: -7}, "MaxRacesRecorded"},
		{"zero max races defaults", Options{Detector: DetectorSTINT}, ""},
		{"positive max races", Options{Detector: DetectorSTINT, MaxRacesRecorded: 3}, ""},

		// Pipelines stream coalesced intervals: Async, DetectShards and
		// ParallelDetect all need a runtime-coalescing detector (one rule);
		// Async under Off/ReachOnly is inert and stays legal.
		{"async vanilla", Options{Detector: DetectorVanilla, Async: true}, "runtime-coalescing"},
		{"async compiler", Options{Detector: DetectorCompiler, Async: true}, "runtime-coalescing"},
		{"async comp+rts ok", Options{Detector: DetectorCompRTS, Async: true}, ""},
		{"async off ignored", Options{Detector: DetectorOff, Async: true}, ""},
		{"async reach-only ok", Options{Detector: DetectorReachOnly, Async: true}, ""},

		// DetectShards: sign, magnitude, async requirement, detector class.
		{"negative shards", Options{Detector: DetectorSTINT, Async: true, DetectShards: -1}, "non-negative"},
		{"absurd shards", Options{Detector: DetectorSTINT, Async: true, DetectShards: maxDetectShards + 1}, "maximum"},
		{"max shards ok", Options{Detector: DetectorSTINT, Async: true, DetectShards: maxDetectShards}, ""},
		{"shards without async", Options{Detector: DetectorSTINT, DetectShards: 2}, "requires Async"},
		{"shards vanilla", Options{Detector: DetectorVanilla, Async: true, DetectShards: 2}, "runtime-coalescing"},
		{"shards compiler", Options{Detector: DetectorCompiler, Async: true, DetectShards: 2}, "runtime-coalescing"},
		{"shards comp+rts ok", Options{Detector: DetectorCompRTS, Async: true, DetectShards: 2}, ""},
		{"shards stint ok", Options{Detector: DetectorSTINT, Async: true, DetectShards: 4}, ""},
		{"shards stint-unbalanced ok", Options{Detector: DetectorSTINTUnbalanced, Async: true, DetectShards: 2}, ""},
		{"one shard ok", Options{Detector: DetectorSTINT, Async: true, DetectShards: 1}, ""},
		{"zero shards ok", Options{Detector: DetectorSTINT, Async: true}, ""},
		{"shards off ignored", Options{Detector: DetectorOff, Async: true, DetectShards: 2}, ""},
		{"shards reach-only ignored", Options{Detector: DetectorReachOnly, Async: true, DetectShards: 2}, ""},

		// ParallelDetect: needs a runtime-coalescing detector or none at all
		// (DetectorOff), excludes Async and the tracer; DetectShards composes.
		{"parallel-detect stint ok", Options{Detector: DetectorSTINT, ParallelDetect: true}, ""},
		{"parallel-detect comp+rts ok", Options{Detector: DetectorCompRTS, ParallelDetect: true}, ""},
		{"parallel-detect sharded ok", Options{Detector: DetectorSTINT, ParallelDetect: true, DetectShards: 4}, ""},
		{"parallel-detect off", Options{Detector: DetectorOff, ParallelDetect: true}, ""},
		{"parallel-detect vanilla", Options{Detector: DetectorVanilla, ParallelDetect: true}, "runtime-coalescing"},
		{"parallel-detect reach-only", Options{Detector: DetectorReachOnly, ParallelDetect: true}, "runtime-coalescing"},
		{"parallel-detect tracer", Options{Detector: DetectorSTINT, ParallelDetect: true, Tracer: &accessCounter{}}, "tracing"},
		{"parallel-detect with async", Options{Detector: DetectorSTINT, ParallelDetect: true, Async: true}, "Async and ParallelDetect"},

		// The detector is one of the seven named values.
		{"unknown detector", Options{Detector: Detector(99)}, "unknown Detector"},
		{"negative detector", Options{Detector: Detector(-1), Async: true}, "unknown Detector"},

		// Plain configurations stay legal.
		{"default", Options{}, ""},
		{"async stint", Options{Detector: DetectorSTINT, Async: true}, ""},
		{"tracer serial", Options{Detector: DetectorSTINT, Tracer: &accessCounter{}}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := NewRunner(c.opts)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if r == nil {
					t.Fatal("nil Runner without error")
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got none", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
			if !strings.HasPrefix(err.Error(), "stint: ") {
				t.Fatalf("error %q not prefixed with package name", err)
			}
		})
	}
}

// TestValidateFirstViolationWins pins the table order: an Options value
// violating several rules reports the earliest one, so error messages are
// stable as rules accumulate.
func TestValidateFirstViolationWins(t *testing.T) {
	_, err := NewRunner(Options{Detector: DetectorVanilla, ParallelDetect: true, Tracer: &accessCounter{}, MaxRacesRecorded: -1, DetectShards: -5})
	if err == nil || !strings.Contains(err.Error(), "tracing") {
		t.Fatalf("expected the tracer rule to win, got %v", err)
	}
}

// TestMaxRacesDefaultApplied checks the zero-value default survives the
// validation path: Report.Races is bounded by 64 when unset.
func TestMaxRacesDefaultApplied(t *testing.T) {
	if r, err := NewRunner(Options{Detector: DetectorSTINT}); err != nil || r.opts.MaxRacesRecorded != 64 {
		t.Fatalf("defaulted MaxRacesRecorded: %v, want 64", err)
	}
}

// TestCoalescingDetectorSet pins which detectors a pipeline may stream
// intervals to: exactly the three detect.NewHistory builds an engine for.
func TestCoalescingDetectorSet(t *testing.T) {
	var got []Detector
	for d := DetectorOff; d <= DetectorSTINTUnbalanced+8; d++ {
		if coalescingDetector(d) {
			got = append(got, d)
		}
	}
	want := []Detector{DetectorCompRTS, DetectorSTINT, DetectorSTINTUnbalanced}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("coalescingDetector accepts %v, want %v", got, want)
	}
}

// TestOptionsFieldCount pins the size of the configuration surface. Every
// independently settable field multiplies the contract harness's grid, so
// adding one is a decision made in review, by editing this number.
func TestOptionsFieldCount(t *testing.T) {
	if got := reflect.TypeOf(Options{}).NumField(); got != 10 {
		t.Fatalf("Options has %d fields, want 10: a new option needs its harness axis and this count updated together", got)
	}
	if got := len(optionsRules); got != 11 {
		t.Fatalf("optionsRules has %d rules, want 11", got)
	}
}
