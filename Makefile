# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short bench bench-hot tables fuzz harness mutants vet fmt examples loc loc-pkg

all: vet test build

build:
	$(GO) build ./...

# bench/ is its own module (it measures the program from outside), so the
# root ./... does not reach it; testing it here is what catches an API
# change that would break the benchmark.
test:
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

test-short:
	$(GO) test -short ./...

# The repository's one benchmark (BENCHMARK.json, bench/README.md): every
# workload, end-to-end metrics.
bench:
	bash bench/run.sh

# Hot-path microbenchmarks bench/ does not cover: the open-addressed page
# directory vs the seed's Go map, treap insertion from a cold node pool, a
# strand's sorted run through one page's two treaps (fft's pattern;
# reports nodes/op and overlaps/op), the broadcast ring the pipelines publish on and the reference SPSC
# ring, the event codec against its fixed-form reference (encode on the
# representative mix; decode on that, on a sequential stream and on wild
# jumps), the workers' page-filter scan, the per-access hook cost over every
# route (BenchmarkHookOverhead matches all four: sync, Async and ParallelDetect
# reach the same BitSet through the same slot arm and should be within a few
# ns of each other; Vanilla is the per-access Engine arm), its strided twin
# BenchmarkHookOverheadStrided (every load 64 words past the last, mmul's
# column pattern: the canary for an extra call on a slot change) and
# BenchmarkHookOverheadElem (4-, 8- and 16-byte elements on every route:
# float32, float64, complex128), the sharded and
# parallel-execution main-table measurements, the racy-workload
# quiescing pair, and the trace layer's own pair: BenchmarkReplayWorkload
# (sort and mmul at the benchmark's sizes, replayed with detection off and
# with STINT; MB/s is decode throughput) and BenchmarkRecordOverhead. (internal/depa is off the production path; its
# BenchmarkViewPerRefill runs with `go test -bench . ./internal/depa`.)
bench-hot:
	$(GO) test -run '^$$' -bench 'BenchmarkTreapInsert|BenchmarkTreapSortedRun|BenchmarkShadowDirectory' -benchmem ./internal/core ./internal/shadow
	$(GO) test -run '^$$' -bench '^Benchmark(Ring|BcastRing|Event(Encode|Decode)|WorkerScan)' -benchmem ./internal/evstream
	$(GO) test -run '^$$' -bench 'BenchmarkHookOverhead|BenchmarkRunnerReset' -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkFig5Sharded|BenchmarkFig5ParallelDetect|BenchmarkFig5RacyQuiesce' -benchtime 10x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkReplayWorkload|BenchmarkRecordOverhead' -benchmem ./trace

# The size ROADMAP tracks: non-test Go lines outside bench/ (the benchmark
# measures the program from outside and is not part of it).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l

# The same count per package directory, largest first: ROADMAP's per-package
# targets (internal/evstream <= 1 000, trace <= 300) are read off this.
loc-pkg:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | \
		xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1 } END { for (d in n) printf "%6d %s\n", n[d], d }' | sort -rn

# Regenerate every table of the paper's evaluation (see EXPERIMENTS.md).
tables:
	$(GO) run ./cmd/stint-tables -reps 3 all

# Short fuzz sessions over the five fuzz targets (the root one is the
# contract harness's checker).
fuzz:
	$(GO) test -fuzz=FuzzTreeAgainstOracle -fuzztime=30s ./internal/core
	$(GO) test -fuzz=FuzzSetRangeFlush -fuzztime=30s ./internal/coalesce
	$(GO) test -fuzz=FuzzEventCodec -fuzztime=30s ./internal/evstream
	$(GO) test -fuzz=FuzzReplay -fuzztime=30s ./trace
	$(GO) test -fuzz=FuzzAsyncAgainstSync -fuzztime=30s .

# The contract harness alone: the generator- and corpus-driven tests and the
# trace leg, without the named regression programs and pinned tests
# (DESIGN.md, "The contract and its checker").
HARNESS := ^(TestDetectorEquivalence(Random|Deep)Programs|TestParallelDetectRunToRunDeterminism|TestSoak.*|TestReuse(ByteIdenticalReports|FootprintStopsGrowing)|TestBodyPanicUnwindsPipeline|FuzzAsyncAgainstSync|TestContractTraceReplay)$$

harness:
	$(GO) test -count=1 -run '$(HARNESS)' .

# Each patch in testdata/mutants/ puts back a past correctness bug; the
# harness alone must fail on every one. The patch is reverted either way.
mutants:
	@for m in testdata/mutants/*.patch; do \
		git apply $$m || exit 1; \
		if ! $(GO) vet . >/dev/null; then git apply -R $$m; echo "$$m: does not build" >&2; exit 1; fi; \
		if $(GO) test -count=1 -failfast -run '$(HARNESS)' . >/dev/null 2>&1; then \
			git apply -R $$m; echo "$$m: the harness passed the mutant" >&2; exit 1; \
		fi; \
		git apply -R $$m; echo "$$m: caught"; \
	done

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/matmul
	$(GO) run ./examples/sortcheck
	$(GO) run ./examples/parallel
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/futures
