#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json "command"): builds the bench
# program and the stint-serve binary it drives from the sources of the
# checkout it is run from, then runs the bench program with the arguments
# given. Run it from the repository root:
#
#   bash bench/run.sh --workload sort --seed 1 --seconds 16 --trace 0
#
# Everything it writes stays inside the checkout: the build cache and the
# two binaries under .bench_build/, result and span files under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/stint-bench" .)
(cd "$root" && go build -o "$build/stint-serve" ./cmd/stint-serve)
cd "$root"
exec "$build/stint-bench" -serve-bin "$build/stint-serve" "$@"
