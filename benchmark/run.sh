#!/usr/bin/env bash
# The driver's entry point: build the benchmark from source into the
# checkout's .bench_build directory (Go's build cache lives there too, so
# nothing is written outside the checkout) and run it from the checkout
# root. Arguments are passed through:
#
#   bash benchmark/run.sh --workload point-read --seed 1 --seconds 6 --trace 0
#
# The build needs the repository around it (go.mod's replace directive
# points at ..); in a directory holding only the benchmark it fails, and so
# does this script, without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" -out benchmark/out "$@"
