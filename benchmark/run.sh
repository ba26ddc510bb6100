#!/usr/bin/env bash
# run.sh builds the end-to-end benchmark from the sources of the
# checkout it sits in and runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload psd_cold --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/ at the checkout root, so a run
# touches nothing outside the checkout. Without the library sources
# next to benchmark/ the build fails and the script exits non-zero
# before printing any result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off
export GOWORK=off

(cd "$root/benchmark" && go build -o "$build/xfdbench-e2e" .)
exec "$build/xfdbench-e2e" "$@"
