#!/usr/bin/env bash
# Builds asymsort, asymsortd and the benchmark driver from this checkout,
# then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload ext_merge --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ at
# the repository root (Go build cache included), so the checkout is the only
# directory written. Build output goes to stderr; the last line of stdout is
# the benchmark's JSON result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd perfbench && go build -o "$build/bin/" asymsort/cmd/asymsort asymsort/cmd/asymsortd .) >&2
exec "$build/bin/perfbench" "$@"
