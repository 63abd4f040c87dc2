#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash htapbench/run.sh --workload tpcb --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output, the Go build cache and the
# traced run's span dumps all go under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/htapbench" && go build -o "$build/htapbench" .) >&2
cd "$root"
exec "$build/htapbench" "$@"
