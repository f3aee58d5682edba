#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments: bash bench/run.sh --workload batch-seq --seed 1 --seconds 25 --trace 0
#
# The build cache, the temporary files of the toolchain, its usage counters
# (which it keeps in the user's configuration directory) and the binary all
# live under .bench_build/ at the root of the checkout, so nothing is written
# outside it; traces and per-run scratch files go to bench/out/.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
cd "$bench"
XDG_CONFIG_HOME="$build/config" go build -o "$build/bench" .
exec "$build/bench" "$@"
