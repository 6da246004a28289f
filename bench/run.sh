#!/bin/sh
# Builds the benchmark from source and runs it with the arguments given.
# Run from the repository root: sh bench/run.sh --workload live_pairs ...
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (ignored by git): the Go build cache, the linker's temporaries,
# the binary, journals and run records.
set -eu
root=$(pwd)
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOPATH="$root/.bench_build/gopath"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local
go build -o "$root/.bench_build/bench" ./bench
exec "$root/.bench_build/bench" "$@"
