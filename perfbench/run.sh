#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload like --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout (Go build cache, the binary, durability directories, traces).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out/perfbench-run" "$@"
