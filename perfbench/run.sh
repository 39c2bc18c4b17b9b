#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root, e.g.
#
#   bash perfbench/run.sh --workload table --seed 1 --seconds 20 --trace 0
#
# Every build output, the Go build cache included, stays in .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
