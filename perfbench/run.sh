#!/usr/bin/env bash
# Builds the layered benchmark and sortd from this checkout, then
# runs the benchmark from the checkout root. Every build product, cache and
# temporary file stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload inmem-hybrid --seed 1 --seconds 30 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export TMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
(cd "$root" && go build -o "$out/sortd" ./cmd/sortd)
exec "$out/perfbench" -sortd "$out/sortd" -out "$out" "$@"
