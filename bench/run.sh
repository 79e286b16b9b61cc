#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache included, stay in .bench_build/ so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
