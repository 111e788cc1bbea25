#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run from the
# repository root, for example:
#
#   bash perfbench/run.sh --workload table3_small --seed 0 --seconds 44 --trace 0
#
# Everything the build writes (Go build cache, temp files, the go
# command's telemetry counters, the binary) stays under .bench_build/ in
# the current directory.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
