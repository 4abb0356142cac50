#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload pow_ladder --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (the binary, the Go build cache, its
# temporary files) goes under $CARGO_TARGET_DIR, default .bench_build,
# inside the checkout; the go command reads no user configuration and
# fetches nothing.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp GOENV=off GOTELEMETRY=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
