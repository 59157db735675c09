#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload campaign --seed 7 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artifact, the Go build
# cache and the traced runs' span files stay under .bench_build/, so
# the run touches nothing outside the checkout. The toolchain is the
# local one: no module or toolchain download is ever attempted.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
