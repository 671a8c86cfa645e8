#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, e.g.
#
#   bash perfbench/run.sh --workload adhoc-roam --seed 1 --seconds 35 --trace 0
#
# The binary, the Go build cache and the go command's own state all live in
# .bench_build at the root of the checkout, so a run writes nothing outside
# it. Timed rounds run on one thread (GOMAXPROCS=1).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)

GOMAXPROCS=1 exec "$out/perfbench" "$@"
