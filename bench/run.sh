#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# flags, from the repository root:
#
#   bash bench/run.sh --workload replay-zoo --seed 2 --seconds 10 --trace 0
#
# The binary, the Go build cache and the Go config directory all live in
# .bench_build/ at the repository root, so a run writes nothing outside
# the checkout. The harness itself runs from bench/.
set -euo pipefail
cd "$(dirname "$0")"
out="$(cd .. && pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/ropbench" .
exec "$out/ropbench" "$@"
