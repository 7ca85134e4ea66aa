#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --workload all --seed 1 --trace 1
#
# The Go build cache, module cache and binary live under .bench_build/ in the
# repository root, so a run reads and writes nothing outside the checkout.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root (go.mod and bench/go.mod not found)" >&2
	exit 2
fi

build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/bench" build -o "$build/tgbench" ./tgbench
exec "$build/tgbench" "$@"
