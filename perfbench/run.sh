#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#	bash perfbench/run.sh --workload phj --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, binary, run records)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -out "$out/runs" "$@"
