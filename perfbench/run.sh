#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload sim-flood --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go build -C "$root/perfbench" -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
