#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#
#   bash perfbench/run.sh --workload coupled-r15 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, temporary build files
# and the binary live in .bench_build/ at the root, so a run reads and
# writes nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
