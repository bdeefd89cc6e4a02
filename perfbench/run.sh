#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# repository root, passing every argument through:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
#
# The build cache and binary live in .bench_build/ under the root, so a
# run writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$root/perfbench"
go build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
