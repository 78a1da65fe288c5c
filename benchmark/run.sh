#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there, so that nothing is read or written
# outside the checkout (the Go build cache included).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$root/.bench_build/bingo-benchmark" .
exec "$root/.bench_build/bingo-benchmark" "$@"
