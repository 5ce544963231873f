#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the repository
# root. Everything the build writes (compiler cache, temporary files, the
# binary) stays under .bench_build/, which .gitignore names.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
export BENCH_COMMIT="${BENCH_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
go build -C bench -o "$build/rbaybench" .
exec "$build/rbaybench" "$@"
