#!/usr/bin/env bash
# Builds the workload benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# traced run's span files all stay under .bench_build/ in the current
# directory, so nothing is read from or written to the user's Go caches.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOTELEMETRY=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
