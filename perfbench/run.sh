#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. From the
# repository root:
#
#   bash perfbench/run.sh --workload figures|serve|search --seed N --seconds S --trace 0|1
#
# The binary, the Go build cache and every temporary file stay under
# .bench_build/ in the checkout. Without the repository's sources next to
# perfbench/ the build fails and so does this script.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
