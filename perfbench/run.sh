#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload jobs-sparse --seed 1 --seconds 40 --trace 0
#
# The Go build cache, the binary, and all scratch files stay under
# .bench_build/ in the working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
export GOMODCACHE="$out/gomodcache"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
