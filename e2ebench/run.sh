#!/usr/bin/env bash
# Builds the end-to-end rescqd benchmark from source and runs it with the
# given arguments, from the root of a checkout:
#
#   bash e2ebench/run.sh --workload sweep_cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind (Go build cache, temporary
# build files, the binary, WAL directories, trace files) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
