#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the repository root:
#
#	bash perfbench/run.sh --workload study --seed 26 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# current directory, the Go build cache included.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" GOTOOLCHAIN=local
cd "$root/perfbench"
go build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" -root "$root" "$@"
