#!/bin/sh
# Builds the benchmark from source and runs it with the given flags:
#
#   sh benchmark/run.sh --workload sim-grid --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build cache, temporary files
# and the binary stay under .bench_build, so the benchmark reads and
# writes nothing outside the checkout.
set -eu

root=$(pwd)
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/benchmark" ]; then
    echo "benchmark/run.sh: run from the repository root (no go.mod here)" >&2
    exit 2
fi
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
    XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOTELEMETRY=off
go build -o "$out/mpq-benchmark" ./benchmark
exec "$out/mpq-benchmark" "$@"
