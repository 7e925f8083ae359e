#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it writes (the binary, the Go build cache, trace files) stays
# under benchmark/.build and benchmark/out, which git ignores. Run from a
# directory without the repo's go.mod and sources, the build fails and the
# script exits non-zero without a result line.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/benchmark/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOENV=off GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
