#!/usr/bin/env bash
# Builds the benchmark driver from source into .bench_build/ inside the
# checkout (build cache included, so nothing is written outside it) and runs
# it with the arguments given. Run from the root of a checkout:
#   bash benchmark/run.sh --workload c4-steady --seed 1
set -euo pipefail
root=$PWD
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$build/ragobench" .)
exec "$build/ragobench" "$@"
