#!/usr/bin/env bash
# Builds eeserve and the benchmark from the sources of this checkout and
# runs one workload once. Run from the root of the checkout:
#
#   bash benchmark/run.sh --workload window-cold --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays inside the checkout:
# binaries, the go build cache and run scratch under .bench_build/,
# server logs and trace files under benchmark/out/.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOPATH=$build/go-path GOTMPDIR=$build/tmp
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go build -o "$build/eeserve" ./cmd/eeserve
go -C benchmark build -o "$build/eeload" .

exec "$build/eeload" -eeserve "$build/eeserve" -work "$build/work" -out "$root/benchmark/out" "$@"
