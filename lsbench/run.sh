#!/usr/bin/env bash
# Builds the benchmark and the livesecd daemon from the checkout, then
# runs one workload. Run from the root of a checkout:
#
#   bash lsbench/run.sh --workload setup_churn --seed 1 --seconds 12 --trace 0
#
# Everything it builds or caches stays under .bench_build/ in the
# checkout. Building happens before the benchmark starts, so it never
# counts toward a measured set-up time.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local

go build -o "$out/livesecd" ./cmd/livesecd
(cd lsbench && go build -o "$out/lsbench" .)
exec "$out/lsbench" -livesecd "$out/livesecd" -workdir "$out" "$@"
