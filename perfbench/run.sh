#!/usr/bin/env bash
# Builds npnserve and the benchmark from the checkout this is run in, then
# runs the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload classify-hot --seed 1 --seconds 10 --trace 0
#
# Build products, the Go build cache, server data and span files all stay
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOFLAGS= GOPROXY=off GOWORK=off \
	GOTOOLCHAIN=local
go build -buildvcs=false -o "$out/npnserve" ./cmd/npnserve
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -npnserve "$out/npnserve" -workdir "$out/run" "$@"
