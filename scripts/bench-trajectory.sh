#!/usr/bin/env bash
# bench-trajectory.sh — measure the serving-stack performance trajectory.
#
# Runs the tier-1 serving benchmarks (store lookup hit, miss and crafted
# miss, transports, WAL replay, store throughput), boots a real durable
# npnserve with metrics on, drives a short classify loadgen against it,
# and folds both into one schema-stable JSON document (see
# cmd/benchtraj) whose p50/p99 come from the server's own latency
# histogram.
#
# Usage:
#   scripts/bench-trajectory.sh [out.json]
#
# Environment:
#   BENCHTIME  go test -benchtime (default 1x: compile-and-run-once in CI;
#              use e.g. 2s for a real measurement)
#   BASELINE   when set, diff out.json against this committed baseline and
#              fail on a real p99 regression (benchtraj check)
#   ADDR       loadgen server address (default 127.0.0.1:18099)
#   REQUESTS   loadgen batches (default 200)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_serve.new.json}
BENCHTIME=${BENCHTIME:-1x}
ADDR=${ADDR:-127.0.0.1:18099}
REQUESTS=${REQUESTS:-200}

WORK=$(mktemp -d)
PID=""
cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/npnserve" ./cmd/npnserve
go build -o "$WORK/benchtraj" ./cmd/benchtraj

echo "== benchmarks (benchtime=$BENCHTIME)"
go test -run '^$' -bench 'StoreLookup|TransportClassify|WALReplay|StoreThroughput' \
  -benchtime "$BENCHTIME" -benchmem . | tee "$WORK/bench.txt"

echo "== loadgen against a live durable server on $ADDR"
"$WORK/npnserve" -addr "$ADDR" -data "$WORK/data" -fsync-interval 5ms &
PID=$!
scripts/wait-healthz.sh "http://$ADDR"
"$WORK/benchtraj" emit -bench "$WORK/bench.txt" -url "http://$ADDR" \
  -benchtime "$BENCHTIME" -requests "$REQUESTS" > "$OUT"
kill "$PID" && wait "$PID" 2>/dev/null || true
PID=""

echo "== wrote $OUT"
if [ -n "${BASELINE:-}" ]; then
  echo "== diffing against $BASELINE"
  "$WORK/benchtraj" check -baseline "$BASELINE" -current "$OUT"
fi
