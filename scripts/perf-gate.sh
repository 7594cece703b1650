#!/usr/bin/env bash
# perf-gate.sh — the performance regression gate. Runs the repository's
# benchmark (BENCHMARK.json) on a parent revision and on the current
# working tree, in alternating pairs on this machine, and fails when the
# change is worse than the parent on some workload × end-to-end metric by
# more than that metric's bound.
#
# Usage: scripts/perf-gate.sh <parent-rev>
# Requires: git, go, jq.
#
# The parent is checked out into a temporary git worktree; the change is
# the working tree as it stands, uncommitted edits included. Everything
# about the benchmark (command, workloads, run length, metrics, bounds)
# comes from the parent's BENCHMARK.json, so a change cannot loosen its
# own gate. Pair i of every workload runs both sides with SEEDS[i]; odd
# pairs run the parent first and even pairs the change, which cancels the
# penalty a second back-to-back run pays. Per workload × metric the gate
# prints the parent's median and quartiles, the change's median, the
# change relative to the parent's median (positive = worse), the bound
# and a verdict:
#   ok          within the bound;
#   fail        worse than the parent by more than the bound;
#   unresolved  the parent's own quartile spread over its median is wider
#               than the bound, so the runs cannot tell; printed, not
#               failed.
# It also fails at once when a run exits non-zero, prints correct:false
# or lacks a metric, and after the pairs when the change's share of
# failed requests exceeds the parent's. Each run's output is kept in
# .bench_build/perf-gate/ of the working tree.
set -euo pipefail

# One seed per pair. Ten pairs is the least a gain or no-regression claim
# rests on. Five were too few: on a 2-vCPU host the parent's own
# insert-durable spread reached 33% of its median on fn_per_s and 30% on
# setup_s, wider than the 25% bounds, so both read unresolved. When an A/A
# run (scripts/perf-gate.sh HEAD on a clean tree) reads unresolved or
# fail, add seeds here; never widen a bound or shorten a run.
SEEDS=(1 2 3 4 5 6 7 8 9 10)

[ $# -eq 1 ] || { echo "usage: scripts/perf-gate.sh <parent-rev>" >&2; exit 2; }
cd "$(dirname "$0")/.."
change=$(pwd)
rev=$(git rev-parse --verify --quiet "$1^{commit}") ||
  { echo "perf-gate: $1 is not a commit" >&2; exit 2; }

tmp=$(mktemp -d)
parent="$tmp/parent"
cleanup() {
  git -C "$change" worktree remove --force "$parent" 2>/dev/null || true
  rm -rf "$tmp"
  git -C "$change" worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM
git worktree add --quiet --detach "$parent" "$rev"

bench="$parent/BENCHMARK.json"
seconds=$(jq -er '.run_seconds' "$bench")
mapfile -t cmd < <(jq -r '.command[]' "$bench")
mapfile -t workloads < <(jq -r '.workloads[].name' "$bench")

out="$change/.bench_build/perf-gate"
rm -rf "$out"
mkdir -p "$out"
runs="$out/runs.jsonl"

# run SIDE DIR WORKLOAD PAIR SEED: one benchmark run from DIR's root. Its
# output goes to $out; its result line, tagged, is appended to $runs.
run() {
  local side=$1 dir=$2 w=$3 pair=$4 seed=$5
  local log="$out/$w.$pair.$side"
  echo "perf-gate: $w pair $pair/${#SEEDS[@]} seed $seed: $side" >&2
  if ! (cd "$dir" && "${cmd[@]}" --workload "$w" --seed "$seed" \
    --seconds "$seconds" --trace 0) >"$log.out" 2>"$log.err"; then
    tail -n 20 "$log.out" "$log.err" >&2
    echo "perf-gate: FAIL: the $side run of $w seed $seed exited non-zero" >&2
    exit 1
  fi
  local res
  res=$(tail -n 1 "$log.out")
  if ! jq -e '.correct == true' <<<"$res" >/dev/null 2>&1; then
    tail -n 20 "$log.out" >&2
    echo "perf-gate: FAIL: the $side run of $w seed $seed is not correct" >&2
    exit 1
  fi
  local missing
  missing=$(jq -rn --argjson r "$res" --slurpfile b "$bench" \
    '[$b[0].end_to_end[].name | select(($r.metrics[.].value | type) != "number")] | join(" ")')
  if [ -n "$missing" ]; then
    echo "perf-gate: FAIL: the $side run of $w seed $seed lacks $missing" >&2
    exit 1
  fi
  jq -c --arg side "$side" --arg w "$w" --argjson seed "$seed" \
    '{side: $side, workload: $w, seed: $seed} + .' <<<"$res" >>"$runs"
}

for w in "${workloads[@]}"; do
  for i in "${!SEEDS[@]}"; do
    pair=$((i + 1)) seed=${SEEDS[$i]}
    if ((pair % 2 == 1)); then
      run parent "$parent" "$w" "$pair" "$seed"
      run change "$change" "$w" "$pair" "$seed"
    else
      run change "$change" "$w" "$pair" "$seed"
      run parent "$parent" "$w" "$pair" "$seed"
    fi
  done
done

# The verdicts. Quartiles interpolate linearly between order statistics.
jq -rn --slurpfile b "$bench" --slurpfile r "$runs" '
  def q($p): sort as $s | ((($s | length) - 1) * $p) as $h | ($h | floor) as $i
    | if $i + 1 < ($s | length) then $s[$i] + ($h - $i) * ($s[$i + 1] - $s[$i]) else $s[$i] end;
  def rel($x; $base): if $base == 0 then (if $x == 0 then 0 else 1e9 end) else $x / $base end;
  def frac($side): [$r[] | select(.side == $side)] | rel(map(.failed) | add; map(.attempted) | add);
  ["workload", "metric", "parent_med", "q1", "q3", "spread", "change_med", "worse", "bound", "verdict"],
  ($b[0].workloads[].name as $w | $b[0].end_to_end[] as $m
   | [$r[] | select(.workload == $w and .side == "parent") | .metrics[$m.name].value] as $pv
   | [$r[] | select(.workload == $w and .side == "change") | .metrics[$m.name].value] as $cv
   | ($pv | q(0.5)) as $pm | ($cv | q(0.5)) as $cm
   | rel(($pv | q(0.75)) - ($pv | q(0.25)); $pm) as $spread
   | rel(if $m.better == "higher" then $pm - $cm else $cm - $pm end; $pm) as $worse
   | [$w, $m.name, $pm, ($pv | q(0.25)), ($pv | q(0.75)), $spread, $cm, $worse, $m.bound,
      if $spread > $m.bound then "unresolved" elif $worse > $m.bound then "fail" else "ok" end]),
  (frac("parent") as $p | frac("change") as $c
   | ["all", "fail_frac", $p, $p, $p, 0, $c, $c - $p, 0, if $c > $p then "fail" else "ok" end])
  | @tsv' |
  awk -F'\t' '
    NR == 1 { printf "%-15s %-21s %11s %11s %11s %7s %11s %8s %6s  %s\n", $1, $2, $3, $4, $5, $6, $7, $8, $9, $10; next }
    { printf "%-15s %-21s %11.5g %11.5g %11.5g %6.1f%% %11.5g %+7.1f%% %5.0f%%  %s\n", $1, $2, $3, $4, $5, 100 * $6, $7, 100 * $8, 100 * $9, $10 }' |
  tee "$out/report.txt"

if grep -q ' fail$' "$out/report.txt"; then
  echo "perf-gate: FAIL: the change is worse than $1 beyond a bound" >&2
  exit 1
fi
echo "perf-gate: ok against $1 ($(grep -c ' unresolved$' "$out/report.txt" || true) unresolved)" >&2
