#!/usr/bin/env bash
# loc.sh — the non-test Go line count ROADMAP.md tracks.
#
# Counts the lines of every *.go file in the repository except test files
# (*_test.go), test data (anything under a testdata/ directory), the
# benchmark (perfbench/), its build directory (.bench_build/) and .git/.
# Prints one number.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find . \( -path ./.git -o -path ./perfbench -o -path ./.bench_build -o -name testdata \) -prune \
  -o -type f -name '*.go' ! -name '*_test.go' -print0 |
  xargs -0 cat | wc -l | tr -d ' '
