#!/usr/bin/env bash
# Runs every workload end to end and then traced, printing every
# end-to-end and per-layer metric by name with its unit. Run it from the
# repository root:
#
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail

seed=${1:-1}
seconds=${2:-20}
for workload in classify-hot classify-cold insert-durable; do
	for trace in 0 1; do
		bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
	done
done
