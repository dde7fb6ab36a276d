#!/bin/sh
# Run every workload timed (--trace 0) and traced (--trace 1).
# Usage, from the repository root: sh perfbench/all.sh [SEED] [SECONDS]
set -e
seed=${1:-1}
seconds=${2:-50}
for workload in long wide; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace"
    done
done
