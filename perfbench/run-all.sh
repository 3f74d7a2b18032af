#!/usr/bin/env bash
# Runs every workload once untraced and once traced, printing every
# end-to-end and per-layer metric. Stops with a non-zero exit code at the
# first failed correctness check.
#
# usage: perfbench/run-all.sh [SEED] [SECONDS]
set -euo pipefail
seed=${1:-1}
seconds=${2:-30}
cd "$(dirname "$0")/.."
for workload in arrive churn serve; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
