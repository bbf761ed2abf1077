#!/usr/bin/env bash
# Regenerates every table and figure of the evaluation (DESIGN.md §4).
# Usage: scripts/run_all_experiments.sh [small|standard|large]
set -euo pipefail
SCALE="${1:-standard}"
cd "$(dirname "$0")/.."
cargo build --release -p streamlink-bench --bins
for exp in exp_datasets exp_accuracy exp_quality exp_throughput exp_memory \
           exp_progress exp_latency exp_baseline exp_ablation exp_scale exp_lsh exp_bbit exp_robust exp_window exp_faultmatrix exp_replication exp_failover exp_overhead exp_loadgen; do
    echo "=== $exp ($SCALE) ==="
    "./target/release/$exp" --scale "$SCALE"
    echo
done
./target/release/exp_report > results/report.md
echo "All experiment outputs written to results/*.jsonl (markdown: results/report.md)"
