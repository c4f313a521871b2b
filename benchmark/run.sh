#!/usr/bin/env bash
# Builds the benchmark, runs its unit tests, then the five workloads, one
# process each: untraced (end-to-end metrics), then traced (per-layer
# metrics). Every metric is printed by name with its unit; every correctness
# check is armed.
#
#   benchmark/run.sh [--quick] [--seed N] [--out DIR]
#
# --quick   1 s per workload instead of the benchmark's run length
# --seed    workload seed (default 42; worker i draws from seed+i)
# --out     keep each run's output, and the traced runs' spans, in DIR
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

quick=()
seed=42
out=""
while [ $# -gt 0 ]; do
    case "$1" in
        --quick) quick=(--quick); shift ;;
        --seed) seed="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        *) echo "usage: $0 [--quick] [--seed N] [--out DIR]" >&2; exit 2 ;;
    esac
done
[ -z "$out" ] || mkdir -p "$out"

# The package is outside the repository's workspace, so the workspace's own
# `cargo test` never sees its unit tests (histogram, span arithmetic, and
# BENCHMARK.json == src/metrics.rs): they run here.
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/benchmark"

failed=0
for workload in hotspot hotspot_ww ycsb_zipf tpcc_1wh durable_transfer; do
    for trace in 0 1; do
        echo "== $workload --trace $trace"
        args=(--workload "$workload" --seed "$seed" --trace "$trace" "${quick[@]}")
        if [ -n "$out" ] && [ "$trace" = 1 ]; then
            args+=(--trace-out "$out/$workload.spans.jsonl")
        fi
        # The last line is the driver's result object; the lines before it
        # say the same by name.
        if [ -n "$out" ]; then
            "$bin" "${args[@]}" | tee "$out/$workload.trace$trace.txt" | sed '$d' || failed=1
        else
            "$bin" "${args[@]}" | sed '$d' || failed=1
        fi
    done
done
if [ "$failed" != 0 ]; then
    echo "FAILED: a run exited non-zero (see the FAILED CHECK notes above)" >&2
    exit 1
fi
echo "all runs correct"
