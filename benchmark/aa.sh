#!/usr/bin/env bash
# A/A check of the ruler itself: two complete untraced sets of the same
# build, then per end-to-end metric and workload both values, their relative
# difference, the metric's bound, and ok / unresolved. Exits non-zero if any
# pair differs by more than the bound: such a metric cannot resolve a
# regression of that size on this machine.
#
#   benchmark/aa.sh [--quick] [--seed N] [--out DIR]
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
if [ -z "$out" ]; then
    out="$CARGO_TARGET_DIR/benchmark-aa"
    rm -rf "$out"
fi
mkdir -p "$out"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/benchmark"
workloads="hotspot hotspot_ww ycsb_zipf tpcc_1wh durable_transfer"

for set in a b; do
    for workload in $workloads; do
        echo "set $set: $workload" >&2
        "$bin" --workload "$workload" --seed "$seed" --trace 0 "${quick[@]}" \
            > "$out/$workload.$set.txt"
    done
done

# name -> bound, from the manifest's end_to_end rows.
"$bin" --print-manifest | sed -n 's/.*"name": "\([^"]*\)".*"bound": \([0-9.]*\).*/\1 \2/p' \
    > "$out/bounds.txt"

printf '%-18s %-20s %16s %16s %9s %7s  %s\n' workload metric set_a set_b diff bound verdict
unresolved=0
for workload in $workloads; do
    while read -r metric bound; do
        a=$(awk -v m="$metric" '$1 == "metric" && $2 == m { print $3 }' "$out/$workload.a.txt")
        b=$(awk -v m="$metric" '$1 == "metric" && $2 == m { print $3 }' "$out/$workload.b.txt")
        # A metric one of the runs did not print is not a metric that agrees.
        if [ -z "$a" ] || [ -z "$b" ]; then
            printf '%-18s %-20s %16s %16s %9s %6.0f%%  %s\n' \
                "$workload" "$metric" "${a:-missing}" "${b:-missing}" - "$(awk -v b="$bound" 'BEGIN { print 100 * b }')" unresolved
            unresolved=1
            continue
        fi
        line=$(awk -v a="$a" -v b="$b" -v bound="$bound" 'BEGIN {
            d = a - b; if (d < 0) d = -d
            base = a < b ? a : b
            rel = base > 0 ? d / base : (d > 0 ? 1 : 0)
            printf "%16.4f %16.4f %8.2f%% %6.0f%%  %s", a, b, 100 * rel, 100 * bound,
                   rel <= bound ? "ok" : "unresolved"
        }')
        printf '%-18s %-20s %s\n' "$workload" "$metric" "$line"
        case "$line" in *unresolved) unresolved=1 ;; esac
    done < "$out/bounds.txt"
done
exit "$unresolved"
