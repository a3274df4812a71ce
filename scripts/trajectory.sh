#!/usr/bin/env bash
# Print one benchmark metric across the committed trajectory records.
#
#   scripts/trajectory.sh <metric> <workload>
#
# Each BENCH_<n>.json at the repository root holds the JSON lines that
#   cargo run --release --offline --manifest-path bench/Cargo.toml -- all --seed 42
# printed for the tree of change number n. Prints one line per record, in
# order of n: n and the metric's value there ("-" where the record lacks
# it), and the ratio to the previous record that has it.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: scripts/trajectory.sh <metric> <workload>" >&2; exit 2; }
metric=$1
workload=$2
cd "$(git rev-parse --show-toplevel)"
records=$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n) || true
[ -n "$records" ] || { echo "trajectory.sh: no BENCH_*.json records" >&2; exit 1; }
prev=
for f in $records; do
    n=${f#BENCH_}
    value=$(grep -F "\"workload\":\"$workload\",\"metric\":\"$metric\"," "$f" |
        sed 's/.*"value":\([^,}]*\).*/\1/' | head -n 1)
    if [ -z "$value" ]; then
        echo "${n%.json} -"
        continue
    fi
    echo "${n%.json} $value$(awk -v a="$prev" -v b="$value" 'BEGIN { if (a != "" && a != 0) printf "  x%.3f", b / a }')"
    prev=$value
done
