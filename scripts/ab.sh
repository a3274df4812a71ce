#!/usr/bin/env bash
# Paired comparison of two commits on one benchmark workload.
#
#   scripts/ab.sh <workload> [pairs=10] [base=HEAD~1]
#   scripts/ab.sh --trace <workload> [pairs=3] [base=HEAD~1] [seed=42]
#
# Exports `base` (git archive, so no checkout or worktree is touched) into
# target/ab/base, builds its bench/ binary and the working tree's (both
# --offline), then runs them `pairs` times per side, alternating which side
# goes first.
#
# Without --trace each run is
#   wallbench run --workload W --seed N --seconds 10
# with a fresh seed per pair. Per end-to-end metric it prints each side's
# median and quartiles, the pairs the change won, and whether the medians
# are apart by more than the base's interquartile distance — the rule a
# claimed gain has to meet (choosing-metrics guide, section 8: at least nine
# tenths of the pairs and medians apart by more than the parent's own
# spread).
#
# With --trace each run is
#   wallbench trace --workload W --seed SEED
# on one seed, so both sides do the same work. Per per-layer metric whose
# medians differ it prints each side's median and range — the "where did
# the saving go" table — and it flags every count that has to repeat
# exactly (memsim.accesses, memsim.cpu_ms, engine.rows_*, engine.leaves_*)
# and does not.
#
# Run it on a quiet machine, never on a shared CI runner.
set -euo pipefail

usage() {
    echo "usage: scripts/ab.sh <workload> [pairs=10] [base=HEAD~1]" >&2
    echo "       scripts/ab.sh --trace <workload> [pairs=3] [base=HEAD~1] [seed=42]" >&2
    exit 2
}
mode=run
if [ "${1:-}" = --trace ]; then
    mode=trace
    shift
fi
[ $# -ge 1 ] && [ $# -le 4 ] || usage
[ $mode = trace ] || [ $# -le 3 ] || usage
workload=$1
pairs=${2:-$([ $mode = trace ] && echo 3 || echo 10)}
base=${3:-HEAD~1}
trace_seed=${4:-42}
case $pairs in '' | *[!0-9]* | 0) usage ;; esac
case $trace_seed in '' | *[!0-9]*) usage ;; esac

# The benchmark pins every knob itself; an inherited MONET_* would be
# refused by wallbench after both builds, so refuse it here first.
if env | grep -q '^MONET_'; then
    echo "ab.sh: unset every MONET_* variable first:" >&2
    env | grep '^MONET_' >&2
    exit 2
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
base_sha=$(git rev-parse --verify "$base^{commit}")
tree="$root/target/ab/base"
out="$root/target/ab/$workload"

trap 'rm -rf "$tree"' EXIT
rm -rf "$tree"
mkdir -p "$tree"
git archive "$base_sha" | tar -x -C "$tree"

echo "building base ($(git rev-parse --short "$base_sha")) and change (working tree)" >&2
cargo build --release --quiet --offline --manifest-path "$tree/bench/Cargo.toml"
cargo build --release --quiet --offline --manifest-path "$root/bench/Cargo.toml"
# Copies, so that neither a later build nor the export's removal can swap a
# binary mid-comparison.
rm -rf "$out"
mkdir -p "$out"
cp "$tree/bench/target/release/wallbench" "$out/wallbench.base"
cp "$root/bench/target/release/wallbench" "$out/wallbench.change"

run() { # side seed wallbench-args...
    local side=$1 seed=$2
    shift 2
    (cd "$out" && "./wallbench.$side" "$@" --workload "$workload" --seed "$seed") |
        awk -v side="$side" -v seed="$seed" -F'"' '
            $2 == "workload" && $6 == "metric" {
                split($11, v, /[:,]/); print side, seed, $8, v[2]
            }
            $2 == "correct" { if ($0 !~ /"failed":0,/) bad = 1 }
            END { exit bad }' >>"$out/samples.txt" ||
        { echo "ab.sh: $side failed operations at seed $seed" >&2; exit 1; }
}

# Seeds of untraced pairs differ per pair and per invocation, so a change is
# never accepted on the seeds it was written against.
seed0=$(($(date +%s) % 100000))
for i in $(seq 1 "$pairs"); do
    if [ $mode = trace ]; then seed=$trace_seed; else seed=$((seed0 + i)); fi
    if [ $((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
    for side in $order; do
        echo "pair $i/$pairs seed $seed: $side" >&2
        if [ $mode = trace ]; then run "$side" "$seed" trace; else run "$side" "$seed" run --seconds 10; fi
    done
done

if [ $mode = trace ]; then
    # side seed metric value -> one row per per-layer metric whose medians
    # differ, then the verdict on the counts that must repeat exactly.
    sort -k3,3 -k1,1 -k4,4g "$out/samples.txt" | awk '
        function flush(    i, s, med, exact, moved) {
            if (metric == "") return
            exact = metric ~ /^(memsim\.(accesses|cpu_ms)$|engine\.(rows|leaves)_)/
            for (i = 1; i <= 2; i++) {
                s = i == 1 ? "base" : "change"
                med[s] = (v[s, int((n[s] + 1) / 2)] + v[s, int(n[s] / 2) + 1]) / 2
                if (v[s, 1] != v[s, n[s]]) moved = 1
            }
            if (v["base", 1] != v["change", 1]) moved = 1
            if (exact) {
                if (moved) {
                    inexact = inexact sprintf("NOT BIT-EQUAL  %-28s base %s..%s  change %s..%s\n", metric,
                        v["base", 1], v["base", n["base"]], v["change", 1], v["change", n["change"]])
                } else equal = equal " " metric
            }
            if (med["base"] != med["change"])
                printf "%-28s base %14.4f [%14.4f %14.4f]  change %14.4f [%14.4f %14.4f]  x%.3f\n",
                    metric, med["base"], v["base", 1], v["base", n["base"]],
                    med["change"], v["change", 1], v["change", n["change"]],
                    med["base"] ? med["change"] / med["base"] : 0
        }
        $3 != metric { flush(); metric = $3; delete v; n["base"] = n["change"] = 0 }
        { v[$1, ++n[$1]] = $4 }
        END {
            flush()
            printf "%s", inexact
            print "bit-equal on every run of both sides:" (equal == "" ? " none" : equal)
        }'
    echo "every run: $out/samples.txt (side seed metric value)" >&2
    exit 0
fi

# side seed metric value -> one table row per end-to-end metric.
for metric in setup_s qps lat_p50_ms lat_p95_ms peak_rss_mb; do
    for side in base change; do
        awk -v s=$side -v m=$metric '$1 == s && $3 == m { print $4 }' "$out/samples.txt" |
            sort -g >"$out/$side.$metric"
    done
    awk -v m=$metric '$3 == m { v[$1, $2] = $4; seeds[$2] }
        END { for (s in seeds) print v["base", s], v["change", s] }' "$out/samples.txt" >"$out/pairs.$metric"
    awk -v m=$metric -v higher="$([ $metric = qps ] && echo 1 || echo 0)" '
        function q(a, n, p,    h, lo) { # linear-interpolated quantile of sorted a[1..n]
            h = (n - 1) * p + 1; lo = int(h)
            return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
        }
        FILENAME ~ /base\.[a-z0-9_]+$/ { b[++nb] = $1; next }
        FILENAME ~ /change\.[a-z0-9_]+$/ { c[++nc] = $1; next }
        { if ($2 != $1) { if (($2 > $1) == (higher == 1)) won++; else lost++ } }
        END {
            bm = q(b, nb, .5); cm = q(c, nc, .5); iqr = q(b, nb, .75) - q(b, nb, .25)
            d = cm - bm; if (d < 0) d = -d
            apart = (d > iqr) ? "more than" : "no more than"
            ratio = bm ? cm / bm : 0
            printf "%-12s base %10.3f [%10.3f %10.3f]  change %10.3f [%10.3f %10.3f]  x%.3f  change won %d lost %d of %d  medians apart by %s base IQR (%.3f)\n",
                m, bm, q(b, nb, .25), q(b, nb, .75), cm, q(c, nc, .25), q(c, nc, .75),
                ratio, won, lost, nb, apart, iqr
        }' "$out/base.$metric" "$out/change.$metric" "$out/pairs.$metric"
done
echo "every run: $out/samples.txt (side seed metric value)" >&2
