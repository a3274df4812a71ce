#!/usr/bin/env bash
# Paired wall-clock comparison of two commits on one benchmark workload.
#
#   scripts/ab.sh <workload> [pairs=10] [base=HEAD~1]
#
# Checks `base` out into a git worktree under target/ab/, builds its bench/
# binary and the working tree's (both --offline), then runs
#   wallbench run --workload W --seed N --seconds 10
# `pairs` times per side, alternating which side goes first, a fresh seed
# per pair. Per end-to-end metric it prints each side's median and
# quartiles, the pairs the change won, and whether the medians are apart by
# more than the base's interquartile distance — the rule a claimed gain has
# to meet (choosing-metrics guide, section 8: at least nine tenths of the
# pairs and medians apart by more than the parent's own spread).
#
# Run it on a quiet machine, never on a shared CI runner.
set -euo pipefail

usage() {
    echo "usage: scripts/ab.sh <workload> [pairs=10] [base=HEAD~1]" >&2
    exit 2
}
[ $# -ge 1 ] && [ $# -le 3 ] || usage
workload=$1
pairs=${2:-10}
base=${3:-HEAD~1}
case $pairs in '' | *[!0-9]* | 0) usage ;; esac

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

cleanup() {
    git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
    git worktree prune
}
trap cleanup EXIT
cleanup
mkdir -p "$root/target/ab"
git worktree add --detach --force "$tree" "$base_sha" >/dev/null

echo "building base ($(git rev-parse --short "$base_sha")) and change (working tree)" >&2
cargo build --release --quiet --offline --manifest-path "$tree/bench/Cargo.toml"
cargo build --release --quiet --offline --manifest-path "$root/bench/Cargo.toml"
# Copies, so that neither a later build nor the worktree's removal can
# swap a binary mid-comparison.
rm -rf "$out"
mkdir -p "$out"
cp "$tree/bench/target/release/wallbench" "$out/wallbench.base"
cp "$root/bench/target/release/wallbench" "$out/wallbench.change"

run() { # side seed
    (cd "$out" && "./wallbench.$1" run --workload "$workload" --seed "$2" --seconds 10) |
        awk -v side="$1" -v seed="$2" -F'"' '
            $2 == "workload" && $6 == "metric" {
                split($11, v, /[:,]/); print side, seed, $8, v[2]
            }
            $2 == "correct" { if ($0 !~ /"failed":0,/) bad = 1 }
            END { exit bad }' >>"$out/samples.txt" ||
        { echo "ab.sh: $1 failed operations at seed $2" >&2; exit 1; }
}

# Seeds differ per pair and per invocation, so a change is never accepted
# on the seeds it was written against.
seed0=$(($(date +%s) % 100000))
for i in $(seq 1 "$pairs"); do
    seed=$((seed0 + i))
    if [ $((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
    for side in $order; do
        echo "pair $i/$pairs seed $seed: $side" >&2
        run "$side" "$seed"
    done
done

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
