#!/usr/bin/env bash
# Paired A/B run of one benchmark workload — or of all of them — a parent
# commit against HEAD, decided by the rule the pipeline applies to a
# claimed gain.
#
#   scripts/ab.sh <parent-ref> <workload|all> [pairs=10]
#
# Each commit's files are exported in turn into the same checkout,
# target/ab/src (the change side is HEAD, plus tracked and staged edits if
# the tree is dirty; untracked files are not measured), and its benchmark/
# is built there once into a target directory of its own: cargo's symbol
# hashes include the source path, so the same source built at two paths
# orders its functions differently and reads about 1 % apart. The two
# binaries are then run directly, with the arguments run.sh passes, in
# alternating pairs — who goes first flips every pair, both sides of a
# pair share a fresh seed, the run length is BENCHMARK.json's. For every end-to-end
# metric it prints each side's median and quartiles, the pairs each side
# won (ties count for neither), and whether the medians differ by more
# than the distance between the parent's own quartiles. A gain may be
# claimed when the change wins at least nine tenths of the pairs and that
# last column says yes. Runs that end "correct": false or with failed
# operations are counted and reported.
#
# `all` runs BENCHMARK.json's workloads in turn (same two builds) and ends
# with the tables of all of them and one summary line per workload: per
# metric "gain" (the claim rule holds), "identical", "within bound",
# "unresolved" (the parent's own quartile distance exceeds the metric's
# bound and the two sides' runs interleave) or "REGRESSION" (the change's
# median is worse than the parent's by more than the bound).
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 2 ] || { sed -n '2,7p' "$0" >&2; exit 2; }
parent_ref=$1
workloads=$2
pairs=${3:-10}
if [ "$workloads" = all ]; then
    workloads=$(awk '
        /"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 }
        on && /"name"/ { gsub(/[",]/, ""); printf "%s ", $2 }' BENCHMARK.json)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
root=$PWD/target/ab

declare -A ref
ref[parent]=$(git rev-parse --verify "$parent_ref^{commit}")
# With a dirty tree the change side is HEAD plus every tracked or staged
# edit (a throw-away stash commit; nothing in the tree or index moves).
ref[change]=$(git stash create)
[ -n "${ref[change]}" ] || ref[change]=$(git rev-parse --verify HEAD)

for side in parent change; do
    rm -rf "$root/src"
    mkdir -p "$root/src"
    git archive "${ref[$side]}" | tar -x -C "$root/src"
    CARGO_TARGET_DIR=$root/$side-target cargo build --release --offline --quiet \
        --manifest-path "$root/src/benchmark/Cargo.toml"
done

# One run with the arguments run.sh passes to the binary it builds; the
# last stdout line is the JSON result.
run_side() { # workload side seed
    "$root/$2-target/release/glp4nn-benchmark" \
        --workload "$1" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1
}

run_pairs() { # workload
    local results=$root/$1.results i side order base
    : >"$results"
    base=$(($(date +%s) % 100000 * 100))
    echo "ab: ${ref[parent]:0:7} (parent) vs ${ref[change]:0:7} (change)," \
        "$1, $pairs pairs of ${seconds}s, seeds $((base + 1))..$((base + pairs))" >&2
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            printf '%s %s %s\n' "$i" "$side" "$(run_side "$1" "$side" $((base + i)))" >>"$results"
        done
        echo "ab: $1 pair $i/$pairs done ($order)" >&2
    done
}

# name:better:bound for each end-to-end metric, in BENCHMARK.json order.
metrics=$(awk '
    /"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
    on && /"name"/   { gsub(/[",]/, ""); name = $2 }
    on && /"better"/ { gsub(/[",]/, ""); better = $2 }
    on && /"bound"/  { gsub(/[",]/, ""); printf "%s:%s:%s ", name, better, $2 }' BENCHMARK.json)

# The table of one workload, then its summary line (prefixed "ab-summary:").
report() { # workload
    awk -v metrics="$metrics" -v workload="$1" '
function value(line, name,    at, rest) {
    at = index(line, "\"" name "\": {\"value\": ")
    if (!at) return "nan"
    rest = substr(line, at + length(name) + 14)
    sub(/[,}].*/, "", rest)
    return rest + 0
}
# Quantile q of v[1..n] (sorted in place), linear interpolation.
function quantile(v, n, q,    i, j, t, h, lo) {
    for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
    h = 1 + (n - 1) * q; lo = int(h)
    return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
{
    pair = $1; side = $2
    line[side, pair] = $0
    if (pair > pairs) pairs = pair
    if ($0 !~ /"correct": true/) bad[side]++
    if ($0 !~ /"failed": 0[,}]/) failed[side]++
}
END {
    printf "%s\n%-12s %-7s %12s %12s %12s   %s\n", workload, "metric", "side", "q1", "median", "q3", "verdict"
    n = split(metrics, m, " ")
    summary = ""
    for (k = 1; k <= n; k++) {
        split(m[k], nb, ":"); name = nb[1]; higher = (nb[2] == "higher"); bound = nb[3] + 0
        win["parent"] = win["change"] = 0
        amin = bmin = 1e300; amax = bmax = -1e300
        for (p = 1; p <= pairs; p++) {
            a[p] = value(line["parent", p], name); b[p] = value(line["change", p], name)
            if (a[p] < amin) amin = a[p]; if (a[p] > amax) amax = a[p]
            if (b[p] < bmin) bmin = b[p]; if (b[p] > bmax) bmax = b[p]
            if (a[p] == b[p]) continue
            win[(b[p] > a[p]) == higher ? "change" : "parent"]++
        }
        aq1 = quantile(a, pairs, 0.25); amed = quantile(a, pairs, 0.5); aq3 = quantile(a, pairs, 0.75)
        bq1 = quantile(b, pairs, 0.25); bmed = quantile(b, pairs, 0.5); bq3 = quantile(b, pairs, 0.75)
        diff = bmed - amed; if (diff < 0) diff = -diff
        printf "%-12s %-7s %12.6g %12.6g %12.6g\n", name, "parent", aq1, amed, aq3
        printf "%-12s %-7s %12.6g %12.6g %12.6g   change/parent %.3f, won %d-%d of %d, beyond parent quartile distance: %s\n", \
            name, "change", bq1, bmed, bq3, (amed ? bmed / amed : 0), win["change"], win["parent"], pairs, \
            (diff > aq3 - aq1 ? "yes" : "no")
        # How much worse the change median is, relative to the parent median.
        worse = amed ? (higher ? amed - bmed : bmed - amed) / amed : 0
        all_better = higher ? bmin > amax : bmax < amin
        if (amin == amax && bmin == bmax && amin == bmin) status = "identical"
        else if (worse < 0 && win["change"] >= 0.9 * pairs && diff > aq3 - aq1)
            status = sprintf("gain %.3fx %d-%d", (higher ? bmed / amed : amed / bmed), win["change"], win["parent"])
        else if (worse > bound) status = sprintf("REGRESSION %+.1f%%", -100 * worse)
        else if (amed && (aq3 - aq1) / amed > bound && !all_better) status = "unresolved"
        else status = sprintf("within bound (%+.1f%%)", -100 * worse)
        summary = summary sprintf("%s%s %s", (k > 1 ? "; " : ""), name, status)
    }
    printf "incorrect runs: parent %d, change %d; runs with failed operations: parent %d, change %d\n", \
        bad["parent"], bad["change"], failed["parent"], failed["change"]
    printf "ab-summary: %-13s %s; incorrect or failed runs %d\n", workload ":", summary, \
        bad["parent"] + bad["change"] + failed["parent"] + failed["change"]
}' "$root/$1.results"
}

# Measure every workload first, report after: the tables end up together,
# followed by one line per workload.
for w in $workloads; do run_pairs "$w"; done
for w in $workloads; do report "$w"; done | awk '
    /^ab-summary: / { sub(/^ab-summary: /, ""); lines = lines $0 "\n"; next } { print }
    END { printf "%s", lines }'
