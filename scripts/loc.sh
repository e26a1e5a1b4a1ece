#!/usr/bin/env bash
# Tracked size numbers (ROADMAP north star, "quality of design"): per crate,
# the non-test lines under src/ (everything above each file's first
# unindented `#[cfg(test)]`, the test module's; an indented one gates a
# field or statement of the library) and the number of `pub fn` among them.
# Usage: scripts/loc.sh [repo-root]   (default: this checkout)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

printf '%-12s %8s %7s\n' crate lines 'pub fn'
total_lines=0
total_fns=0
for crate in crates/*/; do
    [ -d "$crate/src" ] || continue
    read -r lines fns < <(
        find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
            FNR == 1 { in_tests = 0 }
            /^#\[cfg\(test\)\]/ { in_tests = 1 }
            !in_tests { lines++; if ($0 ~ /pub fn /) fns++ }
            END { print lines + 0, fns + 0 }'
    )
    printf '%-12s %8d %7d\n' "$(basename "$crate")" "$lines" "$fns"
    total_lines=$((total_lines + lines))
    total_fns=$((total_fns + fns))
done
printf '%-12s %8d %7d\n' total "$total_lines" "$total_fns"
