#!/usr/bin/env bash
# Dead dependency edges: prints `<package> -> <lib>` for every normal or dev
# dependency that no source file of the package's targets names as
# `<lib>::`, `use <lib>` or `<lib>!`, and exits 1 if it printed any. A
# target's sources are the `.rs` files under its entry file's directory, as
# `cargo metadata --no-deps` reports it (so `glp4nn-bench` also reads the
# root tests/ and examples/). Needs `jq`.
# Usage: scripts/deps.sh [repo-root]   (default: this checkout)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

unused=$(cargo metadata --no-deps --format-version 1 --offline | jq -r '.packages[]
    | .name as $pkg
    | ([.targets[].src_path | sub("/[^/]*$"; "")] | unique | join(" ")) as $dirs
    | .dependencies[] | select(.kind == null or .kind == "dev")
    | [$pkg, (.rename // .name | gsub("-"; "_")), $dirs] | @tsv' |
    while IFS=$'\t' read -r pkg lib dirs; do
        # shellcheck disable=SC2086 # $dirs is a list of directories
        grep -rqE --include='*.rs' "\\b$lib(::|!)|\\buse $lib\\b" $dirs ||
            echo "$pkg -> $lib"
    done)
if [ -n "$unused" ]; then
    echo "$unused"
    exit 1
fi
