#!/usr/bin/env bash
# CI gate. In order:
# - formatting and the size ratchet: scripts/loc.sh's totals (non-test
#   lines, `pub fn`, panic sites) must not exceed scripts/loc.baseline, so a
#   PR that grows the library or adds a panic site raises the baseline on
#   purpose;
# - one integration-test binary per package: no package may have more than
#   one target of kind `test` (targets, not files: the root tests/*.rs are
#   modules of the one tests/integration.rs, a crate's are modules of its
#   tests/integration/main.rs);
# - no dead dependency edge: scripts/deps.sh fails when a normal or dev
#   dependency is never named in its package's sources;
# - clippy and rustdoc with warnings denied, release build, full test
#   suite;
# - the seven wall-clock-free smokes, diffed against tests/golden/smoke/:
#   serving (dynamic batching over one replica; asserts GLP4NN throughput >=
#   naive),
#   sanitize (zero diagnostics, 4 nets x 3 dispatch modes under full
#   happens-before checking), lint (zero correctness findings, at least one
#   certified capture), interop (waves beat per-layer GLP4NN on branchy nets
#   x 3 GPUs, zero sanitizer reports, bitwise-identical trained weights),
#   replay (replayed ExecPlan timelines identical to imperative dispatch),
#   multi-gpu (data-parallel scaling over the fabric), fleet (JSQ >= RR on
#   SLO attainment, zero sanitizer reports, an up-then-down autoscale run;
#   emits a fleet Chrome trace);
# - the full `reproduce serving` sweep, diffed against
#   tests/golden/serving_full.txt;
# - `reproduce trace --smoke` (Chrome traces for 4 nets x 3 modes plus a
#   multi-GPU overlap run), its stdout (span/instant/flow/byte counts per
#   trace and the multi-GPU metrics snapshot) diffed against
#   tests/golden/smoke/trace.txt, then every emitted trace file round-trips
#   through the standalone validate-trace binary;
# - the standalone benchmark crate is built and tested, so a library change
#   that breaks the API it pins fails here; all five of its workloads then
#   run at the minimum length, because run.sh exits non-zero when any digest
#   in benchmark/expected_digests.txt moves; train-steady's peak RSS must
#   stay under 120 MB (timing-only runs allocate no tensors).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
read -r _ lines fns panics < <(bash scripts/loc.sh | tail -n 1)
max_lines=$(awk '$1 == "lines" { print $2 }' scripts/loc.baseline)
max_fns=$(awk '$1 == "pub_fn" { print $2 }' scripts/loc.baseline)
max_panics=$(awk '$1 == "panic_sites" { print $2 }' scripts/loc.baseline)
if [ "$lines" -gt "$max_lines" ] || [ "$fns" -gt "$max_fns" ] ||
    [ "$panics" -gt "$max_panics" ]; then
    echo "ci: scripts/loc.sh totals ($lines lines, $fns pub fn, $panics panic sites)" \
        "exceed scripts/loc.baseline ($max_lines, $max_fns, $max_panics)" >&2
    exit 1
fi
multi=$(cargo metadata --no-deps --format-version 1 --offline | jq -r '.packages[]
    | select([.targets[] | select(.kind == ["test"])] | length > 1) | .name')
if [ -n "$multi" ]; then
    echo "ci: more than one integration-test target in package(s):" $multi >&2
    exit 1
fi
if ! unused=$(bash scripts/deps.sh); then
    echo "ci: dependencies no source names (delete the manifest line):" $unused >&2
    exit 1
fi
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
cargo build --workspace --release
cargo test --workspace -q
for smoke in serving sanitize lint interop replay multi-gpu fleet; do
    cargo run -p glp4nn-bench --release --bin reproduce -- "$smoke" --smoke |
        diff "tests/golden/smoke/$smoke.txt" -
done
cargo run -p glp4nn-bench --release --bin reproduce -- serving |
    diff tests/golden/serving_full.txt -
cargo run -p glp4nn-bench --release --bin reproduce -- trace --smoke |
    diff tests/golden/smoke/trace.txt -
cargo run -p telemetry --release --bin validate-trace -- target/telemetry/*.trace.json

# The benchmark crate is a workspace of its own; build it where
# benchmark/run.sh does, inside the ignored target/.
export CARGO_TARGET_DIR="$PWD/target/benchmark"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
(cd benchmark && cargo test --offline)
# The engine's own loop (Device::run), then the fabric's one-worker loop
# (Fabric::run at the default workers = 1; the lookahead rounds that call
# step_until run only in the traced multi-gpu body and fabric_determinism).
# train-steady is timing-only: it reads no tensor, so with first-touch blob
# storage CaffeNet's ~60 M weights are never allocated (49 MB peak; 338 MB
# when storage was eager). The gate keeps eager storage from creeping back.
steady=$(bash benchmark/run.sh --workload train-steady --seed 1 --seconds 1 --trace 0 | tail -n 1)
rss=$(sed -n 's/.*"peak_rss_mb": {"value": \([0-9.]*\).*/\1/p' <<<"$steady")
if ! awk -v rss="$rss" 'BEGIN { exit !(rss != "" && rss <= 120) }'; then
    echo "ci: train-steady peak_rss_mb is '$rss', over the 120 MB gate: $steady" >&2
    exit 1
fi
bash benchmark/run.sh --workload multi-gpu --seed 1 --seconds 1 --trace 0 >/dev/null
# The other two engine-bound workloads: idle-gap serving bursts, and cold
# contexts whose dispatch sites profile and capture on scratch devices.
bash benchmark/run.sh --workload fleet-serve --seed 1 --seconds 1 --trace 0 >/dev/null
bash benchmark/run.sh --workload cold-capture --seed 1 --seconds 1 --trace 0 >/dev/null
# Real f32 steps: seed 1 is the seed whose trained-weights digest is pinned.
bash benchmark/run.sh --workload train-math --seed 1 --seconds 1 --trace 0 >/dev/null

echo "ci: all checks passed"
