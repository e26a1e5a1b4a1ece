#!/usr/bin/env bash
# CI gate: formatting, lints, build, full test suite, the serving smoke
# sweep (deterministic; asserts GLP4NN throughput >= naive), the
# schedule-sanitizer smoke matrix (asserts zero diagnostics across
# 4 nets x 3 dispatch modes under full happens-before checking), the
# plan-linter smoke matrix (symbolic disjointness certificates plus
# performance lints; asserts zero correctness findings and at least one
# certified capture), the
# inter-operator smoke sweep (whole-net wave co-scheduling on branchy
# nets x 3 GPUs; asserts waves beat per-layer GLP4NN everywhere, zero
# sanitizer reports, bitwise-identical trained weights), the
# plan-replay smoke matrix (asserts replayed ExecPlan timelines are
# identical to imperative dispatch for 4 nets x 3 modes), the fleet
# smoke sweep (sanitized multi-replica serving: asserts JSQ >= RR on SLO
# attainment, zero sanitizer reports, and an up-then-down autoscale run;
# emits a fleet Chrome trace), and the telemetry trace smoke (emits
# Chrome traces for 4 nets x 3 modes plus a multi-GPU overlap run, then
# round-trips every emitted file — fleet trace included — through the
# standalone validate-trace binary). The five wall-clock-free smokes
# (replay, interop, lint, sanitize across the dispatch path; multi-gpu
# across the fabric) are diffed against tests/golden/smoke/, and the
# standalone benchmark crate is built
# and tested so a library change that breaks the API it pins fails here;
# three of its workloads then run at the minimum length, because run.sh exits
# non-zero when any digest in benchmark/expected_digests.txt moves.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --workspace --release
cargo test --workspace -q
cargo run -p glp4nn-bench --release --bin reproduce -- serving --smoke
for smoke in sanitize lint interop replay multi-gpu; do
    cargo run -p glp4nn-bench --release --bin reproduce -- "$smoke" --smoke |
        diff "tests/golden/smoke/$smoke.txt" -
done
cargo run -p glp4nn-bench --release --bin reproduce -- fleet --smoke
cargo run -p glp4nn-bench --release --bin reproduce -- trace --smoke
cargo run -p telemetry --release --bin validate-trace -- target/telemetry/*.trace.json

# The benchmark crate is a workspace of its own; build it where
# benchmark/run.sh does, inside the ignored target/.
export CARGO_TARGET_DIR="$PWD/target/benchmark"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
(cd benchmark && cargo test --offline)
# The engine's own loop (Device::run), then the fabric's one-worker loop
# (Fabric::run at the default workers = 1; the lookahead rounds that call
# step_until run only in the traced multi-gpu body and fabric_determinism).
bash benchmark/run.sh --workload train-steady --seed 1 --seconds 1 --trace 0 >/dev/null
bash benchmark/run.sh --workload multi-gpu --seed 1 --seconds 1 --trace 0 >/dev/null
# Real f32 steps: seed 1 is the seed whose trained-weights digest is pinned.
bash benchmark/run.sh --workload train-math --seed 1 --seconds 1 --trace 0 >/dev/null

echo "ci: all checks passed"
