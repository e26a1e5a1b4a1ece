#!/usr/bin/env bash
# The repo benchmark, one command: build the benchmark crate, then run it.
#
#   benchmark/run.sh                          all five workloads, a child process each
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                             one workload; last stdout line is the
#                                             JSON result BENCHMARK.json describes
#   benchmark/run.sh --trace [--workload W]   the traced (per-layer) run
#   benchmark/run.sh --agree                  two full sets must agree within bounds
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Build output joins the root workspace's ignored target/ unless the caller
# chose a directory. A relative CARGO_TARGET_DIR is relative to the caller's
# working directory, for cargo and for the exec below alike.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$(dirname "$here")/target/benchmark}"
# Build chatter goes to stderr: stdout ends with the result line.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/glp4nn-benchmark" "$@"
