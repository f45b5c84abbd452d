#!/usr/bin/env bash
# Builds the release `accelwall` binary and the benchmark harness from
# this checkout, then runs one benchmark:
#
#   bash perfbench/run.sh --workload paper_all --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Build output goes to
# $CARGO_TARGET_DIR (default `.bench_build`).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --locked --offline --quiet --manifest-path Cargo.toml --bin accelwall >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
# Not `exec`: the harness reads the peak memory of its own children, and
# an exec'd process would inherit the compilers above as reaped children.
"$CARGO_TARGET_DIR/release/perfbench" --accelwall "$CARGO_TARGET_DIR/release/accelwall" "$@"
