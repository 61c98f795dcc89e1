#!/usr/bin/env bash
# Build the `tpn` daemon and the benchmark client from source, then run
# one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold_states --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the last
# line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin tpn >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/tpn-perfbench" \
    --tpn "$CARGO_TARGET_DIR/release/tpn" --out-dir "$CARGO_TARGET_DIR/perfbench" "$@"
