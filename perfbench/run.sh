#!/usr/bin/env bash
# Builds the release `dts` binary and the benchmark harness from source, then
# runs one benchmark workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Both builds share CARGO_TARGET_DIR
# (default .bench_build); build output goes to stderr, so the last line of
# stdout is the harness's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p dts_cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --dts "$CARGO_TARGET_DIR/release/dts" "$@"
