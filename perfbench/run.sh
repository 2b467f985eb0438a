#!/usr/bin/env bash
# Builds the `parspeed` binary and the benchmark from source, then runs
# the benchmark with the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload mix-hot --seed 1 --seconds 10 --trace 0
#
# Both builds share one target directory (CARGO_TARGET_DIR, default
# `.bench_build`), so the benchmark finds `parspeed` beside itself.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path Cargo.toml --bin parspeed >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
