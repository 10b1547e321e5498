#!/usr/bin/env bash
# Build the program and the benchmark from source, then run one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-random --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p fastsched-casch --bin casch >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --casch "$target/release/casch" "$@"
