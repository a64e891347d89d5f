#!/usr/bin/env bash
# Builds isf-harness and isf-benchmark from source, then runs
# isf-benchmark with this script's arguments. Run it from the repository root:
#
#   bash isf-benchmark/run.sh --workload suite --seed 1 --seconds 28 --trace 0
#
# Both binaries land in $CARGO_TARGET_DIR/release (default .bench_build),
# where isf-benchmark finds the harness next to itself. Build output goes to
# stderr, so the result stays the last line of stdout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$target"
CARGO_TARGET_DIR="$(cd "$target" && pwd)"
export CARGO_TARGET_DIR

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p isf-harness --bin isf-harness >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# Not `exec`: isf-benchmark reads its children's peak RSS, which must not
# include the compiler's.
"$CARGO_TARGET_DIR/release/isf-benchmark" "$@"
