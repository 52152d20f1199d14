#!/usr/bin/env bash
# Builds the benchmark and the real um-serve binary from source, then runs
# the benchmark with the given arguments:
#
#   bash crates/bench/um_perf/run.sh --workload node-um --seed 42 --seconds 20 --trace 0
#
# um-serve is built from the repository workspace exactly as a user builds
# it; um_perf is its own package. Both land in CARGO_TARGET_DIR (default:
# the repository's target/). Build output goes to stderr, so the last line
# on stdout is always the benchmark's result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p um-serve --bin um-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/um_perf" --serve-bin "$CARGO_TARGET_DIR/release/um-serve" "$@"
