#!/usr/bin/env bash
# Builds the benchmark and runs it. With the contract's arguments
# (--workload W --seed N --seconds T --trace 0|1) it makes one run and
# prints the result JSON as its last line; with none it runs every
# workload, measured and traced; with --quick it does so in seconds.
# Any failure — build, check pass, schema validation — exits non-zero
# and prints no result line.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/sj-benchmark" "$@"
