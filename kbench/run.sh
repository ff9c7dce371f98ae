#!/usr/bin/env bash
# Builds the `kecss` service binary and this benchmark from the sources of
# the checkout, then runs one workload. Run it from the repository root:
#
#   bash kbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build products go to $CARGO_TARGET_DIR (default .bench_build); generated
# inputs, server logs and span dumps go to .bench_work. The last line of
# standard output is the result object; see kbench/README.md.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/server ]]; then
  echo "kbench: run from the root of a k-ECSS checkout" >&2
  exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin kecss >&2
cargo build --release --offline --quiet --manifest-path kbench/Cargo.toml >&2
exec "${CARGO_TARGET_DIR}/release/kbench" --kecss "${CARGO_TARGET_DIR}/release/kecss" "$@"
