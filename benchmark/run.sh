#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it.
#
#   benchmark/run.sh [--seed N] [--workload W] [--seconds S] [--rounds K] [--traced] [--quick]
#       every workload, each in a fresh process; prints every metric by name
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result object
#   benchmark/run.sh compare A.json B.json
#
# Everything it writes stays inside the checkout: build output under
# $CARGO_TARGET_DIR (default .bench_build), results and scratch under
# benchmark/out.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# The build log goes to stderr: stdout carries only results.
cargo build --release --offline --manifest-path benchmark/Cargo.toml 1>&2

mkdir -p benchmark/out/tmp
# Anything the program under test puts in the OS temp dir stays in the checkout too.
export TMPDIR="$PWD/benchmark/out/tmp"
export I2MR_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export I2MR_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/i2mr-benchmark" "$@"
