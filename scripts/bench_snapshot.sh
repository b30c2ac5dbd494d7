#!/usr/bin/env bash
# Snapshot data-plane microbenches into the committed BENCH_*.json files.
#
# Each target is run once with `I2MR_BENCH_JSON` set, writing every
# benchmark's min/median/mean into the JSON file at the repo root — the
# perf-trajectory baselines the `scripts/bench_check.sh` regression gate
# diffs against:
#
#   micro_shuffle -> BENCH_shuffle.json  (shuffle/sort/reduce hot path)
#   micro_delta   -> BENCH_delta.json    (full-pass vs workset delta iteration)
#   micro_serve   -> BENCH_serve.json    (serving p99: idle vs under merge churn)
#   micro_trace   -> BENCH_trace.json    (telemetry overhead: tracing off vs full)
#
# Usage:
#   scripts/bench_snapshot.sh                 # snapshot all targets
#   scripts/bench_snapshot.sh micro_delta     # just one
#   I2MR_BENCH_QUICK=1 scripts/bench_snapshot.sh   # ~8x smaller workloads
set -euo pipefail
cd "$(dirname "$0")/.."

out_for() {
  case "$1" in
    micro_shuffle) echo "BENCH_shuffle.json" ;;
    micro_delta) echo "BENCH_delta.json" ;;
    micro_serve) echo "BENCH_serve.json" ;;
    micro_trace) echo "BENCH_trace.json" ;;
    *) echo "BENCH_$1.json" ;;
  esac
}

targets=("$@")
if [ ${#targets[@]} -eq 0 ]; then
  targets=(micro_shuffle micro_delta micro_serve micro_trace)
fi

for target in "${targets[@]}"; do
  out="$PWD/$(out_for "$target")"
  I2MR_BENCH_JSON="$out" cargo bench --bench "$target"
  echo
  echo "== snapshot: $out =="
  # Print the headline comparisons (no jq dependency: plain grep).
  grep -oE '"id": "[^"]*/(zerocopy|baseline|full|delta|idle|merging|off|counters)/[^}]*' "$out" || true
done
