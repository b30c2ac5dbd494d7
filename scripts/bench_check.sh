#!/usr/bin/env bash
# Bench regression gate: diff a fresh microbench run against the committed
# BENCH_*.json snapshot and fail on regression.
#
# Absolute nanoseconds are machine-dependent (CI runners differ from dev
# boxes, and quick mode shrinks the workloads), so the gate compares the
# *paired-variant speedups* that each bench exists to defend:
#
#   baseline -> zerocopy  (micro_shuffle: the zero-copy data plane win)
#   full     -> delta     (micro_delta: the workset-driven delta-iteration win)
#   idle     -> merging   (micro_serve: bounded serving-tail cost under churn)
#   off     -> full      (micro_trace: full span tracing must stay within
#                          5% of tracing disabled)
#
# For every benchmark group the geometric-mean speedup of the fresh run
# must stay within TOLERANCE (default 25%) of the committed snapshot's —
# these ratios are approximately machine-invariant, which is what makes the
# gate meaningful on a shared runner. Mode note: micro_shuffle's ratios are
# also size-invariant (gate it in quick mode, as CI does). micro_delta's
# refresh ratio is size-SENSITIVE (quick mode leaves less full-pass work
# for the workset engine to skip), so it gates at the full workload the
# committed BENCH_delta.json was recorded at (I2MR_BENCH_QUICK=0); its
# headline churn1pct group carries the delta engine's shipping bar as an
# absolute floor: delta iteration >= 3x over full-pass incremental at 1%
# churn. micro_serve's "speedup" is the
# idle/merging p99 ratio (<= 1 by construction); its absolute floor of
# 0.333 is the serving plane's shipping bar — the point-lookup p99 under
# an active merge+compact churn must stay within 3x of the idle p99. The
# churn thread needs a real measurement window to overlap, so gate it at
# full size (I2MR_BENCH_QUICK=0). micro_trace's "speedup" is the off/full
# ratio (~1 by construction: tracing must not slow the pipeline); its
# workload is fixed-size (quick mode does not scale it), and the telemetry
# plane's shipping bar is an absolute floor — Full span retention must
# stay >= 0.95x of tracing disabled on the data-plane hot path.
#
# Usage:
#   scripts/bench_check.sh [micro_shuffle] [micro_delta] ...
#   BENCH_TOLERANCE=0.25 I2MR_BENCH_QUICK=1 scripts/bench_check.sh micro_shuffle
#   I2MR_BENCH_QUICK=0 scripts/bench_check.sh micro_delta
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

tol="${BENCH_TOLERANCE:-0.25}"
status=0
for target in "${targets[@]}"; do
  committed="$(out_for "$target")"
  if [ ! -f "$committed" ]; then
    echo "bench_check: missing committed snapshot $committed" >&2
    exit 2
  fi
  # Fresh results land next to the committed snapshot (gitignored) so CI
  # can upload them as artifacts for regression debugging.
  fresh="$PWD/fresh-$(out_for "$target")"
  echo "== $target: fresh run (tolerance ${tol}) =="
  I2MR_BENCH_JSON="$fresh" cargo bench --bench "$target"
  python3 - "$committed" "$fresh" "$tol" <<'PY' || status=1
import json, math, sys

committed_path, fresh_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
PAIRS = [
    ("baseline", "zerocopy"),
    ("full", "delta"),
    ("idle", "merging"),
    ("off", "full"),
]
# Absolute speedup floors (group -> min geomean on the FRESH run), on top
# of the relative-to-committed tolerance check.
FLOORS = {
    "micro_delta/churn1pct": 3.0,
    "micro_serve/lookup": 0.333,
    "micro_trace/pipeline": 0.95,
}

def speedups(path):
    """group -> list of (param, speedup base_median/new_median)."""
    recs = {r["id"]: r["median_ns"] for r in json.load(open(path))}
    out = {}
    for rid, base_ns in recs.items():
        parts = rid.split("/")
        if len(parts) < 3:
            continue
        group, variant, param = "/".join(parts[:-2]), parts[-2], parts[-1]
        for base, new in PAIRS:
            if variant != base:
                continue
            new_id = "/".join(parts[:-2] + [new, param])
            if new_id in recs and recs[new_id] > 0:
                out.setdefault(group, []).append((param, base_ns / recs[new_id]))
    return out

def geomean(pairs):
    return math.exp(sum(math.log(s) for _, s in pairs) / len(pairs))

want, got = speedups(committed_path), speedups(fresh_path)
if not want:
    sys.exit(f"bench_check: no variant pairs in committed {committed_path}")
if not got:
    sys.exit(f"bench_check: no variant pairs in fresh run {fresh_path}")

failed = False
print(f"{'group':<32} {'committed':>10} {'fresh':>10} {'floor':>10}  verdict")
for group, committed_pairs in sorted(want.items()):
    if group not in got:
        print(f"{group:<32} {'-':>10} {'-':>10} {'-':>10}  MISSING")
        failed = True
        continue
    w, g = geomean(committed_pairs), geomean(got[group])
    floor = w * (1.0 - tol)
    if group in FLOORS:
        floor = max(floor, FLOORS[group])
    verdict = "ok" if g >= floor else "REGRESSION"
    if g < floor:
        failed = True
    print(f"{group:<32} {w:>9.2f}x {g:>9.2f}x {floor:>9.2f}x  {verdict}")
if failed:
    sys.exit("bench_check: speedup regression against committed snapshot")
print("bench_check: all groups within tolerance")
PY
done
exit $status
