#!/usr/bin/env bash
# Release-bench smoke: run a bench sweep (fig6, fault recovery, cache
# reuse) single-threaded and fail if throughput fell below a floor.
#
# CI runners differ wildly from the machines that produced the committed
# BENCH_*.json trajectory, so this is a smoke against order-of-magnitude
# regressions (an accidental O(n^2), a debug assert in the hot path, the
# arena silently disabled), not a precise gate. The floor is deliberately
# far below any healthy number for the given WADC_CONFIGS.
#
# usage: check_bench_regress.sh <bench binary> <min runs/s> [configs]
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 <bench binary> <min runs/s> [configs]" >&2
  exit 2
fi

bench_bin=$1
min_rps=$2
configs=${3:-30}

out=$(mktemp /tmp/bench_smoke.XXXXXX.json)
trap 'rm -f "$out"' EXIT

WADC_CONFIGS=$configs "$bench_bin" --jobs=1 --bench-out="$out" >/dev/null

python3 - "$out" "$min_rps" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
floor = float(sys.argv[2])
rps = report["runs_per_second"]
print(f"[bench-smoke] {report['name']}: {rps:.1f} runs/s "
      f"(jobs={report['jobs']}, runs={report['runs']}, "
      f"hw={report.get('hardware_concurrency', '?')} threads, "
      f"build={report.get('build_type', '?')}, floor={floor})")
assert report["jobs"] == 1, report
assert rps >= floor, (
    f"jobs=1 throughput regressed: {rps:.1f} runs/s < floor {floor}")
EOF
