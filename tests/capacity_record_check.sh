#!/usr/bin/env bash
# Committed capacity record: re-running the overload-control ramp at its
# defaults (four configurations, 24 sessions per run, six rate steps)
# reproduces BENCH_ext_capacity.json byte for byte, so every admission
# policy's saturation curve is pinned end to end.
#
# Usage: capacity_record_check.sh <ext_capacity> <BENCH_ext_capacity.json>
set -u

CAPACITY=$1
RECORD=$2

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

if ! env -u WADC_CONFIGS -u WADC_SEED -u WADC_CAPACITY_SESSIONS \
    -u WADC_CAPACITY_STEPS "$CAPACITY" --jobs=1 --out="$TMP/cap.json" \
    > /dev/null 2> "$TMP/err"; then
  echo "FAIL: ext_capacity exited non-zero:" >&2
  sed 's/^/  /' "$TMP/err" >&2
  exit 1
fi
if ! cmp "$TMP/cap.json" "$RECORD"; then
  echo "FAIL: capacity ramp differs from $RECORD:" >&2
  diff "$RECORD" "$TMP/cap.json" | head -20 >&2
  exit 1
fi
echo "capacity record OK"
