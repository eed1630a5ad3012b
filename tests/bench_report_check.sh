#!/usr/bin/env bash
# Bench report contract: a bench binary that cannot write its --bench-out
# report exits 1 instead of reporting success, and every artifact writer
# fails its run when a write fails (/dev/full fails every write with
# ENOSPC), with the binary's own exit code and a "write failed" message.
#
# Usage: bench_report_check.sh <wadc_run> <wadc_report> <ext_cache_reuse>
#                              <bench binary>...
set -u

RUN=$1
REPORT=$2
REUSE=$3
shift 3

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail=0

# expect_failure <name> <exit code> <stderr text> <cmd...>
expect_failure() {
  local name=$1 want=$2 text=$3
  shift 3
  WADC_CONFIGS=2 "$@" > /dev/null 2> "$TMP/err"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $name: expected exit $want, got $got" >&2
    sed 's/^/  /' "$TMP/err" >&2
    fail=1
  elif ! grep -q "$text" "$TMP/err"; then
    echo "FAIL: $name: exit $want without '$text'" >&2
    sed 's/^/  /' "$TMP/err" >&2
    fail=1
  fi
}

for bin in "$@"; do
  name=$(basename "$bin")
  expect_failure "$name --bench-out=/nonexistent/x.json" 1 \
    "failed to write bench report" "$bin" --bench-out=/nonexistent/x.json
  expect_failure "$name --bench-out=/dev/full" 1 \
    "failed to write bench report: write failed" "$bin" --bench-out=/dev/full
done

small=(--servers=2 --iterations=4)
expect_failure "wadc_run --dump-run=/dev/full" 2 "write failed" \
  "$RUN" "${small[@]}" --dump-run=/dev/full
expect_failure "wadc_run --num-clients=2 --dump-run=/dev/full" 2 \
  "write failed" "$RUN" "${small[@]}" --num-clients=2 --dump-run=/dev/full
expect_failure "wadc_run --bench-out=/dev/full" 2 "write failed" \
  "$RUN" "${small[@]}" --bench-out=/dev/full
expect_failure "wadc_run --dump-traces=/dev/full" 1 "write failed" \
  "$RUN" --dump-traces=/dev/full
expect_failure "wadc_report --out=/dev/full" 1 "write failed" \
  "$REPORT" --configs=1 --out=/dev/full
expect_failure "ext_cache_reuse --out=/dev/full" 2 "write failed" \
  "$REUSE" --out=/dev/full

if [ "$fail" = 0 ]; then
  echo "bench report contract OK"
fi
exit "$fail"
