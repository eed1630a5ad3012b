#!/usr/bin/env bash
# Bench report contract: a bench binary that cannot write its --bench-out
# report exits 1 instead of reporting success.
#
# Usage: bench_report_check.sh <bench binary>...
set -u

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail=0
for bin in "$@"; do
  name=$(basename "$bin")
  WADC_CONFIGS=2 "$bin" --bench-out=/nonexistent/x.json \
    > /dev/null 2> "$TMP/err"
  got=$?
  if [ "$got" -ne 1 ]; then
    echo "FAIL: $name: expected exit 1 for an unwritable --bench-out," \
      "got $got" >&2
    sed 's/^/  /' "$TMP/err" >&2
    fail=1
  elif ! grep -q "failed to write bench report" "$TMP/err"; then
    echo "FAIL: $name: exit 1 without 'failed to write bench report'" >&2
    sed 's/^/  /' "$TMP/err" >&2
    fail=1
  fi
done

if [ "$fail" = 0 ]; then
  echo "bench report contract OK"
fi
exit "$fail"
