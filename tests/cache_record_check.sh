#!/usr/bin/env bash
# Committed cache record: re-running the reuse sweep at the record's size
# reproduces BENCH_ext_cache_reuse.json byte for byte. Its 8 MiB cells
# evict under pressure with both policies, so this pins lru and cost
# eviction order end to end, not only the hit path.
#
# Usage: cache_record_check.sh <ext_cache_reuse> <BENCH_ext_cache_reuse.json>
set -u

REUSE=$1
RECORD=$2

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

if ! WADC_CONFIGS=4 "$REUSE" --jobs=1 --out="$TMP/reuse.json" \
    > /dev/null 2> "$TMP/err"; then
  echo "FAIL: ext_cache_reuse exited non-zero:" >&2
  sed 's/^/  /' "$TMP/err" >&2
  exit 1
fi
if ! cmp "$TMP/reuse.json" "$RECORD"; then
  echo "FAIL: reuse sweep differs from $RECORD:" >&2
  diff "$RECORD" "$TMP/reuse.json" | head -20 >&2
  exit 1
fi
echo "cache record OK"
