#!/usr/bin/env bash
# Examples contract: every example program runs to completion with its
# default arguments, and a malformed positional argument exits 2 with a
# message naming it instead of running with a silently substituted value
# (or aborting inside the engine).
#
# Usage: examples_check.sh <examples build dir>
set -u

DIR=$1

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail=0

# expect_exit <code> <text stderr must contain, or ""> <cmd...>
expect_exit() {
  local want=$1 text=$2
  shift 2
  "$@" > "$TMP/out" 2> "$TMP/err"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $*: expected exit $want, got $got" >&2
    sed 's/^/  /' "$TMP/err" >&2
    fail=1
  elif [ -n "$text" ] && ! grep -qF -- "$text" "$TMP/err"; then
    echo "FAIL: $*: stderr does not mention '$text':" >&2
    sed 's/^/  /' "$TMP/err" >&2
    fail=1
  fi
}

for example in quickstart satellite_composition adaptive_vs_static \
               federated_search_merge distributed_hash_join; do
  expect_exit 0 "" "$DIR/$example"
done

expect_exit 2 "'abc'" "$DIR/quickstart" abc
expect_exit 2 "'abc'" "$DIR/satellite_composition" 42 abc

if [ "$fail" = 0 ]; then
  echo "examples contract OK"
fi
exit "$fail"
