#!/usr/bin/env bash
# Session-mode CLI contract: malformed session specs, bad flag values, and
# conflicting flags must all exit 2 (usage error) without running anything,
# and a well-formed tiny spec must run and exit 0.
#
# Usage: session_cli_check.sh <wadc_run binary>
set -u

BIN=$1

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail=0

expect_exit() {
  local want=$1 name=$2
  shift 2
  "$BIN" "$@" > "$TMP/out" 2> "$TMP/err"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $name: expected exit $want, got $got" >&2
    sed 's/^/  /' "$TMP/err" >&2
    fail=1
  fi
}

# expect_reject <name> <text stderr must contain> <spec file text>: the spec
# exits 2 with a one-line message that contains the text.
expect_reject() {
  local name=$1 want=$2
  printf '%b' "$3" > "$TMP/reject.sessions"
  "$BIN" --sessions-spec="$TMP/reject.sessions" --servers=2 --iterations=4 \
    > "$TMP/out" 2> "$TMP/err"
  local got=$?
  if [ "$got" -ne 2 ]; then
    echo "FAIL: $name: expected exit 2, got $got" >&2
    sed 's/^/  /' "$TMP/err" >&2
    fail=1
  elif [ "$(wc -l < "$TMP/err")" -ne 1 ] || ! grep -qF -- "$want" "$TMP/err"
  then
    echo "FAIL: $name: expected one stderr line mentioning '$want':" >&2
    sed 's/^/  /' "$TMP/err" >&2
    fail=1
  fi
}

# --- usage errors -----------------------------------------------------------

printf 'bogus 1\n' > "$TMP/unknown-keyword.sessions"
expect_exit 2 "unknown keyword" \
  --sessions-spec="$TMP/unknown-keyword.sessions" --servers=2 --iterations=4

printf 'session 0\nadmission cap 0\n' > "$TMP/bad-cap.sessions"
expect_exit 2 "cap 0 rejected by validation" \
  --sessions-spec="$TMP/bad-cap.sessions" --servers=2 --iterations=4

printf '# only comments\n' > "$TMP/empty.sessions"
expect_exit 2 "empty spec" \
  --sessions-spec="$TMP/empty.sessions" --servers=2 --iterations=4

expect_exit 2 "missing spec file" \
  --sessions-spec="$TMP/does-not-exist.sessions" --servers=2 --iterations=4

printf 'session 0 id=3\nsession 10 id=3\n' > "$TMP/dup-id.sessions"
expect_exit 2 "duplicate session ids rejected" \
  --sessions-spec="$TMP/dup-id.sessions" --servers=2 --iterations=4

printf 'session 0 id=-2\n' > "$TMP/neg-id.sessions"
expect_exit 2 "negative session id rejected" \
  --sessions-spec="$TMP/neg-id.sessions" --servers=2 --iterations=4

printf 'open 4 nan\n' > "$TMP/nan-rate.sessions"
expect_exit 2 "nan arrival rate rejected" \
  --sessions-spec="$TMP/nan-rate.sessions" --servers=2 --iterations=4

printf 'closed 2 2 -5\n' > "$TMP/neg-think.sessions"
expect_exit 2 "negative think time rejected" \
  --sessions-spec="$TMP/neg-think.sessions" --servers=2 --iterations=4

printf 'session 0\nadmission shed -1\n' > "$TMP/neg-shed.sessions"
expect_exit 2 "negative shed cap rejected" \
  --sessions-spec="$TMP/neg-shed.sessions" --servers=2 --iterations=4

printf 'session 0\nadmission deadline inf\n' > "$TMP/inf-deadline.sessions"
expect_exit 2 "infinite deadline rejected" \
  --sessions-spec="$TMP/inf-deadline.sessions" --servers=2 --iterations=4

# The grammar has no degrade policy and no deferral cap: both words are
# rejected as unknown.
expect_reject "no defer_cap keyword" "'defer_cap'" \
  'session 0\ndefer_cap 60\n'
expect_reject "no degrade policy" "'degrade'" \
  'session 0\nadmission degrade 2\n'

# clients x queries overflows the int session count.
expect_reject "closed-loop session count overflow" "clients x queries" \
  'closed 46341 46341 0\n'

expect_exit 2 "--num-clients must be >= 1" --num-clients=0

expect_exit 2 "--sessions-spec and --num-clients conflict" \
  --sessions-spec="$TMP/empty.sessions" --num-clients=2

# Session mode composes with fault injection (transient crash + restart).
printf 'session 0\n' > "$TMP/ok.sessions"
printf 'crash 1 100 200\n' > "$TMP/ok.fault"
expect_exit 0 "session mode runs with transient fault schedule" \
  --sessions-spec="$TMP/ok.sessions" --fault-spec="$TMP/ok.fault" \
  --servers=2 --iterations=4 --configs=1 --seed=1000 --csv

# --- happy path -------------------------------------------------------------

printf 'session 0\nsession 30\nadmission cap 1\n' > "$TMP/two.sessions"
expect_exit 0 "tiny session run" \
  --sessions-spec="$TMP/two.sessions" --servers=2 --iterations=4 \
  --configs=1 --seed=1000 --csv

if ! grep -q '^config_seed,algorithm,policy,sessions,' "$TMP/out"; then
  echo "FAIL: session CSV header missing from tiny run output:" >&2
  head -3 "$TMP/out" >&2
  fail=1
fi

if ! grep -q 'shed,deferred,goodput_per_hour' "$TMP/out"; then
  echo "FAIL: per-outcome columns missing from session CSV header:" >&2
  head -3 "$TMP/out" >&2
  fail=1
fi

# Overload policies run end to end from the CLI.
printf 'session 0\nsession 1\nsession 2\nadmission shed 1 0\n' \
  > "$TMP/shed.sessions"
expect_exit 0 "shed-policy session run" \
  --sessions-spec="$TMP/shed.sessions" --servers=2 --iterations=4 \
  --configs=1 --seed=1000 --csv

printf 'session 0\nsession 1 deadline=9000\nadmission deadline 4000\n' \
  > "$TMP/deadline.sessions"
expect_exit 0 "deadline-policy session run" \
  --sessions-spec="$TMP/deadline.sessions" --servers=2 --iterations=4 \
  --configs=1 --seed=1000 --csv

if [ "$fail" = 0 ]; then
  echo "session CLI contract OK"
fi
exit "$fail"
