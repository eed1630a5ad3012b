#!/usr/bin/env bash
# Input contract: every number the CLI tools read from outside the program
# (flags, --trace-set files, fault and session spec lines) must be a whole
# decimal number in range (docs/ARCHITECTURE.md, "Input grammar"). Anything
# else exits 2 with a message naming the offending value — never a signal,
# an assertion, or a silently substituted default.
#
# Usage: input_cli_check.sh <wadc_run binary> <wadc_report binary>
set -u

RUN=$1
REPORT=$2

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail=0

# expect_reject <name> <text the first stderr line must contain> <cmd...>
expect_reject() {
  local name=$1 want=$2
  shift 2
  "$@" > "$TMP/out" 2> "$TMP/err"
  local got=$?
  if [ "$got" -ne 2 ]; then
    echo "FAIL: $name: expected exit 2, got $got" >&2
    sed 's/^/  /' "$TMP/err" >&2
    fail=1
  elif ! head -n 1 "$TMP/err" | grep -qF -- "$want"; then
    echo "FAIL: $name: first stderr line does not mention '$want':" >&2
    sed 's/^/  /' "$TMP/err" >&2
    fail=1
  fi
}

small=(--servers=2 --iterations=4)

# --- wadc_report flags ------------------------------------------------------

expect_reject "report --configs=abc" "'abc'" "$REPORT" --configs=abc
expect_reject "report --configs=0" "'0'" "$REPORT" --configs=0
expect_reject "report --configs=-3" "'-3'" "$REPORT" --configs=-3
expect_reject "inspect --max-trail=9x" "'9x'" \
  "$REPORT" inspect --max-trail=9x --decisions=/dev/null

# --- wadc_run --trace-set files ---------------------------------------------

trace_set() {  # trace_set <file> <count line> <step line> <last sample>
  printf 'wadc-trace-set v1\n%s\nwadc-trace v1\n%s\nsamples 2\n100\n%s\n' \
    "$2" "$3" "$4" > "$1"
}
trace_set "$TMP/count0.traces" "count 0" "step 60" 200
trace_set "$TMP/count1e30.traces" "count 1e30" "step 60" 200
trace_set "$TMP/count1.5.traces" "count 1.5" "step 60" 200
trace_set "$TMP/step60x.traces" "count 1" "step 60x" 200
trace_set "$TMP/sample.traces" "count 1" "step 60" 200junk
trace_set "$TMP/ok.traces" "count 1" "step 60" 200

expect_reject "trace set count 0" "line 2" \
  "$RUN" --trace-set="$TMP/count0.traces" "${small[@]}"
expect_reject "trace set count 1e30" "'1e30'" \
  "$RUN" --trace-set="$TMP/count1e30.traces" "${small[@]}"
expect_reject "trace set count 1.5" "'1.5'" \
  "$RUN" --trace-set="$TMP/count1.5.traces" "${small[@]}"
expect_reject "trace set step 60x" "'60x'" \
  "$RUN" --trace-set="$TMP/step60x.traces" "${small[@]}"
expect_reject "trace set sample 200junk" "'200junk'" \
  "$RUN" --trace-set="$TMP/sample.traces" "${small[@]}"
expect_reject "missing trace set" "cannot open" \
  "$RUN" --trace-set="$TMP/does-not-exist.traces" "${small[@]}"

if ! "$RUN" --trace-set="$TMP/ok.traces" "${small[@]}" > "$TMP/out" \
     2> "$TMP/err"; then
  echo "FAIL: a well-formed trace set was rejected:" >&2
  sed 's/^/  /' "$TMP/err" >&2
  fail=1
fi

# --- wadc_run flags ---------------------------------------------------------

expect_reject "--time-scale=nan" "'nan'" \
  "$RUN" --backend=tcp --time-scale=nan "${small[@]}"
expect_reject "--timeline-interval=nan" "'nan'" \
  "$RUN" --timeline-interval=nan --timeline-out="$TMP/timeline.csv" \
  "${small[@]}"
expect_reject "--period=0x10" "'0x10'" "$RUN" --period=0x10 "${small[@]}"

# --- fault-spec lines -------------------------------------------------------

printf 'crash 1 100 abc\n' > "$TMP/restart.fault"
expect_reject "fault crash restart abc" "'abc'" \
  "$RUN" --fault-spec="$TMP/restart.fault" "${small[@]}"
printf 'crash 1 1e3x\n' > "$TMP/time.fault"
expect_reject "fault crash time 1e3x" "'1e3x'" \
  "$RUN" --fault-spec="$TMP/time.fault" "${small[@]}"

# --- session-spec lines -----------------------------------------------------

printf 'session 0\nadmission shed 1 foo\n' > "$TMP/shed.sessions"
expect_reject "session shed queue foo" "'foo'" \
  "$RUN" --sessions-spec="$TMP/shed.sessions" "${small[@]}"
printf 'session 0\nadmission bandwidth 5000 fast\n' > "$TMP/bw.sessions"
expect_reject "session bandwidth recheck fast" "'fast'" \
  "$RUN" --sessions-spec="$TMP/bw.sessions" "${small[@]}"
printf 'session 0 id=2.7\n' > "$TMP/id.sessions"
expect_reject "session id=2.7" "'id=2.7'" \
  "$RUN" --sessions-spec="$TMP/id.sessions" "${small[@]}"

if [ "$fail" = 0 ]; then
  echo "input CLI contract OK"
fi
exit "$fail"
