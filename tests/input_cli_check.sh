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
# The sampler wakes once per interval, so a tiny one never lets the clock
# reach the end of the run (and its samples fill memory, ~1.3 GB in 2 s):
# the floor is 1 simulated second. Without --timeline-out no sampler runs,
# so a binary without the floor fails here at once instead of hanging.
expect_reject "--timeline-interval=1e-300" "'1e-300'" \
  timeout 10 "$RUN" --timeline-interval=1e-300 "${small[@]}"
if ! timeout 10 "$RUN" --timeline-interval=1 \
     --timeline-out="$TMP/timeline.csv" "${small[@]}" > "$TMP/out" \
     2> "$TMP/err"; then
  echo "FAIL: --timeline-interval=1 was rejected:" >&2
  sed 's/^/  /' "$TMP/err" >&2
  fail=1
fi

# The tcp backend paces simulated time against the wall clock, so a scale
# below real time only stretches the run (at 0.5 even this small run
# outlasts any timeout) and a tiny one overflows the event loop's timerfd
# (1e-300 aborts): the floor is 1, real time. Without --backend=tcp the
# flag is only read, so a binary without the floor fails here at once
# instead of hanging.
expect_reject "--time-scale=1e-300" "'1e-300'" \
  timeout 10 "$RUN" --time-scale=1e-300 "${small[@]}"
expect_reject "--time-scale=0.5" "'0.5'" \
  timeout 10 "$RUN" --time-scale=0.5 "${small[@]}"

# --- fault-spec lines -------------------------------------------------------

printf 'crash 1 100 abc\n' > "$TMP/restart.fault"
expect_reject "fault crash restart abc" "'abc'" \
  "$RUN" --fault-spec="$TMP/restart.fault" "${small[@]}"
printf 'crash 1 1e3x\n' > "$TMP/time.fault"
expect_reject "fault crash time 1e3x" "'1e3x'" \
  "$RUN" --fault-spec="$TMP/time.fault" "${small[@]}"
# A random schedule is drawn whole before the run: 3 links x 3600
# blackouts an hour over 1e6 s expect 3e6 events, past the bound of 1e6.
# (Without the bound this one costs ~300 MB; larger horizons grow
# linearly.)
printf 'rate blackout 3600 0.001\nhorizon 1e6\n' > "$TMP/horizon.fault"
expect_reject "fault horizon 1e6 at 3600 blackouts an hour" \
  "about 3000000 events" \
  timeout 20 "$RUN" --fault-spec="$TMP/horizon.fault" --servers=2 \
  --iterations=2

# --- session-spec lines -----------------------------------------------------

printf 'session 0\nadmission shed 1 foo\n' > "$TMP/shed.sessions"
expect_reject "session shed queue foo" "'foo'" \
  "$RUN" --sessions-spec="$TMP/shed.sessions" "${small[@]}"
printf 'session 0\nadmission bandwidth 5000\n' > "$TMP/bw.sessions"
expect_reject "no bandwidth policy" "'bandwidth'" \
  "$RUN" --sessions-spec="$TMP/bw.sessions" "${small[@]}"
printf 'session 0 id=2.7\n' > "$TMP/id.sessions"
expect_reject "session id=2.7" "'id=2.7'" \
  "$RUN" --sessions-spec="$TMP/id.sessions" "${small[@]}"

if [ "$fail" = 0 ]; then
  echo "input CLI contract OK"
fi
exit "$fail"
