#!/usr/bin/env bash
# Command-line contract shared by every binary (docs/ARCHITECTURE.md,
# "Input grammar"): --help exits 0, an unknown flag exits 2, and an empty
# file path exits 2 with a first stderr line naming the flag. The two
# session benches that take --fault-spec also exit 2 on a spec their host
# count cannot run. Nothing runs in any of these cases.
#
# Usage: cli_flags_check.sh <wadc_run> <wadc_report> <bench binary>...
set -u

RUN=$1
REPORT=$2
shift 2

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail=0

# Host 99 does not exist in a 5-server run.
printf 'crash 99 10 20\n' > "$TMP/host99.fault"

# expect <name> <exit code> <text the first stderr line must contain> <cmd...>
expect() {
  local name=$1 want=$2 text=$3
  shift 3
  "$@" > /dev/null 2> "$TMP/err"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $name: expected exit $want, got $got" >&2
    sed 's/^/  /' "$TMP/err" >&2
    fail=1
  elif [ -n "$text" ] && ! head -n 1 "$TMP/err" | grep -qF -- "$text"; then
    echo "FAIL: $name: first stderr line does not mention '$text'" >&2
    sed 's/^/  /' "$TMP/err" >&2
    fail=1
  fi
}

# every_binary <label> <cmd...>: the shared contract for one command.
every_binary() {
  local label=$1
  shift
  expect "$label --help" 0 "" "$@" --help
  expect "$label -h" 0 "" "$@" -h
  expect "$label --no-such-flag" 2 "--no-such-flag" "$@" --no-such-flag
}

every_binary wadc_run "$RUN"
every_binary wadc_report "$REPORT"
every_binary "wadc_report inspect" "$REPORT" inspect

expect "wadc_run --bench-out=" 2 "--bench-out" "$RUN" --bench-out=
for flag in --dump-run --trace-set --dump-traces --fault-spec \
    --sessions-spec --trace-out --metrics-out --timeline-out \
    --decisions-out --profile-out; do
  expect "wadc_run $flag=" 2 "$flag" "$RUN" "$flag="
done
expect "wadc_run --csv=1" 2 "--csv=1" "$RUN" --csv=1
expect "wadc_report --out=" 2 "--out" "$REPORT" --out=
for flag in --run --timeline --metrics --decisions; do
  expect "wadc_report inspect $flag=" 2 "$flag" "$REPORT" inspect "$flag="
done

for bin in "$@"; do
  name=$(basename "$bin")
  every_binary "$name" "$bin"
  for flag in --bench-out --profile-out; do
    expect "$name $flag=" 2 "$flag" "$bin" "$flag="
  done
  expect "$name --jobs=2x" 2 "'2x'" "$bin" --jobs=2x
  case "$name" in
    ext_cache_reuse|ext_capacity)
      for flag in --out --fault-spec; do
        expect "$name $flag=" 2 "$flag" "$bin" "$flag="
      done
      expect "$name crash on host 99" 2 "bad fault spec" \
        "$bin" --fault-spec="$TMP/host99.fault" --out="$TMP/out.json"
      ;;
  esac
done

if [ "$fail" = 0 ]; then
  echo "CLI flags contract OK"
fi
exit "$fail"
