#!/usr/bin/env bash
# Byte-identity harness for the engine refactor.
#
# Runs wadc_run on a small sweep for every algorithm, with and without a
# fault schedule, plus a three-session run over a shared result cache (with
# and without the same fault schedule), and diffs the CSV, metrics, and
# run-JSON output against the golden files captured from the pre-refactor
# engine. Chrome traces and the session cells' timelines are compared by
# SHA-256 (they are a few hundred KB each; a hash detects any byte change
# without committing the bytes).
#
# Usage:
#   golden_check.sh <wadc_run binary> <golden dir> [jobs]
#   REGEN=1 golden_check.sh ...   # re-capture the golden files instead
set -u

BIN=$1
GOLDEN=$2
JOBS=${3:-1}

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail=0

# check_cell NAME MODE HASHED ARGS...: runs one cell (MODE fault adds the
# golden fault schedule) and compares its CSV, metrics and run JSON plus
# the SHA-256 of every output named in HASHED (space-separated suffixes).
check_cell() {
  local name=$1 mode=$2 hashed=$3
  shift 3
  local args=("$@" --jobs="$JOBS" --csv
              --metrics-out="$TMP/$name.metrics.json"
              --trace-out="$TMP/$name.trace.json"
              --dump-run="$TMP/$name.run.json")
  if [ "$mode" = fault ]; then
    args+=(--fault-spec="$GOLDEN/golden.fault")
  fi
  case " $hashed " in
    *" timeline "*) args+=(--timeline-out="$TMP/$name.timeline.json") ;;
  esac
  if ! "$BIN" "${args[@]}" > "$TMP/$name.csv"; then
    echo "FAIL: $name: wadc_run exited non-zero" >&2
    fail=1
    return
  fi
  local files=(csv metrics.json run.json)
  for h in $hashed; do
    sha256sum < "$TMP/$name.$h.json" | cut -d' ' -f1 > "$TMP/$name.$h.sha256"
    files+=("$h.sha256")
  done

  if [ "${REGEN:-0}" = 1 ]; then
    for f in "${files[@]}"; do cp "$TMP/$name.$f" "$GOLDEN/"; done
    echo "regenerated $name"
    return
  fi

  for f in "${files[@]}"; do
    if ! diff -u "$GOLDEN/$name.$f" "$TMP/$name.$f" > "$TMP/diff.out" 2>&1
    then
      echo "FAIL: $name.$f differs from golden:" >&2
      head -40 "$TMP/diff.out" >&2
      fail=1
    fi
  done
}

for alg in download-all one-shot global local global-order reorder-only; do
  for mode in plain fault; do
    check_cell "${alg}_${mode}" "$mode" trace \
      --algorithm="$alg" --servers=4 --iterations=40 --configs=2 \
      --seed=1000 --period=150 --extras=2
  done
done

# Stale-location forwarding (§2.3): no cell above forwards a message, so
# these pin a local run whose directories lag a relocation (one forward
# plain; two forwards with retries and a repair under the fault schedule).
for mode in plain fault; do
  check_cell "local_forward_${mode}" "$mode" trace \
    --algorithm=local --servers=4 --iterations=40 --configs=2 \
    --seed=1018 --period=150 --extras=2
done

for mode in plain fault; do
  check_cell "session_global_${mode}" "$mode" "trace timeline" \
    --algorithm=global --servers=4 --iterations=40 --configs=2 \
    --seed=1000 --period=150 --num-clients=3 --cache-capacity=8m
done

if [ "$fail" = 0 ]; then
  echo "golden byte-identity OK (jobs=$JOBS)"
fi
exit "$fail"
