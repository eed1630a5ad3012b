#!/usr/bin/env python3
"""The repository benchmark: builds wadc_perfbench (Release) and runs it.

From the root of a checkout:

  python3 perfbench/run.py --workload fig6_sweep --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --self-test     # every workload, tiny size
  python3 perfbench/run.py --write-spec    # regenerate BENCHMARK.json

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
The traced pass (--trace 1) writes its Chrome trace next to the build, under
traces/. The last line of stdout is the JSON result line; build output goes
to stderr. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds wadc_perfbench; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "wadc_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "wadc_perfbench")


def run_bench(binary, args, timeout=170):
    """Runs wadc_perfbench from the checkout root; returns (code, stdout)."""
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: wadc_perfbench timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def spec_from(binary):
    code, out = run_bench(binary, ["--spec"])
    return json.loads(out) if code == 0 else None


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test(binary):
    """Tiny runs of every workload in both modes: every metric is present
    with its unit, no run fails, and BENCHMARK.json matches the tables."""
    problems = []
    spec = spec_from(binary)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        committed = json.load(f)
    if spec != committed:
        problems.append("BENCHMARK.json differs from `wadc_perfbench --spec`"
                        " (run perfbench/run.py --write-spec)")
    for workload in committed["workloads"]:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            name = f"{workload['name']} --trace {trace}"
            code, out = run_bench(binary, [
                "--workload", workload["name"], "--seed", "1",
                "--seconds", "1", "--trace", trace, "--tiny"])
            result = last_json(out) if code == 0 else None
            if result is None or set(result) != RESULT_KEYS:
                problems.append(f"{name}: exit {code}, no result line")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{name}: correct={result['correct']} "
                                f"failed={result['failed']}")
            if result["attempted"] < 1:
                problems.append(f"{name}: attempted={result['attempted']}")
            wanted = {m["name"]: m["unit"] for m in committed[group]}
            got = result["metrics"]
            if set(got) != set(wanted):
                odd = sorted(set(wanted) ^ set(got))
                problems.append(f"{name}: metrics {odd} missing or unexpected")
            for metric, unit in wanted.items():
                entry = got.get(metric, {})
                if entry.get("unit") != unit or not isinstance(
                        entry.get("value"), (int, float)):
                    problems.append(f"{name}: {metric} reads {entry}")
            print(f"self-test {name}: attempted={result['attempted']} "
                  f"failed={result['failed']}")
    for p in problems:
        print("self-test FAIL: " + p)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args()
    if not (args.self_test or args.write_spec) and None in (
            args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)
    if args.write_spec:
        spec = spec_from(binary)
        if spec is None:
            return 1
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(spec, f, indent=2)
            f.write("\n")
        return 0

    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        bench_args += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    code, out = run_bench(binary, bench_args)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
