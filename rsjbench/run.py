#!/usr/bin/env python3
"""Build bench_rsj from source and run one workload of the seeded benchmark.

Usage, from the root of a checkout:

  python3 rsjbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and compiles the library and the benchmark
(CMake, Release) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs only rebuild what changed. Build output goes to stderr.

--trace 0 measures the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (a separate, traced process that also writes a Chrome
trace under <build dir>/traces/). The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics": {name: {"value",
"unit"}}}. The exit code is 0 only when the benchmark ran, every check
passed and every declared metric was printed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s once the benchmark is built.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds bench_rsj; returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no library sources: {os.path.join(ROOT, 'src')} is missing")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "bench_rsj",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail(f"build step failed ({result.returncode}): {' '.join(step)}")
    return os.path.join(out_dir, "bench_rsj")


def parse_args(spec):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= 3600:
        parser.error("--seconds must be in (0, 3600]")
    return args


def main():
    spec = load_spec()
    args = parse_args(spec)
    out_dir = build_dir()
    binary = build(out_dir)

    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds:g}"]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command.append(
            f"--trace={os.path.join(traces, args.workload + '.json')}")
    started = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_rsj did not finish within {RUN_TIMEOUT_S} s")
    print(f"run.py: bench_rsj ran {time.monotonic() - started:.1f} s, "
          f"exit {proc.returncode}", file=sys.stderr)

    records = [json.loads(line[5:]) for line in proc.stdout.splitlines()
               if line.startswith("JSON ")]
    summaries = [r for r in records if r["kind"] == "summary"]
    if len(summaries) != 1:
        fail("bench_rsj printed no summary record")
    kind, declared_key = ("layer", "per_layer") if args.trace else \
        ("e2e", "end_to_end")
    metrics = {r["name"]: {"value": r["value"], "unit": r["unit"]}
               for r in records if r["kind"] == kind}
    declared = {m["name"]: m["unit"] for m in spec[declared_key]}
    printed = {name: m["unit"] for name, m in metrics.items()}
    if printed != declared:
        fail(f"printed metrics differ from BENCHMARK.json {declared_key}: "
             f"missing {sorted(set(declared) - set(printed))}, "
             f"undeclared {sorted(set(printed) - set(declared))}, "
             f"unit mismatch {sorted(n for n in set(declared) & set(printed) if declared[n] != printed[n])}")

    summary = summaries[0]
    correct = bool(summary["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
