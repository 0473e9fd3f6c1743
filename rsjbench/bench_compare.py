#!/usr/bin/env python3
"""Lint the benchmark's declarations, and compare a parent and a change.

  python3 rsjbench/bench_compare.py lint [--seconds S]

    Checks BENCHMARK.json (keys, names, units, bounds, limits), then runs
    every workload once in each mode through run.py (seed 1, S seconds,
    default 1) and checks that each run prints exactly the declared
    metrics, under their declared units, and passes its checks.

  python3 rsjbench/bench_compare.py compare PARENT_DIR CHANGE_DIR

    Each directory holds <workload>/<pair>.json: the last stdout line of
    run.py --trace 0 for pair number <pair>. Pair i of the parent and pair
    i of the change must use the same seed, and the two sides of a pair
    must run back to back, alternating which side runs first. For every
    workload and end-to-end metric prints one row:
      improved    >= 10 pairs, the change wins >= 9/10 of them (ties
                  count for neither side) and the medians differ by more
                  than the parent's interquartile range;
      regressed   the change's median is worse than the parent's by more
                  than the metric's bound;
      unresolved  fewer than 10 pairs, or the parent's own spread
                  (IQR / median) exceeds the bound and not every change run
                  beats every parent run;
      unchanged   otherwise.
    Exits non-zero on any regression or when the share of failed
    operations rose.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer"}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def lint_spec(spec):
    """Static checks of BENCHMARK.json; returns a list of problems."""
    problems = []
    if set(spec) != KEYS:
        problems.append(f"keys {sorted(spec)} != {sorted(KEYS)}")
        return problems
    limits = {"workloads": (2, 8), "end_to_end": (1, 16),
              "per_layer": (1, 128)}
    fields = {"workloads": {"name", "why"},
              "end_to_end": {"name", "unit", "better", "bound"},
              "per_layer": {"name", "unit", "better"}}
    seen = set()
    for section, (lo, hi) in limits.items():
        entries = spec[section]
        if not lo <= len(entries) <= hi:
            problems.append(f"{section}: {len(entries)} entries, "
                            f"want {lo}..{hi}")
        for entry in entries:
            name = entry.get("name", "")
            if set(entry) != fields[section]:
                problems.append(f"{section} {name}: fields {sorted(entry)}")
            if not NAME.match(name):
                problems.append(f"{section}: bad name '{name}'")
            if name in seen:
                problems.append(f"{section}: name '{name}' used twice")
            seen.add(name)
            if section == "workloads":
                why = entry.get("why", "")
                if not why or len(why) > 200 or "\n" in why:
                    problems.append(f"workload {name}: why must be one line "
                                    "of at most 200 characters")
                continue
            if not UNIT.match(entry.get("unit", "")):
                problems.append(f"{name}: bad unit '{entry.get('unit')}'")
            if entry.get("better") not in ("lower", "higher"):
                problems.append(f"{name}: better must be lower or higher")
            if section == "end_to_end":
                bound = entry.get("bound")
                if not isinstance(bound, (int, float)) or \
                        not 0 <= bound <= 0.25:
                    problems.append(f"{name}: bound must be in [0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, better lower")
    if not isinstance(spec["run_seconds"], int) or \
            not 1 <= spec["run_seconds"] <= 60:
        problems.append("run_seconds must be a whole number in 1..60")
    return problems


def lint(args):
    spec = load_spec()
    problems = lint_spec(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", "1",
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: run.py exit {proc.returncode}: "
                                f"{proc.stderr.strip().splitlines()[-1:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            declared = {m["name"]: m["unit"] for m in spec[section]}
            if printed != declared:
                problems.append(f"{label}: printed metrics differ from "
                                f"{section}")
            print(f"lint: {label}: {len(printed)} metrics, "
                  f"attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    for problem in problems:
        print(f"lint: {problem}")
    print("lint: OK" if not problems else f"lint: {len(problems)} problems")
    return 0 if not problems else 1


def load_runs(directory):
    """{workload: {pair: result}} from <dir>/<workload>/<pair>.json."""
    runs = {}
    for workload in sorted(os.listdir(directory)):
        path = os.path.join(directory, workload)
        if not os.path.isdir(path):
            continue
        for name in os.listdir(path):
            stem, ext = os.path.splitext(name)
            if ext != ".json" or not stem.isdigit():
                continue
            with open(os.path.join(path, name)) as f:
                lines = f.read().strip().splitlines()
            runs.setdefault(workload, {})[int(stem)] = json.loads(lines[-1])
    return runs


def median(values):
    return statistics.median(values) if values else float("nan")


def iqr(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def classify(parent, change, better, bound):
    """Labels one workload x metric from paired values; returns (label,
    pairs the change won)."""
    sign = 1.0 if better == "lower" else -1.0

    def beats(a, b):  # a is better than b
        return sign * (a - b) < 0

    wins = sum(beats(c, p) for p, c in zip(parent, change))
    if len(parent) < MIN_PAIRS:
        return "unresolved", wins
    med_p, med_c = median(parent), median(change)
    if wins >= WIN_SHARE * len(parent) and abs(med_c - med_p) > iqr(parent) \
            and beats(med_c, med_p):
        return "improved", wins
    all_better = all(beats(c, p) for c in change for p in parent)
    if med_p and iqr(parent) / abs(med_p) > bound and not all_better:
        return "unresolved", wins
    worse = sign * (med_c - med_p) / abs(med_p) if med_p else 0.0
    return ("regressed" if worse > bound else "unchanged"), wins


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / max(1, attempted)


def compare(args):
    spec = load_spec()
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    bad = False
    print(f"{'workload':16} {'metric':20} {'pairs':>5} {'parent p50':>14} "
          f"{'parent IQR':>12} {'change p50':>14} {'wins':>5}  label")
    for workload in sorted(set(parent_runs) | set(change_runs)):
        p_runs = parent_runs.get(workload, {})
        c_runs = change_runs.get(workload, {})
        pairs = sorted(set(p_runs) & set(c_runs))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [p_runs[i]["metrics"][name]["value"] for i in pairs]
            change = [c_runs[i]["metrics"][name]["value"] for i in pairs]
            label, wins = classify(parent, change, metric["better"],
                                   metric["bound"])
            bad |= label == "regressed"
            print(f"{workload:16} {name:20} {len(pairs):5d} "
                  f"{median(parent):14.6g} {iqr(parent):12.4g} "
                  f"{median(change):14.6g} {wins:5d}  {label}")
        p_fail = failed_share([p_runs[i] for i in pairs])
        c_fail = failed_share([c_runs[i] for i in pairs])
        if c_fail > p_fail:
            bad = True
            print(f"{workload:16} failed share rose: {p_fail:.4g} -> "
                  f"{c_fail:.4g}")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    lint_parser = sub.add_parser("lint")
    lint_parser.add_argument("--seconds", type=float, default=1.0)
    compare_parser = sub.add_parser("compare")
    compare_parser.add_argument("parent")
    compare_parser.add_argument("change")
    args = parser.parse_args()
    return lint(args) if args.command == "lint" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
