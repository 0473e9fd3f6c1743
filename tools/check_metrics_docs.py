#!/usr/bin/env python3
"""Lint: keep the metrics surface and docs/METRICS.md in lockstep.

Checks, failing CI on the first violation:

1. Every counter field of `struct Statistics` (src/storage/statistics.h)
   has a backticked entry in docs/METRICS.md.
2. Every counter in the canonical descriptor table
   (`StatisticsCounters()`, src/obs/metrics.cc) matches a Statistics
   field exactly — no stale rows, no missing rows.
3. Every `MemoryGovernor` category name (src/engine/memory_governor.cc)
   has a backticked entry in docs/METRICS.md.
4. Reverse direction: every backticked identifier in the first column of
   a docs/METRICS.md table exists somewhere under src/ — documentation
   cannot name counters that no longer exist.

Run from anywhere: paths resolve relative to the repository root.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
STATISTICS_H = REPO / "src" / "storage" / "statistics.h"
METRICS_CC = REPO / "src" / "obs" / "metrics.cc"
GOVERNOR_CC = REPO / "src" / "engine" / "memory_governor.cc"
METRICS_MD = REPO / "docs" / "METRICS.md"

IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def statistics_fields():
    """Counter fields of struct Statistics: plain uint64_t and
    ComparisonCounter members (derived helpers and methods excluded)."""
    text = STATISTICS_H.read_text()
    struct = re.search(r"struct Statistics \{(.*?)^\};", text,
                       re.DOTALL | re.MULTILINE)
    if not struct:
        sys.exit(f"{STATISTICS_H}: cannot find struct Statistics")
    body = struct.group(1)
    fields = re.findall(r"^\s*uint64_t\s+(\w+)\s*=\s*0\s*;", body,
                        re.MULTILINE)
    fields += re.findall(r"^\s*ComparisonCounter\s+(\w+)\s*;", body,
                         re.MULTILINE)
    return fields


def descriptor_names():
    """Counter names registered in StatisticsCounters()."""
    text = METRICS_CC.read_text()
    table = re.search(
        r"StatisticsCounters\(\)\s*\{(.*?)return kCounters;", text,
        re.DOTALL)
    if not table:
        sys.exit(f"{METRICS_CC}: cannot find StatisticsCounters()")
    return re.findall(r'>\(\s*"(\w+)"', table.group(1))


def governor_categories():
    """The MemoryCategoryName strings."""
    text = GOVERNOR_CC.read_text()
    fn = re.search(r"MemoryCategoryName\(.*?\n\}", text, re.DOTALL)
    if not fn:
        sys.exit(f"{GOVERNOR_CC}: cannot find MemoryCategoryName")
    names = re.findall(r'return "(\w+)";', fn.group(0))
    return [n for n in names if n != "unknown"]


def doc_backticked_tokens(markdown):
    """All backticked identifier-like tokens anywhere in the doc."""
    return {
        token
        for token in re.findall(r"`([^`]+)`", markdown)
        if IDENT.match(token)
    }


def doc_first_column_tokens(markdown):
    """Backticked identifiers in the first column of any table row."""
    tokens = set()
    for line in markdown.splitlines():
        if not line.startswith("|"):
            continue
        first = line.split("|")[1]
        for token in re.findall(r"`([^`]+)`", first):
            if IDENT.match(token):
                tokens.add(token)
    return tokens


def src_identifiers():
    """Every identifier appearing in any src/ source file."""
    idents = set()
    for path in (REPO / "src").rglob("*"):
        if path.suffix in (".h", ".cc"):
            idents.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*",
                                     path.read_text()))
    return idents


def main():
    failures = []
    fields = statistics_fields()
    if len(fields) < 20:
        failures.append(
            f"parsed only {len(fields)} Statistics fields — parser broken?")
    # Fenced code blocks would break inline-backtick pairing; drop them.
    markdown = re.sub(r"```.*?```", "", METRICS_MD.read_text(),
                      flags=re.DOTALL)
    documented = doc_backticked_tokens(markdown)

    # 1. Statistics fields documented.
    for field in fields:
        if field not in documented:
            failures.append(
                f"Statistics counter `{field}` has no backticked entry in "
                f"docs/METRICS.md")

    # 2. Descriptor table in lockstep with the struct.
    described = descriptor_names()
    for field in fields:
        if field not in described:
            failures.append(
                f"Statistics counter `{field}` missing from "
                f"StatisticsCounters() (src/obs/metrics.cc)")
    for name in described:
        if name not in fields:
            failures.append(
                f"StatisticsCounters() row `{name}` does not match any "
                f"Statistics field (stale?)")

    # 3. Governor categories documented.
    categories = governor_categories()
    if len(categories) != 5:
        failures.append(
            f"parsed {len(categories)} governor categories, expected 5")
    for category in categories:
        if category not in documented:
            failures.append(
                f"MemoryGovernor category `{category}` has no backticked "
                f"entry in docs/METRICS.md")

    # 4. Documented first-column names still exist in the source.
    known = src_identifiers()
    for token in sorted(doc_first_column_tokens(markdown)):
        if token not in known:
            failures.append(
                f"docs/METRICS.md documents `{token}` but it appears "
                f"nowhere under src/")

    if failures:
        for failure in failures:
            print(f"check_metrics_docs: {failure}")
        return 1
    print(
        f"check_metrics_docs: OK ({len(fields)} Statistics counters, "
        f"{len(categories)} governor categories, "
        f"{len(described)} descriptor rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
