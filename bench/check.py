"""Correctness checks on one sweep output directory.

Any seed: every report row keeps seed_count <= estimated <= original,
report sums equal the summary totals, totals never increase with k, and
tree totals never exceed non-tree totals at the same (strategy, k).  For
a workload's reference seed the report and summary files must also match
the recorded SHA-256 digests byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
from collections import defaultdict
from pathlib import Path

SUMMARY_HEADER = ["strategy", "variant", "k", "fraction", "total_estimated", "total_original"]
REPORT_HEADER = ["strategy", "variant", "k", "cascade_id", "original_size", "estimated_size", "seed_count"]
NON_TREE = "non-tree"


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file in ``out_dir``, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir()) if p.is_file()}


def is_result_file(name: str) -> bool:
    """Reports and the summary: the files the byte-identical contract covers."""
    return name == "summary.csv" or (name.startswith("report_") and name.endswith(".csv"))


def result_digests(out_dir: Path) -> dict[str, str]:
    return {name: digest for name, digest in digests(out_dir).items() if is_result_file(name)}


def check_outputs(
    out_dir: Path,
    strategies: tuple[str, ...],
    variants: tuple[str, ...],
    fraction_count: int,
    reference: dict[str, str] | None = None,
) -> tuple[list[str], int]:
    """Return (problems found, number of per-cascade estimate rows)."""
    problems: list[str] = []
    summary_path = out_dir / "summary.csv"
    if not summary_path.is_file():
        return ["summary.csv missing"], 0
    with open(summary_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != SUMMARY_HEADER:
        return [f"summary.csv header {rows[:1]!r}"], 0

    totals: dict[tuple[str, str], list[tuple[int, int, int]]] = defaultdict(list)
    estimates = 0
    for row in rows[1:]:
        strategy, variant, k_text, fraction, est_text, orig_text = row
        k, est, orig = int(k_text), int(est_text), int(orig_text)
        totals[(strategy, variant)].append((k, est, orig))
        report = out_dir / f"report_{strategy}_{variant}_{fraction}.csv"
        count, report_problems = _check_report(report, strategy, variant, k, est, orig)
        estimates += count
        problems += report_problems

    expected = {(s, v) for s in strategies for v in variants}
    if set(totals) != expected:
        problems.append(f"summary covers {sorted(totals)}, expected {sorted(expected)}")
    for key, points in sorted(totals.items()):
        if len(points) != fraction_count:
            problems.append(f"{key}: {len(points)} budget points, expected {fraction_count}")
        points.sort()
        for (k0, est0, _), (k1, est1, _) in zip(points, points[1:]):
            if est1 > est0:
                problems.append(f"{key}: total rises from {est0} at k={k0} to {est1} at k={k1}")
    for (strategy, variant), points in sorted(totals.items()):
        base = dict((k, est) for k, est, _ in totals.get((strategy, NON_TREE), []))
        if variant == NON_TREE or not base:
            continue
        for k, est, _ in points:
            if k in base and est > base[k]:
                problems.append(f"{strategy},{variant},k={k}: tree total {est} > non-tree {base[k]}")

    if reference is not None:
        got = result_digests(out_dir)
        for name in sorted(set(reference) | set(got)):
            if reference.get(name) != got.get(name):
                problems.append(f"{name}: digest differs from the reference")
    return problems, estimates


def _check_report(path: Path, strategy: str, variant: str, k: int, est: int, orig: int) -> tuple[int, list[str]]:
    if not path.is_file():
        return 0, [f"{path.name} missing"]
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != REPORT_HEADER:
        return 0, [f"{path.name}: header {rows[:1]!r}"]
    problems = []
    sum_est = sum_orig = 0
    for row in rows[1:]:
        r_strategy, r_variant, r_k, cascade_id, o, e, s = row
        original, estimated, seeds = int(o), int(e), int(s)
        if (r_strategy, r_variant, int(r_k)) != (strategy, variant, k):
            problems.append(f"{path.name}: row for {r_strategy},{r_variant},{r_k}")
        if not seeds <= estimated <= original:
            problems.append(f"{path.name}: {cascade_id} has seed/estimated/original {seeds}/{estimated}/{original}")
        sum_est += estimated
        sum_orig += original
    if (sum_est, sum_orig) != (est, orig):
        problems.append(f"{path.name}: rows sum to {sum_est}/{sum_orig}, summary says {est}/{orig}")
    return len(rows) - 1, problems
