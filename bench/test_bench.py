"""Tests of the benchmark's own generator, output checker and runner."""

from __future__ import annotations

import csv
import time
import types

import pytest

import check
import gen
import run
import tracer

TINY = gen.Spec(users=300, edge_lines=1_500, cascades=6, min_cascade=5, max_cascade=40,
                small_cascades=2, small_max=4)


def _generate(tmp_path, seed: int, name: str) -> tuple[bytes, bytes]:
    dest = tmp_path / name
    gen.generate("tiny", TINY, seed, dest)
    return (dest / "edges.tsv").read_bytes(), (dest / "cascades.tsv").read_bytes()


def test_generator_is_deterministic_per_seed(tmp_path):
    first = _generate(tmp_path, 7, "a")
    assert first == _generate(tmp_path, 7, "b")
    other = _generate(tmp_path, 8, "c")
    assert first[0] != other[0]
    assert first[1] != other[1]


def test_generator_writes_canonical_records(tmp_path):
    edges, events = _generate(tmp_path, 3, "a")
    assert len(edges.splitlines()) == TINY.edge_lines
    assert all(len(line.split(b"\t")) == 2 for line in edges.splitlines())
    rows = [line.split(b"\t") for line in events.splitlines()]
    assert all(len(row) == 3 and int(row[2]) > 0 for row in rows)
    assert len({row[0] for row in rows}) == TINY.cascades + TINY.small_cascades


def test_generator_adds_users_absent_from_the_network(tmp_path):
    absent = 0
    for seed in range(10):
        dest = tmp_path / str(seed)
        counts = gen.generate("tiny", TINY, seed, dest)
        users = set((dest / "edges.tsv").read_text().split())
        events = [line.split("\t") for line in (dest / "cascades.tsv").read_text().splitlines()]
        assert sum(user not in users for _, user, _ in events) == counts["missing_user_events"]
        absent += counts["missing_user_events"]
    assert absent > 0


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _valid_outputs(out):
    """Two cascades, one strategy, two variants, two budget points."""
    out.mkdir()
    per_cascade = {  # (variant, k) -> [(cascade, original, estimated, seeds)]
        ("non-tree", 1): [("a", 5, 4, 1), ("b", 3, 3, 2)],
        ("non-tree", 2): [("a", 5, 3, 1), ("b", 3, 2, 2)],
        ("tree-last", 1): [("a", 5, 3, 1), ("b", 3, 3, 2)],
        ("tree-last", 2): [("a", 5, 2, 1), ("b", 3, 2, 2)],
    }
    summary = []
    for (variant, k), rows in per_cascade.items():
        fraction = f"{0.1 * k:g}"
        _write_csv(out / f"report_netmelt_{variant}_{fraction}.csv", check.REPORT_HEADER,
                   [("netmelt", variant, k, *row) for row in rows])
        summary.append(("netmelt", variant, k, fraction, sum(r[2] for r in rows), sum(r[1] for r in rows)))
    _write_csv(out / "summary.csv", check.SUMMARY_HEADER, summary)
    return out


def _check(out, reference=None):
    return check.check_outputs(out, ("netmelt",), ("non-tree", "tree-last"), 2, reference)


def test_checker_accepts_consistent_outputs(tmp_path):
    out = _valid_outputs(tmp_path / "out")
    problems, estimates = _check(out, check.result_digests(out))
    assert problems == []
    assert estimates == 8


def test_checker_rejects_one_changed_summary_total(tmp_path):
    out = _valid_outputs(tmp_path / "out")
    reference = check.result_digests(out)
    lines = (out / "summary.csv").read_text().splitlines()
    fields = lines[2].split(",")
    fields[4] = str(int(fields[4]) - 1)
    lines[2] = ",".join(fields)
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    problems, _ = _check(out)
    assert any("summary says" in p for p in problems)
    problems, _ = _check(out, reference)
    assert "summary.csv: digest differs from the reference" in problems


def test_checker_rejects_broken_invariants(tmp_path):
    out = _valid_outputs(tmp_path / "out")
    # tree-last at k=2: total 6 is above non-tree's 5 and above its own 5 at
    # k=1, and cascade b is estimated below its seed count.
    _write_csv(out / "report_netmelt_tree-last_0.1.csv", check.REPORT_HEADER,
               [("netmelt", "tree-last", 1, "a", 5, 2, 1), ("netmelt", "tree-last", 1, "b", 3, 3, 2)])
    _write_csv(out / "report_netmelt_tree-last_0.2.csv", check.REPORT_HEADER,
               [("netmelt", "tree-last", 2, "a", 5, 5, 1), ("netmelt", "tree-last", 2, "b", 3, 1, 2)])
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][4], rows[4][4] = "5", "6"
    _write_csv(out / "summary.csv", rows[0], rows[1:])
    problems, _ = _check(out)
    assert any("tree total" in p for p in problems)
    assert any("total rises" in p for p in problems)
    assert any("seed/estimated/original 2/1/3" in p for p in problems)


def test_runner_rejects_non_empty_output_directory(tmp_path):
    assert run.fresh_out_dir(tmp_path / "new") == tmp_path / "new"
    (tmp_path / "used").mkdir()
    assert run.fresh_out_dir(tmp_path / "used") == tmp_path / "used"
    (tmp_path / "used" / "plan_netmelt.tsv").write_text("netmelt,1,\n")
    with pytest.raises(run.BenchError, match="not empty"):
        run.fresh_out_dir(tmp_path / "used")


def test_tracer_nests_spans_and_skips_missing_attributes():
    ns = types.SimpleNamespace(inner=lambda: time.sleep(0.002))

    def outer():
        ns.inner()
        ns.inner()
        return 3

    ns.outer = outer
    spans = tracer.Tracer()
    assert not spans.wrap(ns, "estimate_rows", "estimator.estimate_rows", None)
    assert spans.wrap(ns, "inner", "graph.inner", None)
    assert spans.wrap(ns, "outer", "experiment.outer", lambda args, kwargs, result: result)
    assert ns.outer() == 3
    assert [(name, parent) for name, _, _, parent in spans.spans] == [
        ("experiment.outer", None), ("graph.inner", 0), ("graph.inner", 0)]
    total, own = spans.durations()
    assert own[0] == pytest.approx(total[0] - total[1] - total[2])
    assert own[1] == total[1] > 0
    assert spans.calls["experiment.outer"] == [(0, 3)]


def test_every_workload_has_a_rationale_and_known_flags():
    for workload in gen.WORKLOADS.values():
        assert workload.why and "\n" not in workload.why and len(workload.why) <= 200
        options = run.sweep_options(workload)
        assert {"--strategies", "--variants", "--threads"} <= set(options)
