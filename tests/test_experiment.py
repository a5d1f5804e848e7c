"""Sweep orchestration, seed analysis, and scatter projection tests."""

from __future__ import annotations

import csv
import json
import random
import re
import subprocess
import sys
import threading
import time
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cascadecut import (
    ConvergenceError,
    DeletionPlan,
    EstimateReport,
    ExperimentConfig,
    InputError,
    NON_TREE,
    ParseError,
    STRATEGIES,
    VARIANTS,
    plan_strategy,
    read_plan_cache,
    read_report_csv,
    run_sweep,
    save_plan,
    save_plan_cache,
    seed_analysis,
    write_report_csv,
)
from cascadecut import cli, diffusion, experiment, graph, ingest
from cascadecut.deletion import cache_header
from cascadecut.experiment import SCATTER_HEADER, budget_for, load_network, write_gnuplot_script
from conftest import network_of, one_variant, random_instance, random_logs, write_eight_node_dataset
from oracles import (
    CascadeLog, batch_of, dict_edge_positions, graph_edges, per_budget_sweep, prefix, run_estimation, serial_sweep,
    table_of,
)


def read_summary(out_dir):
    lines = (out_dir / "summary.csv").read_text().splitlines()
    assert lines[0] == "strategy,variant,k,fraction,total_estimated,total_original"
    return [line.split(",") for line in lines[1:]]


def write_random_dataset(tmp_path, rng, n_cascades=4, max_nodes=18):
    network, _, edges, _ = random_instance(rng, max_nodes=max_nodes, outside_user_chance=0.0)
    users = list(network.external_ids)
    rows = []
    for i in range(n_cascades):
        for user in rng.sample(users, rng.randint(2, len(users))):
            rows.append(f"c{i}\t{user}\t{rng.randint(0, 30)}\n")
    edges_path = tmp_path / "edges.tsv"
    cascades_path = tmp_path / "cascades.tsv"
    edges_path.write_text("".join(f"{a}\t{b}\n" for a, b in edges), encoding="utf-8")
    cascades_path.write_text("".join(rows), encoding="utf-8")
    return edges_path, cascades_path


class TestConfigValidation:
    def _config(self, tmp_path, **kw):
        base = dict(
            edges_path=tmp_path / "e.tsv",
            cascades_path=tmp_path / "c.tsv",
            out_dir=tmp_path / "out",
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_fractions_sorted_and_deduplicated(self, tmp_path):
        config = self._config(tmp_path, budget_fractions=(0.5, 0.1, 0.5))
        assert config.budget_fractions == (0.1, 0.5)

    def test_strategies_and_variants_deduplicated_in_order(self, tmp_path):
        config = self._config(
            tmp_path,
            strategies=("random", "netmelt", "random"),
            variants=("tree-last", "non-tree", "tree-last"),
        )
        assert config.strategies == ("random", "netmelt")
        assert config.variants == ("tree-last", "non-tree")

    def test_fractions_that_print_alike_rejected(self, tmp_path):
        with pytest.raises(InputError, match=r"budget fractions 0\.30000000000000004 and 0\.3000001 both print as 0\.3"):
            self._config(tmp_path, budget_fractions=(0.1, 0.3000001, 0.1 + 0.2))
        assert self._config(tmp_path, budget_fractions=(0.3, 0.300001)).budget_fractions == (0.3, 0.300001)

    def test_fraction_out_of_range_rejected(self, tmp_path):
        with pytest.raises(InputError):
            self._config(tmp_path, budget_fractions=(1.5,))

    def test_unknown_strategy_rejected(self, tmp_path):
        with pytest.raises(InputError):
            self._config(tmp_path, strategies=("bogus",))

    def test_unknown_variant_rejected(self, tmp_path):
        with pytest.raises(InputError):
            self._config(tmp_path, variants=("bogus",))

    def test_negative_min_size_rejected(self, tmp_path):
        with pytest.raises(InputError, match="min_cascade_size must be >= 0"):
            self._config(tmp_path, min_cascade_size=-1)
        assert self._config(tmp_path, min_cascade_size=0).min_cascade_size == 0

    @pytest.mark.parametrize("field, error", [
        ("strategies", "at least one strategy is required"),
        ("variants", "at least one variant is required"),
        ("budget_fractions", "at least one budget fraction is required"),
    ])
    def test_empty_lists_rejected(self, tmp_path, field, error):
        with pytest.raises(InputError, match=error):
            self._config(tmp_path, **{field: ()})

    def test_negative_seed_rejected(self, tmp_path):
        # Before any plan: a cache written under seed -1 by an earlier
        # version would be reused without calling plan_random.
        for strategies in (("random",), ("netmelt",)):
            with pytest.raises(InputError, match="rng seed must be >= 0, not -1"):
                self._config(tmp_path, strategies=strategies, rng_seed=-1)

    def test_budget_for(self):
        assert budget_for(0.0, 100) == 0
        assert budget_for(0.5, 8) == 4
        assert budget_for(1.0, 8) == 8
        assert budget_for(0.333, 9) == 3


class TestRunSweep:
    @pytest.mark.parametrize("n_cascades", [1, 12])
    def test_builds_once_per_variant(self, tmp_path, monkeypatch, n_cascades):
        calls = []
        build = experiment.build_batches

        def counting(network, table, variants):
            calls.append((tuple(variants), len(table)))
            return build(network, table, variants)

        monkeypatch.setattr(experiment, "build_batches", counting)
        edges_path, cascades_path = write_random_dataset(tmp_path, random.Random(193), n_cascades)
        config = ExperimentConfig(
            edges_path=edges_path,
            cascades_path=cascades_path,
            out_dir=tmp_path / "out",
            min_cascade_size=0,
            strategies=("random", "edge-degree"),
            budget_fractions=(0.0, 0.5),
        )
        run_sweep(config)
        assert calls == [(VARIANTS, n_cascades)]

    def test_gathers_once_for_all_variants(self, tmp_path, monkeypatch):
        gathers, batches = [], {}
        gather, build = diffusion._gather, experiment.build_batches

        def counting_gather(network, table):
            gathers.append(len(table))
            return gather(network, table)

        def keeping_build(network, table, variants):
            batches.update(build(network, table, variants))
            return batches

        monkeypatch.setattr(diffusion, "_gather", counting_gather)
        monkeypatch.setattr(experiment, "build_batches", keeping_build)
        edges_path, cascades_path = write_random_dataset(tmp_path, random.Random(197), 6)
        config = ExperimentConfig(
            edges_path=edges_path,
            cascades_path=cascades_path,
            out_dir=tmp_path / "out",
            min_cascade_size=0,
            strategies=("random",),
            budget_fractions=(0.5,),
        )
        run_sweep(config)
        assert gathers == [6]
        network, table = experiment.load_dataset(config)
        assert sorted(batches) == sorted(VARIANTS)
        for variant, got in batches.items():
            want = batch_of(network, table, variant)
            assert got.cascade_ids == want.cascade_ids
            for name in ("sizes", "seed_counts", "owner", "node", "child_slot", "parent_slot", "follow_edge_pos"):
                assert getattr(got, name).tolist() == getattr(want, name).tolist()

    def test_zero_fraction_rows_are_identities(self, tmp_path):
        rng = random.Random(191)
        edges_path, cascades_path = write_random_dataset(tmp_path, rng)
        config = ExperimentConfig(
            edges_path=edges_path,
            cascades_path=cascades_path,
            out_dir=tmp_path / "out",
            min_cascade_size=0,
            budget_fractions=(0.0, 0.5),
            rng_seed=3,
        )
        run_sweep(config)
        for row in read_summary(config.out_dir):
            if row[3] == "0":
                assert row[4] == row[5]

    def test_eight_node_dataset_with_cached_manual_plan(self, tmp_path):
        edges_path, cascades_path = write_eight_node_dataset(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        # A hand-made plan cached under the netmelt strategy name: the sweep
        # must reuse it instead of recomputing scores.
        network = load_network(edges_path, False)
        pos = dict_edge_positions(network, [("5", "1"), ("6", "3")])
        save_plan_cache(DeletionPlan("netmelt", 2, network, pos, [0.5, 0.25]), out / "plan_netmelt.npz")
        config = ExperimentConfig(
            edges_path=edges_path,
            cascades_path=cascades_path,
            out_dir=out,
            min_cascade_size=0,
            strategies=("netmelt",),
            variants=("non-tree",),
            budget_fractions=(0.25,),
        )
        run_sweep(config)
        rows = read_summary(out)
        assert rows == [["netmelt", "non-tree", "2", "0.25", "5", "8"]]

    def test_plan_cached_from_another_edge_file_is_recomputed(self, tmp_path, caplog):
        other_edges, other_cascades = write_random_dataset(tmp_path, random.Random(211))
        (tmp_path / "eight").mkdir()
        edges_path, cascades_path = write_eight_node_dataset(tmp_path / "eight")
        outputs = {}
        for name, edge_file, cascade_file in (
            ("fresh", edges_path, cascades_path),
            ("reused", other_edges, other_cascades),
            ("reused", edges_path, cascades_path),
        ):
            config = ExperimentConfig(
                edges_path=edge_file,
                cascades_path=cascade_file,
                out_dir=tmp_path / name,
                min_cascade_size=0,
                variants=("non-tree",),
                budget_fractions=(0.25, 0.5),
                rng_seed=5,
            )
            caplog.clear()
            with caplog.at_level("INFO", logger="cascadecut.experiment"):
                run_sweep(config)
            outputs[name] = {p.name: p.read_bytes() for p in sorted(config.out_dir.iterdir())}
        assert outputs["reused"] == outputs["fresh"]
        recomputed = [r.getMessage() for r in caplog.records if "recomputing" in r.getMessage()]
        assert len(recomputed) == len(STRATEGIES)
        assert all("has fingerprint" in message for message in recomputed)

    @pytest.mark.parametrize(
        "edges, reason",
        [
            ([("5", "1"), None], "does not fit this network (edge_pos must hold edge positions of the network)"),
            ([("5", "1"), ("5", "1"), ("6", "3")], "does not name 2 distinct edges of this network"),
        ],
        ids=["unknown-edge", "duplicate-edge"],
    )
    def test_cached_plan_with_foreign_or_repeated_edges_is_recomputed(self, tmp_path, caplog, edges, reason):
        # None stands for -1, the position of an edge the network lacks.
        edges_path, cascades_path = write_eight_node_dataset(tmp_path)
        network = load_network(edges_path, False)
        pos = [-1 if edge is None else dict_edge_positions(network, [edge])[0] for edge in edges]
        outputs = []
        for name in ("fresh", "cached"):
            out = tmp_path / name
            out.mkdir()
            if name == "cached":
                plant_cache(out / "plan_netmelt.npz", network, "netmelt", pos, [0.5, 0.25, 0.0][: len(pos)])
            config = ExperimentConfig(
                edges_path=edges_path,
                cascades_path=cascades_path,
                out_dir=out,
                min_cascade_size=0,
                strategies=("netmelt",),
                budget_fractions=(0.25,),
            )
            with caplog.at_level("INFO", logger="cascadecut.experiment"):
                run_sweep(config)
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]
        assert f"cached plan at {tmp_path / 'cached' / 'plan_netmelt.npz'} {reason}; recomputing" in caplog.text

    def test_sweep_resolves_plan_strings_only_when_loading_a_cached_plan(self, tmp_path, monkeypatch):
        calls = Counter()
        view = DeletionPlan.ranked_edges.fget

        def counting_view(plan):
            calls["ranked_edges"] += 1
            return view(plan)

        monkeypatch.setattr(DeletionPlan, "ranked_edges", property(counting_view))
        edges_path, cascades_path = write_random_dataset(tmp_path, random.Random(223))
        config = ExperimentConfig(
            edges_path=edges_path,
            cascades_path=cascades_path,
            out_dir=tmp_path / "out",
            min_cascade_size=0,
            budget_fractions=(0.2, 0.6),
        )
        run_sweep(config)
        assert calls == Counter()
        run_sweep(config)
        assert calls == Counter()
        # A text plan beside no cache is not read, so no id is resolved either.
        network = load_network(edges_path, False)
        ids, src, dst = network.external_ids, network.edge_sources(), network.edge_dst_indices
        text = "".join(f"{ids[src[p]]}\t{ids[dst[p]]}\t{1.0 - p / 4}\n" for p in range(2))
        only_text = tmp_path / "text"
        only_text.mkdir()
        (only_text / "plan_netmelt.tsv").write_text(f"netmelt,2,\n{text}", encoding="utf-8")
        run_sweep(replace(config, out_dir=only_text, strategies=("netmelt",)))
        assert calls == Counter()

    def test_matches_hand_composition(self, tmp_path):
        rng = random.Random(193)
        edges_path, cascades_path = write_random_dataset(tmp_path, rng)
        config = ExperimentConfig(
            edges_path=edges_path,
            cascades_path=cascades_path,
            out_dir=tmp_path / "out",
            min_cascade_size=0,
            strategies=STRATEGIES,
            variants=VARIANTS,
            budget_fractions=(0.0, 0.5, 1.0),
            rng_seed=11,
        )
        run_sweep(config)
        summary = {
            (row[0], row[1], row[3]): (int(row[4]), int(row[5]))
            for row in read_summary(config.out_dir)
        }
        from cascadecut import filter_cascades, load_cascades, read_network

        with open(edges_path) as fh:
            network = read_network(fh)
        with open(cascades_path) as fh:
            table = filter_cascades(load_cascades(fh), 0)
        for strategy in STRATEGIES:
            plan = plan_strategy(network, strategy, network.edge_count, rng_seed=11)
            for variant in VARIANTS:
                for fraction in (0.0, 0.5, 1.0):
                    k = budget_for(fraction, network.edge_count)
                    report = run_estimation(network, table, prefix(plan, k), variant)
                    assert summary[(strategy, variant, f"{fraction:g}")] == (
                        report.total_estimated,
                        report.total_original,
                    )

    def test_files_match_per_budget_loop_byte_for_byte(self, tmp_path):
        rng = random.Random(241)
        for trial in range(3):
            root = tmp_path / f"trial{trial}"
            root.mkdir()
            edges_path, cascades_path = write_random_dataset(root, rng, n_cascades=6)
            with open(cascades_path, "a", encoding="utf-8") as fh:
                fh.write(f"c1\tghost{trial}\t{rng.randint(0, 30)}\n")  # user absent from the network
            config = ExperimentConfig(
                edges_path=edges_path,
                cascades_path=cascades_path,
                out_dir=root / "out",
                min_cascade_size=0,
                budget_fractions=(0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0),
                rng_seed=13 + trial,
            )
            run_sweep(config)
            per_budget_sweep(config, root / "oracle")
            expected = {p.name: p.read_bytes() for p in (root / "oracle").iterdir()}
            got = {
                p.name: p.read_bytes()
                for p in config.out_dir.iterdir()
                if not p.name.startswith("plan_")
            }
            assert len(expected) == len(STRATEGIES) * len(VARIANTS) * 7 + 1
            assert got == expected

    def test_cascade_ids_with_commas_and_quotes_are_csv_quoted(self, tmp_path):
        edges_path, cascades_path = write_random_dataset(tmp_path, random.Random(251), n_cascades=3)
        events = re.sub("^c0\t", "a,b\t", cascades_path.read_text(encoding="utf-8"), flags=re.M)
        cascades_path.write_text(re.sub("^c1\t", 'q"x\t', events, flags=re.M), encoding="utf-8")
        config = ExperimentConfig(
            edges_path=edges_path,
            cascades_path=cascades_path,
            out_dir=tmp_path / "out",
            min_cascade_size=0,
            strategies=("edge-degree",),
            variants=(NON_TREE,),
            budget_fractions=(0.0, 0.5),
        )
        run_sweep(config)
        per_budget_sweep(config, tmp_path / "oracle")
        expected = {p.name: p.read_bytes() for p in (tmp_path / "oracle").iterdir()}
        assert {name: (config.out_dir / name).read_bytes() for name in expected} == expected

        path = config.out_dir / "report_edge-degree_non-tree_0.5.csv"
        text = path.read_text(encoding="utf-8")
        assert ',"a,b",' in text and ',"q""x",' in text
        _, *rows = csv.reader(text.splitlines())
        assert [row[3] for row in rows] == ["a,b", "c2", 'q"x']
        report = read_report_csv(path)
        columns = zip(report.cascade_ids, report.original_sizes.tolist(), report.estimated_sizes.tolist())
        assert list(columns) == [(cid, int(orig), int(est)) for _, _, _, cid, orig, est, _ in rows]
        assert report.seed_counts.tolist() == [int(row[6]) for row in rows]
        assert cli.main(["scatter", "--report", str(path), "--out", str(tmp_path / "scatter")]) == 0
        scatter = (tmp_path / "scatter" / f"scatter_{path.stem}.csv").read_text(encoding="utf-8")
        assert '\n"a,b",' in scatter and '\n"q""x",' in scatter
        assert list(csv.reader(scatter.splitlines()))[1:] == [[cid, orig, est] for _, _, _, cid, orig, est, _ in rows]

    def test_totals_non_increasing_and_trees_bounded(self, tmp_path):
        rng = random.Random(197)
        edges_path, cascades_path = write_random_dataset(tmp_path, rng, n_cascades=3)
        config = ExperimentConfig(
            edges_path=edges_path,
            cascades_path=cascades_path,
            out_dir=tmp_path / "out",
            min_cascade_size=0,
            budget_fractions=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
            rng_seed=5,
        )
        run_sweep(config)
        rows = read_summary(config.out_dir)
        by_combo: dict[tuple[str, str], list[int]] = {}
        by_point: dict[tuple[str, str], dict[str, int]] = {}
        for strategy, variant, _, fraction, est, _orig in rows:
            by_combo.setdefault((strategy, variant), []).append(int(est))
            by_point.setdefault((strategy, fraction), {})[variant] = int(est)
        for totals in by_combo.values():
            assert totals == sorted(totals, reverse=True)
        for variants in by_point.values():
            assert variants["tree-first"] <= variants["non-tree"]
            assert variants["tree-last"] <= variants["non-tree"]

    def test_rerun_is_byte_identical(self, tmp_path):
        rng = random.Random(199)
        edges_path, cascades_path = write_random_dataset(tmp_path, rng)
        outputs = []
        for name in ("out1", "out2"):
            config = ExperimentConfig(
                edges_path=edges_path,
                cascades_path=cascades_path,
                out_dir=tmp_path / name,
                min_cascade_size=0,
                budget_fractions=(0.0, 0.3, 0.9),
                rng_seed=21,
            )
            run_sweep(config)
            outputs.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted((tmp_path / name).iterdir())
                }
            )
        assert outputs[0] == outputs[1]

    def test_each_plan_is_freed_before_the_next_is_computed(self, tmp_path, monkeypatch):
        # Weak references see whether the sweep still holds the previous
        # strategy's plan and ranks when the next plan starts.
        plans, ranks, alive = [], [], []
        materialise, rank = experiment._materialise_plan, experiment.plan_ranks

        def watched_materialise(*args):
            alive.append([ref() is not None for ref in plans + ranks])
            plan, path, computed = materialise(*args)
            plans.append(weakref.ref(plan))
            return plan, path, computed

        def watched_ranks(network, plan):
            result = rank(network, plan)
            ranks.append(weakref.ref(result))
            return result

        monkeypatch.setattr(experiment, "_materialise_plan", watched_materialise)
        monkeypatch.setattr(experiment, "plan_ranks", watched_ranks)
        edges_path, cascades_path = write_eight_node_dataset(tmp_path)
        sweep_files(edges_path, cascades_path, tmp_path / "out", strategies=("edge-degree", "random", "netmelt"))
        assert alive == [[], [False, False], [False, False, False, False]]

    def test_missing_edges_file_raises_input_error(self, tmp_path):
        config = ExperimentConfig(
            edges_path=tmp_path / "missing.tsv",
            cascades_path=tmp_path / "also-missing.tsv",
            out_dir=tmp_path / "out",
        )
        with pytest.raises(InputError, match="ingest"):
            run_sweep(config)


def files_in(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def sweep_files(edges_path, cascades_path, out, **options):
    """Run a sweep into ``out``; every file there by name, with its bytes."""
    options = {"min_cascade_size": 0, "budget_fractions": (0.25,), **options}
    run_sweep(ExperimentConfig(edges_path=edges_path, cascades_path=cascades_path, out_dir=out, **options))
    return files_in(out)


def plant_cache(path, network, strategy, edge_pos, scores):
    """Write a plan cache whose header matches ``network`` and ``strategy``
    around arrays that need not make a plan."""
    header = json.dumps(cache_header(strategy, len(edge_pos), None, network), sort_keys=True)
    np.savez(path, header=np.array(header), edge_pos=np.array(edge_pos, dtype=np.int64),
             scores=np.array(scores, dtype=np.float64))


def recomputing(caplog):
    return [r.getMessage() for r in caplog.records if r.getMessage().endswith("; recomputing")]


# Chained two-cycles: a defective leading eigenvalue, on which netmelt does not converge.
NON_CONVERGING_EDGES = "a\tb\nb\ta\nb\tc\nc\td\nd\tc\n"


def outcome(sweep, config):
    """(files written, type of the error raised) of ``sweep(config)``."""
    try:
        sweep(config)
        error = None
    except (ConvergenceError, InputError) as exc:
        error = type(exc)
    return (files_in(config.out_dir) if config.out_dir.exists() else None), error


def finishing_first(monkeypatch, first):
    """Make the cascade side (``"cascades"``) or the planner (``"plan"``) of a
    sweep finish before the other one starts its work."""
    done = {"cascades": threading.Event(), "plan": threading.Event()}

    def ordered(name, fn):
        other = "plan" if name == "cascades" else "cascades"

        def run(*args, **kwargs):
            if first == other and not done[other].wait(30):
                raise TimeoutError(f"{other} never finished")
            try:
                return fn(*args, **kwargs)
            finally:
                done[name].set()
        return run

    monkeypatch.setattr(experiment, "_kept_cascades", ordered("cascades", experiment._kept_cascades))
    monkeypatch.setattr(experiment, "plan_strategy", ordered("plan", experiment.plan_strategy))


class TestCascadeSide:
    """The sweep reads its cascades on a second thread while it plans: same
    files as the serial sweep, nothing written before the join, the cascade
    side's error first, and no thread left behind."""

    FRACTIONS = [(0.0,), (0.25,), (0.1, 0.5), (0.05, 0.3, 1.0), (0.2, 0.4, 0.6, 0.8)]

    @pytest.mark.parametrize("seed", range(24))
    def test_files_equal_the_serial_sweep(self, tmp_path, seed):
        rng = random.Random(4000 + seed)
        network, _, edges, _ = random_instance(rng, max_nodes=16, outside_user_chance=0.0)
        logs = random_logs(rng, network, rng.randint(1, 8))  # absent users and single-user cascades too
        edges_path, cascades_path = tmp_path / "edges.tsv", tmp_path / "cascades.tsv"
        edges_path.write_text("".join(f"{a}\t{b}\n" for a, b in edges), encoding="utf-8")
        cascades_path.write_text(
            "".join(f"{log.cascade_id}\t{u}\t{t}\n" for log in rng.sample(logs, len(logs)) for u, t in log.events),
            encoding="utf-8",
        )
        for run in range(2):  # the second run finds the first one's plan caches
            options = dict(
                min_cascade_size=rng.randint(0, 2),
                strategies=tuple(rng.sample(STRATEGIES, rng.randint(1, len(STRATEGIES)))),
                variants=tuple(rng.sample(VARIANTS, rng.randint(1, len(VARIANTS)))),
                budget_fractions=rng.choice(self.FRACTIONS),
                rng_seed=rng.randint(0, 2) if run else 0,
            )
            threads = threading.active_count()
            got = outcome(run_sweep, ExperimentConfig(edges_path, cascades_path, tmp_path / "threaded", **options))
            assert threading.active_count() == threads
            want = outcome(serial_sweep, ExperimentConfig(edges_path, cascades_path, tmp_path / "serial", **options))
            assert got == want

    @pytest.mark.parametrize("first", ["cascades", "plan"])
    def test_cascade_parse_error_outranks_non_convergence(self, tmp_path, monkeypatch, capsys, first):
        edges_path, cascades_path, out = tmp_path / "edges.tsv", tmp_path / "cascades.tsv", tmp_path / "out"
        edges_path.write_text(NON_CONVERGING_EDGES, encoding="utf-8")
        cascades_path.write_text("t\ta\t1\nt\tb\n", encoding="utf-8")
        finishing_first(monkeypatch, first)
        threads = threading.active_count()
        code = cli.main(["sweep", "--edges", str(edges_path), "--cascades", str(cascades_path), "--min-size", "0",
                         "--strategies", "netmelt", "--fractions", "0.5", "--strict-parse", "--out", str(out)])
        assert threading.active_count() == threads
        assert code == cli.EXIT_INPUT
        assert "error [parse]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("first", ["cascades", "plan"])
    def test_missing_cascade_file_writes_no_plan(self, tmp_path, monkeypatch, first):
        edges_path, _ = write_eight_node_dataset(tmp_path)
        out = tmp_path / "out"
        finishing_first(monkeypatch, first)
        threads = threading.active_count()
        with pytest.raises(InputError, match="cascades file"):
            run_sweep(ExperimentConfig(edges_path, tmp_path / "missing.tsv", out, strategies=("edge-degree",)))
        assert threading.active_count() == threads
        assert not out.exists()

    def test_only_computed_plans_are_saved_after_the_join(self, tmp_path, monkeypatch):
        # A fresh run saves each strategy's plan once, after the cascade side
        # has been joined; a re-run that reuses every plan saves none, so
        # each cache keeps its bytes and its modification time.
        edges_path, cascades_path = write_eight_node_dataset(tmp_path)
        out, strategies = tmp_path / "out", ("edge-degree", "random", "netmelt")
        saving, saves = threading.Event(), []
        kept, save = experiment._kept_cascades, experiment.save_plan_cache

        def slow_cascades(*args):
            saving.wait(0.2)  # a save before the join finds this side still at work
            return kept(*args)

        def watched_save(plan, path):
            saving.set()
            saves.append((path.name, [t.name for t in threading.enumerate() if t.name == "cascadecut-cascades"]))
            save(plan, path)

        monkeypatch.setattr(experiment, "_kept_cascades", slow_cascades)
        monkeypatch.setattr(experiment, "save_plan_cache", watched_save)
        sweep_files(edges_path, cascades_path, out, strategies=strategies)
        assert saves == [(f"plan_{s}.npz", []) for s in strategies]
        caches = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.glob("*.npz")}
        assert len(caches) == len(strategies)
        saves.clear()
        sweep_files(edges_path, cascades_path, out, strategies=strategies)
        assert saves == []
        assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.glob("*.npz")} == caches

    def test_non_convergence_on_the_second_strategy_leaves_the_serial_files(self, tmp_path, capsys):
        edges_path, cascades_path = tmp_path / "edges.tsv", tmp_path / "cascades.tsv"
        edges_path.write_text(NON_CONVERGING_EDGES, encoding="utf-8")
        cascades_path.write_text("t\ta\t1\nt\tb\t2\nu\tc\t1\nu\td\t3\n", encoding="utf-8")
        options = dict(min_cascade_size=0, strategies=("edge-degree", "netmelt"), budget_fractions=(0.2, 0.6))
        with pytest.raises(ConvergenceError):
            serial_sweep(ExperimentConfig(edges_path, cascades_path, tmp_path / "serial", **options))
        threads = threading.active_count()
        code = cli.main(["sweep", "--edges", str(edges_path), "--cascades", str(cascades_path), "--min-size", "0",
                         "--strategies", "edge-degree,netmelt", "--fractions", "0.2,0.6",
                         "--out", str(tmp_path / "threaded")])
        assert threading.active_count() == threads
        assert code == cli.EXIT_CONVERGENCE
        assert "eigensolver" in capsys.readouterr().err
        assert files_in(tmp_path / "threaded") == files_in(tmp_path / "serial")
        assert "plan_edge-degree.npz" in files_in(tmp_path / "serial")


class TestPlanCache:
    """The sweep's ``plan_<strategy>.npz`` cache: reused only on a full match."""

    STRATEGIES = ("edge-degree", "netmelt", "random")

    def test_edited_edge_file_over_the_same_ids_is_recomputed(self, tmp_path, caplog):
        edges_path, cascades_path = write_random_dataset(tmp_path, random.Random(307), max_nodes=14)
        out = tmp_path / "out"
        sweep_files(edges_path, cascades_path, out, strategies=self.STRATEGIES)
        old = load_network(edges_path, False)
        in_plans = {p for s in ("edge-degree", "netmelt") for p in read_plan_cache(out / f"plan_{s}.npz")[1].tolist()}
        # Drop an edge no plan ranks whose ends keep other edges, and add one
        # between existing ids, so the id table stays the same.
        src, dst = old.edge_sources().tolist(), old.edge_dst_indices.tolist()
        ends = Counter(src + dst)
        drop = next(p for p in range(old.edge_count) if p not in in_plans and ends[src[p]] > 1 and ends[dst[p]] > 1)
        edges = set(zip(src, dst))
        add = next((a, b) for a in range(old.node_count) for b in range(old.node_count)
                   if a != b and (a, b) not in edges and (a, b) != (src[drop], dst[drop]))
        ids = old.external_ids
        kept = [(ids[a], ids[b]) for p, (a, b) in enumerate(zip(src, dst)) if p != drop]
        edges_path.write_text("".join(f"{a}\t{b}\n" for a, b in [*kept, (ids[add[0]], ids[add[1]])]))
        new = load_network(edges_path, False)
        assert new.external_ids == old.external_ids and new.edge_count == old.edge_count
        # Every ranked edge of the old plans is an edge of the new network, so
        # a check of the edges alone would reuse them.
        for s in ("edge-degree", "netmelt"):
            head = read_plan_cache(out / f"plan_{s}.npz")[1]
            pairs = [(ids[src[p]], ids[dst[p]]) for p in head.tolist()]
            assert -1 not in dict_edge_positions(new, pairs)

        with caplog.at_level("INFO", logger="cascadecut.experiment"):
            got = sweep_files(edges_path, cascades_path, out, strategies=self.STRATEGIES)
        assert len(recomputing(caplog)) == len(self.STRATEGIES)
        assert all("has fingerprint" in message for message in recomputing(caplog))
        assert got == sweep_files(edges_path, cascades_path, tmp_path / "fresh", strategies=self.STRATEGIES)

    @pytest.mark.parametrize(
        "damage",
        [lambda b: b[: len(b) // 2], lambda b: b"not a zip archive\n", lambda b: b""],
        ids=["truncated", "not-zip", "empty"],
    )
    def test_unreadable_cache_is_recomputed(self, tmp_path, caplog, damage):
        edges_path, cascades_path = write_eight_node_dataset(tmp_path)
        want = sweep_files(edges_path, cascades_path, tmp_path / "fresh", strategies=("netmelt",))
        out = tmp_path / "out"
        out.mkdir()
        (out / "plan_netmelt.npz").write_bytes(damage(want["plan_netmelt.npz"]))
        with caplog.at_level("INFO", logger="cascadecut.experiment"):
            assert sweep_files(edges_path, cascades_path, out, strategies=("netmelt",)) == want
        [message] = recomputing(caplog)
        assert "plan_netmelt.npz cannot be read" in message and "not a plan cache" in message

    @pytest.mark.parametrize(
        "first, second, reason",
        [
            ({"strategies": ("random",), "rng_seed": 1}, {"strategies": ("random",), "rng_seed": 2},
             "has rng_seed 1, not 2"),
            ({"strategies": ("netmelt",), "budget_fractions": (0.25,)},
             {"strategies": ("netmelt",), "budget_fractions": (0.5,)},
             "ranks 2 of the 4 edge(s) needed"),
        ],
        ids=["seed", "coverage"],
    )
    def test_cache_of_other_parameters_is_recomputed(self, tmp_path, caplog, first, second, reason):
        edges_path, cascades_path = write_eight_node_dataset(tmp_path)
        out = tmp_path / "out"
        sweep_files(edges_path, cascades_path, out, **first)
        want = sweep_files(edges_path, cascades_path, tmp_path / "fresh", **second)
        with caplog.at_level("INFO", logger="cascadecut.experiment"):
            got = sweep_files(edges_path, cascades_path, out, **second)
        assert recomputing(caplog) == [f"cached plan at {out / next(n for n in want if n.endswith('.npz'))} {reason}; recomputing"]
        assert {name: got[name] for name in want} == want

    def test_cache_holding_more_positions_than_its_budget_is_recomputed(self, tmp_path, caplog):
        # The header says k=1, yet the file ranks 3 edges (another ranking
        # than the sweep's); a budget of 3 must not read them.
        edges_path, cascades_path = write_eight_node_dataset(tmp_path)
        options = {"strategies": ("edge-degree",), "budget_fractions": (0.375,)}
        want = sweep_files(edges_path, cascades_path, tmp_path / "fresh", **options)
        network = load_network(edges_path, False)
        fresh = read_plan_cache(tmp_path / "fresh" / "plan_edge-degree.npz")[1]
        pos = [p for p in range(network.edge_count) if p not in fresh.tolist()][:3]
        out = tmp_path / "out"
        out.mkdir()
        header = json.dumps(cache_header("edge-degree", 1, None, network), sort_keys=True)
        np.savez(out / "plan_edge-degree.npz", header=np.array(header), edge_pos=np.array(pos, dtype=np.int64),
                 scores=np.array([3.0, 2.0, 1.0]))
        with caplog.at_level("INFO", logger="cascadecut.experiment"):
            got = sweep_files(edges_path, cascades_path, out, **options)
        assert recomputing(caplog) == [
            f"cached plan at {out / 'plan_edge-degree.npz'} does not fit this network "
            "(edge_pos holds 3 positions, more than min(k, |E|) = 1); recomputing"
        ]
        assert got == want

    def test_cache_of_another_strategy_is_recomputed(self, tmp_path, caplog):
        edges_path, cascades_path = write_eight_node_dataset(tmp_path)
        want = sweep_files(edges_path, cascades_path, tmp_path / "fresh", strategies=("netmelt", "edge-degree"))
        out = tmp_path / "out"
        out.mkdir()
        (out / "plan_netmelt.npz").write_bytes(want["plan_edge-degree.npz"])
        with caplog.at_level("INFO", logger="cascadecut.experiment"):
            got = sweep_files(edges_path, cascades_path, out, strategies=("netmelt", "edge-degree"))
        [message] = recomputing(caplog)
        assert "has strategy 'edge-degree', not 'netmelt'" in message
        assert got == want

    @pytest.mark.parametrize(
        "edit, reason",
        [
            ({"format": 99}, "has format 99, not 1"),
            ({"tolerance": 1e-6}, "has tolerance 1e-06, not 1e-09"),
            ({"max_iterations": 5}, "has max_iterations 5, not 10000"),
        ],
        ids=["format", "tolerance", "max-iterations"],
    )
    def test_cache_with_another_header_is_recomputed(self, tmp_path, caplog, edit, reason):
        edges_path, cascades_path = write_eight_node_dataset(tmp_path)
        want = sweep_files(edges_path, cascades_path, tmp_path / "fresh", strategies=("netmelt",))
        header, edge_pos, scores = read_plan_cache(tmp_path / "fresh" / "plan_netmelt.npz")
        out = tmp_path / "out"
        out.mkdir()
        np.savez(out / "plan_netmelt.npz", header=np.array(json.dumps({**header, **edit})),
                 edge_pos=edge_pos, scores=scores)
        with caplog.at_level("INFO", logger="cascadecut.experiment"):
            assert sweep_files(edges_path, cascades_path, out, strategies=("netmelt",)) == want
        [message] = recomputing(caplog)
        assert reason in message

    def test_matching_cache_wins_over_a_text_plan(self, tmp_path, caplog):
        edges_path, cascades_path = write_eight_node_dataset(tmp_path)
        out = tmp_path / "out"
        want = sweep_files(edges_path, cascades_path, out, strategies=("netmelt",))
        # A valid text plan that would give other totals.
        planted = b"netmelt,2,\n5\t1\t0.5\n6\t3\t0.25\n"
        (out / "plan_netmelt.tsv").write_bytes(planted)
        with caplog.at_level("INFO", logger="cascadecut.experiment"):
            got = sweep_files(edges_path, cascades_path, out, strategies=("netmelt",))
        assert got.pop("plan_netmelt.tsv") == planted
        assert got == want
        assert f"reusing cached netmelt plan from {out / 'plan_netmelt.npz'}" in caplog.text
        assert not recomputing(caplog)
        assert not [r for r in caplog.records if r.levelname == "WARNING"]

    @pytest.mark.parametrize("planted", ["stale-export", "malformed", "not-utf8"])
    def test_a_text_plan_is_never_read(self, tmp_path, caplog, planted):
        # The sweep's edge file is another one's with edges added over the
        # same ids, so every edge of the other file's export is in this
        # network, yet its ranking is not this network's.  Strict parsing
        # concerns the edge and cascade files only.
        rng = random.Random(331)
        older, cascades_path = write_random_dataset(tmp_path, rng, n_cascades=6, max_nodes=16)
        old = load_network(older, False)
        ids, edges = old.external_ids, set(graph_edges(old))
        extra = [(a, b) for a in ids for b in ids if a != b and (a, b) not in edges]
        edges_path = tmp_path / "edges-2.tsv"
        added = rng.sample(extra, old.edge_count // 5)
        edges_path.write_text(older.read_text() + "".join(f"{a}\t{b}\n" for a, b in added), encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        text = out / "plan_edge-degree.tsv"
        if planted == "stale-export":
            save_plan(plan_strategy(old, "edge-degree", old.edge_count), text)
        else:
            text.write_bytes(b"edge-degree,x,\n" if planted == "malformed" else b"edge-degree,1,\n\xff\tu\t1.0\n")
        before = text.read_bytes()
        options = {"strategies": ("edge-degree",), "budget_fractions": (0.1, 0.3, 0.5), "strict_parse": True}
        want = sweep_files(edges_path, cascades_path, tmp_path / "fresh", **options)
        with caplog.at_level("INFO", logger="cascadecut.experiment"):
            got = sweep_files(edges_path, cascades_path, out, **options)
        assert got.pop(text.name) == before
        assert "plan_edge-degree.npz" in got and got == want
        [warning] = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warning == f"{text} is not this sweep's edge-degree plan; it was left untouched"

    def test_a_text_plan_beside_a_recomputed_cache_is_named(self, tmp_path, caplog):
        edges_path, cascades_path = write_eight_node_dataset(tmp_path)
        out = tmp_path / "out"
        sweep_files(edges_path, cascades_path, out, strategies=("random",), rng_seed=1)
        text = out / "plan_random.tsv"
        network = load_network(edges_path, False)
        save_plan(plan_strategy(network, "random", network.edge_count, rng_seed=1), text)  # the seed-1 export
        before = text.read_bytes()
        with caplog.at_level("INFO", logger="cascadecut.experiment"):
            got = sweep_files(edges_path, cascades_path, out, strategies=("random",), rng_seed=2)
        assert got.pop(text.name) == before
        assert got == sweep_files(edges_path, cascades_path, tmp_path / "fresh", strategies=("random",), rng_seed=2)
        [message] = recomputing(caplog)
        assert "has rng_seed 1, not 2" in message
        [warning] = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warning == f"{text} is not this sweep's random plan; it was left untouched"

    def test_cache_bytes_depend_on_neither_time_nor_directory(self, tmp_path, monkeypatch):
        edges_path, cascades_path = write_random_dataset(tmp_path, random.Random(311))
        first = sweep_files(edges_path, cascades_path, tmp_path / "a", strategies=self.STRATEGIES)
        clock = time.time()
        monkeypatch.setattr(time, "time", lambda: clock + 86_400 * 400 + 3)
        second = sweep_files(edges_path, cascades_path, tmp_path / "b" / "c", strategies=self.STRATEGIES)
        assert [name for name in first if name.endswith(".npz")] == [f"plan_{s}.npz" for s in sorted(self.STRATEGIES)]
        assert first == second

    def test_sweep_leaves_numpy_ma_unimported(self, tmp_path):
        edges_path, cascades_path = write_random_dataset(tmp_path, random.Random(313))
        with open(cascades_path, "a", encoding="utf-8") as fh:
            fh.write("c0\tghost\t5\n")  # an absent user takes the warning's count path
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "from cascadecut import ExperimentConfig, run_sweep\n"
            f"run_sweep(ExperimentConfig({str(edges_path)!r}, {str(cascades_path)!r}, {str(tmp_path / 'out')!r},\n"
            "    min_cascade_size=0, strategies=('netmelt', 'random')))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]


def test_decimal_ids_stay_integers_from_ingest_to_the_plan_cache(tmp_path, monkeypatch):
    # A sweep's set-up over decimal ids renders no id as a string: the graph
    # and the cascade table keep int64 id tables, and the fingerprint is
    # hashed from their digits.
    rng = random.Random(17)
    ids = [str(rng.randint(1, 10 ** rng.randint(1, 12))) for _ in range(40)]
    edges_path, cascades_path = tmp_path / "edges.tsv", tmp_path / "cascades.tsv"
    edges_path.write_text("".join(f"{rng.choice(ids)}\t{rng.choice(ids)}\n" for _ in range(300)), encoding="utf-8")
    rows = [f"c{rng.randint(0, 9)}\t{rng.choice(ids + ['999'])}\t{rng.randint(0, 50)}\n" for _ in range(200)]
    cascades_path.write_text("".join(rows), encoding="utf-8")
    calls = []
    render = graph.id_strings
    for module in (graph, ingest):
        monkeypatch.setattr(module, "id_strings", lambda values: calls.append(values.size) or render(values))
    config = ExperimentConfig(edges_path, cascades_path, tmp_path / "out", min_cascade_size=0)
    network, table = experiment.load_dataset(config)
    diffusion.build_batches(network, table, VARIANTS)
    for strategy in ("netmelt", "random"):
        save_plan_cache(plan_strategy(network, strategy, 50), tmp_path / f"plan_{strategy}.npz")
    assert calls == []
    assert len(network.external_ids) == network.node_count and len(table.users) > 0
    assert calls == [network.node_count, len(table.users)]


class TestSeedAnalysis:
    def test_single_user_cascades(self):
        network = network_of([("a", "b")])
        table = table_of([CascadeLog.from_events(f"c{i}", [(u, 1)]) for i, u in enumerate("ab")])
        assert seed_analysis(network, table) == [("c0", 1, 1), ("c1", 1, 1)]

    def test_eight_node_row(self, eight_node_network, eight_node_table):
        assert seed_analysis(eight_node_network, eight_node_table) == [("t", 8, 2)]

    def test_max_size_filter(self, eight_node_network, eight_node_table):
        assert seed_analysis(eight_node_network, eight_node_table, max_size=7) == []
        assert seed_analysis(eight_node_network, eight_node_table, max_size=8) == [("t", 8, 2)]
        assert seed_analysis(eight_node_network, eight_node_table, max_size=0) == []

    def test_negative_max_size_rejected(self, eight_node_network, eight_node_table):
        with pytest.raises(InputError, match="max_size must be >= 0, not -1"):
            seed_analysis(eight_node_network, eight_node_table, max_size=-1)

    def test_matches_seed_oracle(self):
        rng = random.Random(211)
        for _ in range(10):
            network, log, _, _ = random_instance(rng)
            rows = seed_analysis(network, table_of([log]), max_size=10**9)
            dg = one_variant(network, log, NON_TREE)
            assert rows == [(log.cascade_id, len(dg.nodes), len(dg.seeds))]


class TestScatter:
    @staticmethod
    def scatter_rows(report, tmp_path):
        """The rows ``cascadecut scatter`` writes for ``report``."""
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        assert cli.main(["scatter", "--report", str(path), "--out", str(tmp_path / "scatter")]) == 0
        text = (tmp_path / "scatter" / "scatter_report.csv").read_text(encoding="utf-8")
        header, *rows = csv.reader(text.splitlines())
        assert tuple(header) == SCATTER_HEADER
        return [(cid, int(orig), int(est)) for cid, orig, est in rows]

    def test_zero_budget_points_on_diagonal(self, eight_node_network, eight_node_table, tmp_path):
        from test_estimator import manual_plan

        report = run_estimation(eight_node_network, eight_node_table, manual_plan(eight_node_network, []), "non-tree")
        assert self.scatter_rows(report, tmp_path) == [("t", 8, 8)]

    def test_eight_node_cut_row(self, eight_node_network, eight_node_table, tmp_path):
        from conftest import EIGHT_NODE_CUT_FOLLOW_EDGES
        from test_estimator import manual_plan

        report = run_estimation(
            eight_node_network, eight_node_table, manual_plan(eight_node_network, EIGHT_NODE_CUT_FOLLOW_EDGES), "non-tree"
        )
        assert self.scatter_rows(report, tmp_path) == [("t", 8, 5)]

    def test_projection_of_arbitrary_report(self, tmp_path):
        report = EstimateReport("random", "non-tree", 2, ("b", "a"), [4, 2], [3, 2], [1, 2])
        assert self.scatter_rows(report, tmp_path) == [("b", 4, 3), ("a", 2, 2)]


class TestGnuplot:
    def test_script_references_summary(self, tmp_path):
        path = write_gnuplot_script(tmp_path, ("netmelt",), ("non-tree", "tree-last"))
        text = path.read_text()
        assert "summary.csv" in text
        assert "netmelt non-tree" in text
        assert "netmelt tree-last" in text
