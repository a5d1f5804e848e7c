"""Sweep orchestration, seed analysis, and scatter projection tests."""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cascadecut import (
    CascadeLog,
    DeletionPlan,
    DirectedGraph,
    EstimateReport,
    ExperimentConfig,
    InputError,
    NON_TREE,
    STRATEGIES,
    VARIANTS,
    build_batch,
    build_graph,
    build_variant,
    plan_strategy,
    read_plan_cache,
    run_estimation,
    run_sweep,
    scatter_report,
    seed_analysis,
)
from cascadecut import diffusion, experiment
from cascadecut.estimator import CascadeResult
from cascadecut.experiment import budget_for, load_network, write_gnuplot_script
from conftest import random_instance, write_eight_node_dataset
from oracles import per_budget_sweep


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

    def test_fraction_out_of_range_rejected(self, tmp_path):
        with pytest.raises(InputError):
            self._config(tmp_path, budget_fractions=(1.5,))

    def test_unknown_strategy_rejected(self, tmp_path):
        with pytest.raises(InputError):
            self._config(tmp_path, strategies=("bogus",))

    def test_unknown_variant_rejected(self, tmp_path):
        with pytest.raises(InputError):
            self._config(tmp_path, variants=("bogus",))

    def test_budget_for(self):
        assert budget_for(0.0, 100) == 0
        assert budget_for(0.5, 8) == 4
        assert budget_for(1.0, 8) == 8
        assert budget_for(0.333, 9) == 3


class TestRunSweep:
    @pytest.mark.parametrize("n_cascades", [1, 12])
    def test_builds_once_per_variant(self, tmp_path, monkeypatch, n_cascades):
        calls = []

        def counting(network, logs, variant):
            calls.append((variant, len(logs)))
            return build_batch(network, logs, variant)

        monkeypatch.setattr(experiment, "build_batch", counting)
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
        assert calls == [(variant, n_cascades) for variant in VARIANTS]

    def test_gathers_once_for_all_variants(self, tmp_path, monkeypatch):
        gathers, batches = [], {}
        gather, build = diffusion.gather_candidates, experiment.build_batch

        def counting_gather(network, logs):
            gathers.append(len(logs))
            return gather(network, logs)

        def keeping_build(network, logs, variant):
            batches[variant] = build(network, logs, variant)
            return batches[variant]

        monkeypatch.setattr(diffusion, "gather_candidates", counting_gather)
        monkeypatch.setattr(experiment, "gather_candidates", counting_gather)
        monkeypatch.setattr(experiment, "build_batch", keeping_build)
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
        network, logs = experiment.load_dataset(config)
        assert sorted(batches) == sorted(VARIANTS)
        for variant, got in batches.items():
            want = build(network, logs, variant)
            assert got.cascade_ids == want.cascade_ids
            for name in ("sizes", "seed_counts", "cascade", "parent", "child", "follow_edge_pos"):
                assert getattr(got, name).tolist() == getattr(want, name).tolist()

    def test_candidates_of_another_network_are_rejected(self):
        logs = [CascadeLog.from_events("c", [("a", 1), ("b", 2)])]
        network = build_graph([("b", "a")])
        candidates = diffusion.gather_candidates(network, logs)
        with pytest.raises(InputError, match="another network"):
            build_batch(build_graph([("b", "a")]), candidates, NON_TREE)

    @pytest.mark.parametrize("numeric", [False, True])
    def test_netmelt_and_random_sweep_never_build_the_reverse_index(self, tmp_path, monkeypatch, numeric):
        calls = Counter()
        reverse, index = DirectedGraph._reverse_index, DirectedGraph._id_index

        def counting_reverse(network):
            calls["reverse"] += 1
            return reverse(network)

        def counting_index(network):
            calls["index"] += 1
            return index(network)

        monkeypatch.setattr(DirectedGraph, "_reverse_index", counting_reverse)
        monkeypatch.setattr(DirectedGraph, "_id_index", counting_index)
        edges_path, cascades_path = write_random_dataset(tmp_path, random.Random(227), 5)
        if numeric:  # the same dataset over decimal ids: no id dict either
            for path in (edges_path, cascades_path):
                path.write_text(re.sub(r"\bu(\d+)", lambda m: str(7 * int(m.group(1)) + 1), path.read_text()))
        config = ExperimentConfig(
            edges_path=edges_path,
            cascades_path=cascades_path,
            out_dir=tmp_path / "out",
            min_cascade_size=0,
            strategies=("netmelt", "random"),
            budget_fractions=(0.1, 0.5),
        )
        run_sweep(config)
        assert calls["reverse"] == 0
        assert calls["index"] == (0 if numeric else 1)

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
        # A hand-written plan cached under the netmelt strategy name: the
        # sweep must reuse it instead of recomputing scores.
        (out / "plan_netmelt.tsv").write_text(
            "netmelt,2,\n5\t1\t0.5\n6\t3\t0.25\n", encoding="utf-8"
        )
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
        "body",
        ["5\t1\t0.5\nzz\t3\t0.25\n", "5\t1\t0.5\n5\t1\t0.25\n6\t3\t0.0\n"],
        ids=["unknown-edge", "duplicate-edge"],
    )
    def test_cached_plan_with_foreign_or_repeated_edges_is_recomputed(self, tmp_path, caplog, body):
        edges_path, cascades_path = write_eight_node_dataset(tmp_path)
        planted = f"netmelt,3,\n{body}".encode()
        outputs = []
        for name in ("fresh", "cached"):
            out = tmp_path / name
            out.mkdir()
            if name == "cached":
                (out / "plan_netmelt.tsv").write_bytes(planted)
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
        assert outputs[1].pop("plan_netmelt.tsv") == planted
        assert outputs[0] == outputs[1]
        assert "does not name 2 distinct edges of this network; recomputing" in caplog.text

    def test_sweep_resolves_plan_strings_only_when_loading_a_cached_plan(self, tmp_path, monkeypatch):
        calls = Counter()
        resolve, view = DirectedGraph.edge_positions, DeletionPlan.ranked_edges.fget

        def counting_resolve(network, pairs):
            calls["edge_positions"] += 1
            return resolve(network, pairs)

        def counting_view(plan):
            calls["ranked_edges"] += 1
            return view(plan)

        monkeypatch.setattr(DirectedGraph, "edge_positions", counting_resolve)
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
        from cascadecut import filter_cascades, load_cascades, load_follow_edges

        with open(edges_path) as fh:
            network = build_graph(load_follow_edges(fh))
        with open(cascades_path) as fh:
            logs = filter_cascades(load_cascades(fh), 0)
        for strategy in STRATEGIES:
            plan = plan_strategy(network, strategy, network.edge_count, rng_seed=11)
            for variant in VARIANTS:
                for fraction in (0.0, 0.5, 1.0):
                    k = budget_for(fraction, network.edge_count)
                    report = run_estimation(network, logs, plan.prefix(k), variant)
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

    def test_missing_edges_file_raises_input_error(self, tmp_path):
        config = ExperimentConfig(
            edges_path=tmp_path / "missing.tsv",
            cascades_path=tmp_path / "also-missing.tsv",
            out_dir=tmp_path / "out",
        )
        with pytest.raises(InputError, match="ingest"):
            run_sweep(config)


def sweep_files(edges_path, cascades_path, out, **options):
    """Run a sweep into ``out``; every file there by name, with its bytes."""
    options = {"min_cascade_size": 0, "budget_fractions": (0.25,), **options}
    run_sweep(ExperimentConfig(edges_path=edges_path, cascades_path=cascades_path, out_dir=out, **options))
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def recomputing(caplog):
    return [r.getMessage() for r in caplog.records if r.getMessage().endswith("; recomputing")]


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
        src, dst = old.edge_src_indices.tolist(), old.edge_dst_indices.tolist()
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
            assert (new.edge_positions(pairs) >= 0).all()

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

    def test_text_plan_without_a_cache_is_reused_and_left_alone(self, tmp_path, caplog):
        edges_path, cascades_path = write_eight_node_dataset(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        planted = b"netmelt,2,\n5\t1\t0.5\n6\t3\t0.25\n"
        (out / "plan_netmelt.tsv").write_bytes(planted)
        with caplog.at_level("INFO", logger="cascadecut.experiment"):
            got = sweep_files(edges_path, cascades_path, out, strategies=("netmelt",), variants=("non-tree",))
        assert got["plan_netmelt.tsv"] == planted
        assert "plan_netmelt.npz" not in got
        assert f"{out / 'plan_netmelt.tsv'} carries no network fingerprint" in caplog.text
        assert read_summary(out) == [["netmelt", "non-tree", "2", "0.25", "5", "8"]]

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


class TestSeedAnalysis:
    def test_single_user_cascades(self):
        network = build_graph([("a", "b")])
        logs = [CascadeLog.from_events(f"c{i}", [(u, 1)]) for i, u in enumerate("ab")]
        assert seed_analysis(network, logs) == [("c0", 1, 1), ("c1", 1, 1)]

    def test_eight_node_row(self, eight_node_network, eight_node_log):
        assert seed_analysis(eight_node_network, [eight_node_log]) == [("t", 8, 2)]

    def test_max_size_filter(self, eight_node_network, eight_node_log):
        assert seed_analysis(eight_node_network, [eight_node_log], max_size=7) == []
        assert seed_analysis(eight_node_network, [eight_node_log], max_size=8) == [("t", 8, 2)]

    def test_matches_seed_oracle(self):
        rng = random.Random(211)
        for _ in range(10):
            network, log, _, _ = random_instance(rng)
            rows = seed_analysis(network, [log], max_size=10**9)
            dg = build_variant(network, log, NON_TREE)
            assert rows == [(log.cascade_id, len(dg.nodes), len(dg.seeds))]


class TestScatter:
    def test_zero_budget_points_on_diagonal(self, eight_node_network, eight_node_log):
        from test_estimator import manual_plan

        report = run_estimation(eight_node_network, [eight_node_log], manual_plan(eight_node_network, []), "non-tree")
        assert scatter_report(report) == [("t", 8, 8)]

    def test_eight_node_cut_row(self, eight_node_network, eight_node_log):
        from conftest import EIGHT_NODE_CUT_FOLLOW_EDGES
        from test_estimator import manual_plan

        report = run_estimation(
            eight_node_network, [eight_node_log], manual_plan(eight_node_network, EIGHT_NODE_CUT_FOLLOW_EDGES), "non-tree"
        )
        assert scatter_report(report) == [("t", 8, 5)]

    def test_projection_of_arbitrary_report(self):
        report = EstimateReport.from_rows(
            "random", "non-tree", 2,
            [CascadeResult("b", 4, 3, 1), CascadeResult("a", 2, 2, 2)],
        )
        assert scatter_report(report) == [("a", 2, 2), ("b", 4, 3)]


class TestGnuplot:
    def test_script_references_summary(self, tmp_path):
        path = write_gnuplot_script(tmp_path, ("netmelt",), ("non-tree", "tree-last"))
        text = path.read_text()
        assert "summary.csv" in text
        assert "netmelt non-tree" in text
        assert "netmelt tree-last" in text
