"""Sweep orchestration, seed analysis, and scatter projection tests."""

from __future__ import annotations

import random
from collections import Counter

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
    run_estimation,
    run_sweep,
    scatter_report,
    seed_analysis,
)
from cascadecut import experiment
from cascadecut.estimator import CascadeResult
from cascadecut.experiment import budget_for, write_gnuplot_script
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
        assert all("distinct edges of this network" in message for message in recomputed)

    @pytest.mark.parametrize(
        "body",
        ["5\t1\t0.5\nzz\t3\t0.25\n", "5\t1\t0.5\n5\t1\t0.25\n6\t3\t0.0\n"],
        ids=["unknown-edge", "duplicate-edge"],
    )
    def test_cached_plan_with_foreign_or_repeated_edges_is_recomputed(self, tmp_path, caplog, body):
        edges_path, cascades_path = write_eight_node_dataset(tmp_path)
        outputs = []
        for name in ("fresh", "cached"):
            out = tmp_path / name
            out.mkdir()
            if name == "cached":
                (out / "plan_netmelt.tsv").write_text(f"netmelt,3,\n{body}", encoding="utf-8")
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
        assert calls == Counter(edge_positions=len(STRATEGIES))

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
