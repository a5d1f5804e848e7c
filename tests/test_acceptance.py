"""Acceptance suite: one test per release criterion, strictest tolerances.

A1  golden eight-node example: exact edges, seeds, post-cut size 5, < 1 ms
A2  zero-deletion identity on 200+ random instances, all variants, exact
A3  tree estimates never exceed the non-tree estimate, same instances
A4  totals non-increasing along the budget grid for every strategy
A5  edge betweenness equals the path-counting oracle within 1e-9 per edge
A6  leading eigenvalue within 1e-6 of the dense oracle; single-edge
    deletion choice lands in the exhaustive oracle's top 3 in >= 90% of runs
A7  estimated size never drops below the seed count, anywhere
A8  public-dataset trends (runs only when the dataset is on disk)
A9  two identical sweep runs leave byte-identical output directories

Each test prints a PASS line; a pytest failure is the FAIL line.
"""

from __future__ import annotations

import os
import random
import time
from pathlib import Path

import pytest

from cascadecut import (
    CascadeLog,
    DeletionPlan,
    ExperimentConfig,
    NON_TREE,
    STRATEGIES,
    VARIANTS,
    apply_deletion,
    build_batch,
    build_graph,
    build_variant,
    compute_stats,
    edge_betweenness,
    estimate_size,
    filter_cascades,
    leading_eigenpair,
    load_follow_edges,
    load_higgs_activity,
    plan_netmelt,
    plan_random,
    plan_strategy,
    run_estimation,
    run_sweep,
)
from cascadecut.experiment import budget_for
from conftest import (
    EIGHT_NODE_CUT_FOLLOW_EDGES,
    EIGHT_NODE_SEEDS,
    EIGHT_NODE_SPREAD_EDGES,
    random_instance,
    write_eight_node_dataset,
)
from oracles import dense_spectral_radius, path_count_betweenness, random_digraph


def _manual_plan(follow_edges):
    return DeletionPlan(
        strategy="netmelt",
        k=len(follow_edges),
        ranked_edges=tuple(follow_edges),
        scores=tuple(0.0 for _ in follow_edges),
    )


def test_a1_golden_eight_node_example(eight_node_network, eight_node_log):
    dg = build_variant(eight_node_network, eight_node_log, NON_TREE)
    assert dg.edges == EIGHT_NODE_SPREAD_EDGES
    assert dg.seeds == EIGHT_NODE_SEEDS

    plan = _manual_plan(EIGHT_NODE_CUT_FOLLOW_EDGES)
    assert estimate_size(apply_deletion(dg, plan), dg.seeds) == 5

    def cut_and_count():
        return estimate_size(apply_deletion(dg, plan), dg.seeds)

    cut_and_count()  # warm-up
    timings = []
    for _ in range(20):
        start = time.perf_counter()
        cut_and_count()
        timings.append(time.perf_counter() - start)
    best = min(timings)
    assert best < 1e-3, f"cut+estimate took {best * 1e3:.3f} ms"
    print(f"PASS A1: exact edges/seeds/size-5 golden example, {best * 1e6:.0f} us per estimate")


def _random_instances(count, seed, max_nodes=30):
    rng = random.Random(seed)
    for i in range(count):
        network, log, edges, _ = random_instance(rng, max_nodes=max_nodes)
        yield i, rng, network, log, edges


def test_a2_zero_deletion_identity():
    checked = 0
    for _, _, network, log, _ in _random_instances(220, seed=1003):
        empty = _manual_plan([])
        for variant in VARIANTS:
            report = run_estimation(network, [log], empty, variant)
            assert report.total_estimated == log.size
            checked += 1
    assert checked >= 200 * len(VARIANTS)
    print(f"PASS A2: zero-deletion estimate equals cascade size on {checked} runs")


def test_a3_tree_variants_never_beat_non_tree():
    instances = 0
    for _, rng, network, log, edges in _random_instances(220, seed=1009):
        k = rng.randint(0, max(0, len(edges)))
        plan = plan_random(network, k, rng_seed=rng.randint(0, 10**6))
        non_tree = run_estimation(network, [log], plan, "non-tree").total_estimated
        for variant in ("tree-first", "tree-last"):
            assert run_estimation(network, [log], plan, variant).total_estimated <= non_tree
        instances += 1
    assert instances >= 200
    print(f"PASS A3: tree-variant estimates bounded by non-tree on {instances} instances")


def test_a4_totals_non_increasing_in_budget():
    rng = random.Random(1013)
    combos = 0
    for _ in range(12):
        n = rng.randint(8, 18)
        nodes, edges = random_digraph(rng, n, rng.uniform(0.25, 0.4))
        network = build_graph(edges, nodes=nodes)
        logs = []
        for i in range(3):
            users = rng.sample(nodes, rng.randint(2, n))
            logs.append(CascadeLog.from_events(f"c{i}", [(u, rng.randint(0, 25)) for u in users]))
        grid = sorted({budget_for(f, len(edges)) for f in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)})
        for strategy in STRATEGIES:
            plan = plan_strategy(network, strategy, len(edges), rng_seed=17)
            for variant in VARIANTS:
                previous = None
                for k in grid:
                    total = run_estimation(network, logs, plan.prefix(k), variant).total_estimated
                    if previous is not None:
                        assert total <= previous, (strategy, variant, k)
                    previous = total
                combos += 1
    print(f"PASS A4: totals non-increasing across the grid for {combos} strategy/variant sweeps")


def test_a5_betweenness_matches_path_counting_oracle():
    rng = random.Random(1019)
    graphs = 0
    while graphs < 50:
        n = rng.randint(4, 28) if graphs % 10 else rng.randint(35, 50)
        nodes, edges = random_digraph(rng, n, rng.uniform(0.06, 0.25))
        if not edges:
            continue
        actual = edge_betweenness(build_graph(edges, nodes=nodes))
        expected = path_count_betweenness(nodes, edges)
        assert actual.keys() == expected.keys()
        for edge, score in expected.items():
            assert abs(actual[edge] - score) <= 1e-9, edge
        graphs += 1
    print(f"PASS A5: betweenness within 1e-9 of the oracle on {graphs} digraphs")


def test_a6_eigenpair_oracle_and_single_deletion_quality():
    rng = random.Random(1021)
    graphs = 0
    top3_hits = 0
    while graphs < 50:
        n = rng.randint(8, 24)
        nodes, edges = random_digraph(rng, n, rng.uniform(0.25, 0.4))
        if len(edges) < 2:
            continue
        network = build_graph(edges, nodes=nodes)
        pair = leading_eigenpair(network)
        assert abs(pair.eigenvalue - dense_spectral_radius(nodes, edges)) <= 1e-6

        chosen = plan_netmelt(network, 1).ranked_edges[0]
        after = {
            edge: dense_spectral_radius(nodes, [e for e in edges if e != edge]) for edge in edges
        }
        third_best = sorted(after.values())[min(2, len(after) - 1)]
        if after[chosen] <= third_best + 1e-9:
            top3_hits += 1
        graphs += 1
    assert top3_hits >= 0.9 * graphs, f"only {top3_hits}/{graphs} in the oracle top 3"
    print(
        f"PASS A6: eigenvalue within 1e-6 on {graphs} digraphs; "
        f"single-deletion pick in oracle top-3 on {top3_hits}/{graphs}"
    )


def test_a7_estimates_never_below_seed_count():
    rows_checked = 0
    for _, rng, network, log, edges in _random_instances(120, seed=1031):
        for k in (0, len(edges) // 2, len(edges)):
            plan = plan_random(network, k, rng_seed=rng.randint(0, 10**6))
            for variant in VARIANTS:
                report = run_estimation(network, [log], plan, variant)
                for row in report.per_cascade:
                    assert row.estimated_size >= row.seed_count
                    rows_checked += 1
    print(f"PASS A7: estimated size >= seed count on {rows_checked} cascade rows")


def test_a9_sweep_runs_are_byte_identical(tmp_path):
    edges_path, cascades_path = write_eight_node_dataset(tmp_path)
    extra = "".join(
        f"c2\t{u}\t{ts}\n" for u, ts in [("1", 3), ("2", 1), ("5", 9), ("7", 2)]
    )
    cascades_path.write_text(cascades_path.read_text() + extra, encoding="utf-8")
    snapshots = []
    for name in ("run-a", "run-b"):
        config = ExperimentConfig(
            edges_path=edges_path,
            cascades_path=cascades_path,
            out_dir=tmp_path / name,
            min_cascade_size=0,
            strategies=STRATEGIES,
            variants=VARIANTS,
            budget_fractions=(0.0, 0.25, 0.5),
            rng_seed=33,
        )
        run_sweep(config)
        snapshots.append(
            {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
        )
    assert snapshots[0].keys() == snapshots[1].keys()
    assert snapshots[0] == snapshots[1]
    print(f"PASS A9: {len(snapshots[0])} output files byte-identical across reruns")


# ---------------------------------------------------------------------------
# Public-dataset trend check.  Runs only when the dataset is available, e.g.
#   HIGGS_DATA_DIR=data/higgs pytest tests/test_acceptance.py -k a8
# expecting the follower edge list and the activity log in that directory.

HIGGS_DIR = Path(os.environ.get("HIGGS_DATA_DIR", "data/higgs"))
_EDGE_NAMES = ("higgs-social_network.edgelist", "social_network.edgelist")
_ACTIVITY_NAMES = ("higgs-activity_time.txt", "activity_time.txt")


def _find(directory: Path, names) -> Path | None:
    for name in names:
        path = directory / name
        if path.exists():
            return path
    return None


_higgs_edges = _find(HIGGS_DIR, _EDGE_NAMES)
_higgs_activity = _find(HIGGS_DIR, _ACTIVITY_NAMES)


@pytest.mark.skipif(
    _higgs_edges is None or _higgs_activity is None,
    reason=f"public dataset not found under {HIGGS_DIR} (set HIGGS_DATA_DIR)",
)
def test_a8_public_dataset_trends():
    with open(_higgs_edges, "r", encoding="utf-8") as fh:
        edges = load_follow_edges(fh)
    with open(_higgs_activity, "r", encoding="utf-8") as fh:
        logs = load_higgs_activity(fh, interactions=frozenset())
    logs = filter_cascades(logs, 100)

    stats = compute_stats(build_graph(edges), logs)
    assert stats.link_count == 14_855_842
    assert stats.user_count == 456_626

    network = build_graph(edges)
    fractions = tuple(round(0.05 * i, 2) for i in range(1, 11))
    budgets = [budget_for(f, network.edge_count) for f in fractions]
    batch = build_batch(network, logs, NON_TREE)

    from cascadecut.estimator import EstimateReport, estimate_budgets, plan_ranks

    totals = {}
    for strategy in ("netmelt", "random"):
        plan = plan_strategy(network, strategy, max(budgets), rng_seed=0)
        per_budget = []
        for k, rows in zip(budgets, estimate_budgets(batch, plan_ranks(network, plan), budgets)):
            report = EstimateReport.from_rows(strategy, "non-tree", k, rows)
            per_budget.append(report.total_estimated)
        totals[strategy] = (per_budget, report.total_original)

    netmelt_totals, original = totals["netmelt"]
    random_totals, _ = totals["random"]
    assert netmelt_totals[-1] >= 0.4 * original
    for nm, rd in zip(netmelt_totals, random_totals):
        assert nm <= rd
    print(
        "PASS A8: links/users match published counts; half-budget spectral cut keeps "
        f"{netmelt_totals[-1] / original:.0%} of the cascade and never loses to random"
    )
