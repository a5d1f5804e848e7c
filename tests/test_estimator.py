"""Deletion application and size estimation tests."""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

from cascadecut import (
    CascadeLog,
    CascadeResult,
    DeletionPlan,
    EstimateReport,
    InputError,
    InvariantError,
    NON_TREE,
    ParseError,
    VARIANTS,
    apply_deletion,
    build_batch,
    build_variant,
    estimate_budgets,
    estimate_size,
    plan_random,
    plan_ranks,
    read_report_csv,
    run_estimation,
    write_report_csv,
)
from conftest import (
    EIGHT_NODE_CUT_FOLLOW_EDGES,
    EIGHT_NODE_FOLLOW_EDGES,
    EIGHT_NODE_SEEDS,
    random_instance,
    random_logs,
)
from oracles import closure_from, list_estimate_budgets


def manual_plan(follow_edges, strategy="netmelt", k=None):
    n = len(follow_edges)
    return DeletionPlan(
        strategy=strategy,
        k=n if k is None else k,
        ranked_edges=tuple(follow_edges),
        scores=tuple(0.0 for _ in follow_edges),
    )


class TestApplyDeletion:
    def test_eight_node_cut(self, eight_node_network, eight_node_log):
        dg = build_variant(eight_node_network, eight_node_log, NON_TREE)
        after = apply_deletion(dg, manual_plan(EIGHT_NODE_CUT_FOLLOW_EDGES))
        assert after.edges == {
            ("1", "2"), ("2", "3"), ("4", "5"), ("5", "3"), ("6", "7"), ("6", "8"),
        }
        # node 6 lost its only incoming edge but stays a non-seed node
        assert not any(child == "6" for _, child in after.edges)
        assert after.seeds == EIGHT_NODE_SEEDS
        assert after.nodes == dg.nodes

    def test_edge_arrays_follow_the_cut(self):
        rng = random.Random(239)
        for _ in range(20):
            network, log, edges, _ = random_instance(rng)
            ids = network.external_ids
            for variant in VARIANTS:
                dg = build_variant(network, log, variant)
                chosen = rng.sample(edges, rng.randint(0, min(len(edges), 10))) if edges else []
                after = apply_deletion(dg, manual_plan(chosen))
                pairs = list(zip(after.parent_ids.tolist(), after.child_ids.tolist()))
                assert {(ids[p], ids[c]) for p, c in pairs} == after.edges
                assert len(pairs) == len(after.edges)
                assert after.follow_edge_pos.tolist() == network.edge_positions(
                    [(ids[c], ids[p]) for p, c in pairs]
                ).tolist()

    def test_empty_plan_is_identity(self, eight_node_network, eight_node_log):
        dg = build_variant(eight_node_network, eight_node_log, NON_TREE)
        assert apply_deletion(dg, manual_plan([])) == dg

    def test_matches_set_difference_oracle(self):
        rng = random.Random(139)
        for _ in range(25):
            network, log, edges, _ = random_instance(rng)
            dg = build_variant(network, log, NON_TREE)
            if not edges:
                continue
            chosen = rng.sample(edges, rng.randint(0, min(len(edges), 10)))
            after = apply_deletion(dg, manual_plan(chosen))
            assert after.edges == dg.edges - {(b, a) for a, b in chosen}


class TestEstimateSize:
    def test_eight_node_post_deletion_size(self, eight_node_network, eight_node_log):
        dg = build_variant(eight_node_network, eight_node_log, NON_TREE)
        after = apply_deletion(dg, manual_plan(EIGHT_NODE_CUT_FOLLOW_EDGES))
        assert estimate_size(after, dg.seeds) == 5

    def test_no_deletion_reaches_everyone(self):
        rng = random.Random(149)
        for _ in range(20):
            network, log, _, _ = random_instance(rng)
            for variant in VARIANTS:
                dg = build_variant(network, log, variant)
                assert estimate_size(dg, dg.seeds) == len(dg.nodes)

    def test_matches_transitive_closure_count(self):
        rng = random.Random(151)
        for _ in range(25):
            network, log, edges, _ = random_instance(rng)
            dg = build_variant(network, log, NON_TREE)
            chosen = rng.sample(edges, rng.randint(0, min(len(edges), 8))) if edges else []
            after = apply_deletion(dg, manual_plan(chosen))
            reached = closure_from(after.edges, dg.seeds)
            assert estimate_size(after, dg.seeds) == len(reached | dg.seeds)

    def test_unknown_seed_rejected(self, eight_node_network, eight_node_log):
        dg = build_variant(eight_node_network, eight_node_log, NON_TREE)
        with pytest.raises(InputError):
            estimate_size(dg, {"nope"})


def prefix_oracle(graphs, plan, k):
    """Sizes at budget k the direct way: cut the plan prefix, then search."""
    sub = plan.prefix(k)
    return [estimate_size(apply_deletion(dg, sub), dg.seeds) for dg in graphs]


def all_budget_sizes(network, logs, variant, plan, budgets):
    per_budget = estimate_budgets(build_batch(network, logs, variant), plan_ranks(network, plan), budgets)
    return [[row.estimated_size for row in rows] for rows in per_budget]


class TestEstimateBudgets:
    def test_matches_prefix_oracle_on_random_instances(self):
        rng = random.Random(223)
        for _ in range(25):
            network, log, edges, _ = random_instance(rng)
            shuffled = rng.sample(edges, len(edges))
            plan = manual_plan(shuffled)
            budgets = list(range(len(shuffled) + 3))  # k = 0 .. beyond the plan's end
            for variant in VARIANTS:
                graphs = [build_variant(network, log, variant)]
                got = all_budget_sizes(network, [log], variant, plan, budgets)
                assert got == [prefix_oracle(graphs, plan, k) for k in budgets]

    def test_duplicate_and_unknown_plan_edges(self):
        rng = random.Random(227)
        for _ in range(20):
            network, log, edges, _ = random_instance(rng)
            if not edges:
                continue
            ranked = rng.sample(edges, rng.randint(1, len(edges)))
            # repeats of earlier edges, a reversed edge the network may lack,
            # and edges naming users the network has never seen
            ranked += rng.choices(ranked, k=3)
            ranked.insert(rng.randint(0, len(ranked)), ("zz-unknown", edges[0][1]))
            ranked.insert(rng.randint(0, len(ranked)), (edges[0][1], edges[0][0]))
            ranked.append(("zz-a", "zz-b"))
            plan = manual_plan(ranked)
            budgets = list(range(len(ranked) + 2))
            for variant in VARIANTS:
                graphs = [build_variant(network, log, variant)]
                got = all_budget_sizes(network, [log], variant, plan, budgets)
                assert got == [prefix_oracle(graphs, plan, k) for k in budgets]

    def test_cascades_with_absent_users(self):
        rng = random.Random(229)
        for _ in range(15):
            network, log, edges, _ = random_instance(rng, outside_user_chance=1.0)
            assert any(not network.has_node(u) for u in log.users())
            plan = manual_plan(rng.sample(edges, len(edges)))
            budgets = [0, len(edges) // 2, len(edges), len(edges) + 5]
            for variant in VARIANTS:
                graphs = [build_variant(network, log, variant)]
                got = all_budget_sizes(network, [log], variant, plan, budgets)
                assert got == [prefix_oracle(graphs, plan, k) for k in budgets]

    def test_many_cascades_in_one_pass(self):
        rng = random.Random(233)
        network, _, edges, _ = random_instance(rng, max_nodes=25)
        users = list(network.external_ids)
        logs = []
        for i in range(15):
            events = [(u, rng.randint(0, 30)) for u in rng.sample(users, rng.randint(1, len(users)))]
            if i % 3 == 0:
                events.append((f"x{i}", rng.randint(0, 30)))  # absent from the network
            logs.append(CascadeLog.from_events(f"c{i}", events))
        plan = manual_plan(rng.sample(edges, len(edges)))
        budgets = list(range(0, len(edges) + 2, max(1, len(edges) // 7)))
        for variant in VARIANTS:
            graphs = [build_variant(network, log, variant) for log in logs]
            batch = build_batch(network, logs, variant)
            per_budget = estimate_budgets(batch, plan_ranks(network, plan), budgets)
            for k, rows in zip(budgets, per_budget):
                assert [r.estimated_size for r in rows] == prefix_oracle(graphs, plan, k)
                assert [(r.cascade_id, r.original_size, r.seed_count) for r in rows] == [
                    (dg.cascade_id, len(dg.nodes), len(dg.seeds)) for dg in graphs
                ]

    def test_matches_list_oracle_on_random_batches(self):
        rng = random.Random(409)
        for _ in range(25):
            network, _, edges, _ = random_instance(rng, max_nodes=20, outside_user_chance=0.0)
            logs = random_logs(rng, network, rng.randint(0, 10))
            ranked = rng.sample(edges, len(edges)) + [("zz-a", "zz-b")]
            ranks = plan_ranks(network, manual_plan(ranked))
            budgets = list(range(len(ranked) + 3))  # k = 0 .. beyond the plan's end
            for variant in VARIANTS:
                graphs = [build_variant(network, log, variant) for log in logs]
                got = estimate_budgets(build_batch(network, logs, variant), ranks, budgets)
                assert got == list_estimate_budgets(graphs, ranks, budgets)

    def test_eight_node_every_budget(self, eight_node_network, eight_node_log):
        # The cut edges first, so k = 2 is the hand-checked cut.
        rest = [e for e in EIGHT_NODE_FOLLOW_EDGES if e not in EIGHT_NODE_CUT_FOLLOW_EDGES]
        plan = manual_plan(EIGHT_NODE_CUT_FOLLOW_EDGES + rest)
        budgets = list(range(len(EIGHT_NODE_FOLLOW_EDGES) + 2))
        for variant in VARIANTS:
            graphs = [build_variant(eight_node_network, eight_node_log, variant)]
            got = all_budget_sizes(eight_node_network, [eight_node_log], variant, plan, budgets)
            assert got == [prefix_oracle(graphs, plan, k) for k in budgets]
            if variant == "non-tree":
                assert got[2] == [5]
            assert got[0] == [8] and got[-1] == [len(EIGHT_NODE_SEEDS)]

    def test_no_graphs(self, eight_node_network):
        ranks = plan_ranks(eight_node_network, manual_plan(EIGHT_NODE_CUT_FOLLOW_EDGES))
        for variant in VARIANTS:
            assert estimate_budgets(build_batch(eight_node_network, [], variant), ranks, [0, 3]) == [[], []]

    def test_negative_budget_rejected(self, eight_node_network, eight_node_log):
        batch = build_batch(eight_node_network, [eight_node_log], NON_TREE)
        with pytest.raises(InputError):
            estimate_budgets(batch, plan_ranks(eight_node_network, manual_plan([])), [-1])

    def test_cut_graph_rejected(self, eight_node_network, eight_node_log):
        # After the cut, node 6 has no parent yet is no seed: the pass only
        # takes batches as built.
        batch = build_batch(eight_node_network, [eight_node_log], NON_TREE)
        cut = eight_node_network.edge_positions(EIGHT_NODE_CUT_FOLLOW_EDGES)
        keep = ~np.isin(batch.follow_edge_pos, cut)
        after = replace(
            batch,
            cascade=batch.cascade[keep],
            parent=batch.parent[keep],
            child=batch.child[keep],
            follow_edge_pos=batch.follow_edge_pos[keep],
        )
        with pytest.raises(InputError):
            estimate_budgets(after, plan_ranks(eight_node_network, manual_plan([])), [0])


class TestPlanRanks:
    def test_first_occurrence_wins(self, eight_node_network):
        plan = manual_plan([("5", "1"), ("6", "3"), ("5", "1")])
        ranks = plan_ranks(eight_node_network, plan)
        edges = list(eight_node_network.edges())
        by_edge = dict(zip(edges, ranks.tolist()))
        assert by_edge[("5", "1")] == 0
        assert by_edge[("6", "3")] == 1
        assert sum(r < 3 for r in ranks.tolist()) == 2

    def test_unknown_edges_warn_once_with_count(self, eight_node_network, caplog):
        plan = manual_plan([("5", "1"), ("1", "5"), ("nobody", "1"), ("6", "3")])
        with caplog.at_level("WARNING", logger="cascadecut.estimator"):
            ranks = plan_ranks(eight_node_network, plan)
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "2 of 4 edge(s) not in the follow network" in warnings[0].getMessage()
        # unknown entries still take their place in the ranking
        by_edge = dict(zip(eight_node_network.edges(), ranks.tolist()))
        assert by_edge[("6", "3")] == 3

    def test_known_plan_is_silent(self, eight_node_network, caplog):
        with caplog.at_level("WARNING", logger="cascadecut.estimator"):
            plan_ranks(eight_node_network, manual_plan(EIGHT_NODE_CUT_FOLLOW_EDGES))
        assert not [r for r in caplog.records if r.levelname == "WARNING"]


class TestRunEstimation:
    def test_eight_node_totals(self, eight_node_network, eight_node_log):
        plan = manual_plan(EIGHT_NODE_CUT_FOLLOW_EDGES)
        report = run_estimation(eight_node_network, [eight_node_log], plan, "non-tree")
        assert report.total_original == 8
        assert report.total_estimated == 5
        assert report.per_cascade == (CascadeResult("t", 8, 5, 2),)

    def test_zero_budget_identity(self, eight_node_network, eight_node_log):
        report = run_estimation(eight_node_network, [eight_node_log], manual_plan([]), "non-tree")
        assert report.total_estimated == report.total_original == 8

    def test_totals_equal_per_cascade_sums(self):
        rng = random.Random(157)
        network, _, edges, _ = random_instance(rng, max_nodes=25)
        logs = [
            CascadeLog.from_events(
                f"c{i}",
                [(u, rng.randint(0, 30)) for u in rng.sample(list(network.external_ids), rng.randint(1, network.node_count))],
            )
            for i in range(20)
        ]
        plan = manual_plan(rng.sample(edges, min(len(edges), 6)))
        report = run_estimation(network, logs, plan, "non-tree")
        assert report.total_original == sum(r.original_size for r in report.per_cascade)
        assert report.total_estimated == sum(r.estimated_size for r in report.per_cascade)
        assert [r.cascade_id for r in report.per_cascade] == sorted(r.cascade_id for r in report.per_cascade)

    def test_monotone_in_budget(self):
        rng = random.Random(163)
        for _ in range(10):
            network, log, edges, _ = random_instance(rng)
            if not edges:
                continue
            full = plan_random(network, len(edges), rng_seed=7)
            last_total = None
            for k in range(0, len(edges) + 1, max(1, len(edges) // 5)):
                report = run_estimation(network, [log], full.prefix(k), "non-tree")
                if last_total is not None:
                    assert report.total_estimated <= last_total
                last_total = report.total_estimated

    def test_tree_estimates_bounded_by_non_tree(self):
        rng = random.Random(167)
        for _ in range(20):
            network, log, edges, _ = random_instance(rng)
            plan = manual_plan(rng.sample(edges, min(len(edges), 8)) if edges else [])
            by_variant = {
                variant: run_estimation(network, [log], plan, variant).total_estimated
                for variant in VARIANTS
            }
            assert by_variant["tree-first"] <= by_variant["non-tree"]
            assert by_variant["tree-last"] <= by_variant["non-tree"]

    def test_estimate_never_below_seed_count(self):
        rng = random.Random(173)
        for _ in range(20):
            network, log, edges, _ = random_instance(rng)
            plan = manual_plan(edges)  # delete every follow edge
            for variant in VARIANTS:
                report = run_estimation(network, [log], plan, variant)
                for row in report.per_cascade:
                    assert row.estimated_size >= row.seed_count
                    # with every edge gone, only the seeds remain reachable
                    assert row.estimated_size == row.seed_count

    def test_partitioning_cascades_changes_nothing(self):
        rng = random.Random(179)
        network, _, edges, _ = random_instance(rng, max_nodes=20)
        logs = [
            CascadeLog.from_events(
                f"c{i}", [(u, rng.randint(0, 20)) for u in rng.sample(list(network.external_ids), 5)]
            )
            for i in range(8)
        ]
        plan = manual_plan(rng.sample(edges, min(len(edges), 5)) if edges else [])
        combined = run_estimation(network, logs, plan, "tree-last")
        halves = (
            run_estimation(network, logs[:4], plan, "tree-last").per_cascade
            + run_estimation(network, logs[4:], plan, "tree-last").per_cascade
        )
        assert set(halves) == set(combined.per_cascade)


class TestReportInvariants:
    def test_bad_row_rejected(self):
        with pytest.raises(InvariantError):
            EstimateReport(
                strategy="random", variant="non-tree", k=1,
                per_cascade=(CascadeResult("c", 3, 5, 1),),
                total_original=3, total_estimated=5,
            )

    def test_bad_totals_rejected(self):
        with pytest.raises(InvariantError):
            EstimateReport(
                strategy="random", variant="non-tree", k=1,
                per_cascade=(CascadeResult("c", 3, 2, 1),),
                total_original=3, total_estimated=99,
            )

    def test_csv_round_trip(self, tmp_path, eight_node_network, eight_node_log):
        plan = manual_plan(EIGHT_NODE_CUT_FOLLOW_EDGES)
        report = run_estimation(eight_node_network, [eight_node_log], plan, "tree-last")
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        assert read_report_csv(path) == report
        header = path.read_text().splitlines()[0]
        assert header == "strategy,variant,k,cascade_id,original_size,estimated_size,seed_count"

    @pytest.mark.parametrize(
        "row",
        ["random,non-tree,x,c,3,3,1", "random,non-tree,1,c", "random,non-tree,1,c,3,three,1"],
    )
    def test_malformed_row_is_parse_error_naming_the_line(self, tmp_path, row):
        path = tmp_path / "report.csv"
        path.write_text(
            "strategy,variant,k,cascade_id,original_size,estimated_size,seed_count\n"
            f"random,non-tree,1,a,2,2,1\n{row}\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match=r"report\.csv: line 3"):
            read_report_csv(path)
