"""Deletion application and size estimation tests."""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

from cascadecut import (
    DeletionPlan,
    EDGE_DEGREE,
    EstimateReport,
    InputError,
    InvariantError,
    NON_TREE,
    ParseError,
    RANDOM,
    VARIANTS,
    estimate_budgets,
    plan_ranks,
    plan_strategy,
    read_report_csv,
    write_report_csv,
)
from conftest import (
    EIGHT_NODE_CUT_FOLLOW_EDGES,
    EIGHT_NODE_FOLLOW_EDGES,
    EIGHT_NODE_SEEDS,
    network_of,
    one_variant,
    random_instance,
    random_logs,
)
from oracles import (
    CascadeLog,
    batch_of,
    build_variant,
    closure_from,
    cut_edges,
    dict_edge_positions,
    graph_edges,
    list_estimate_budgets,
    prefix,
    run_estimation,
    size_after,
    table_of,
)


def manual_plan(network, follow_edges, strategy="netmelt", k=None):
    n = len(follow_edges)
    return DeletionPlan(
        strategy=strategy,
        k=n if k is None else k,
        network=network,
        edge_pos=dict_edge_positions(network, follow_edges),
        scores=np.zeros(n),
    )


def surviving_edges(network, log, variant, plan):
    """The batch's spread edges whose follow edge the whole plan leaves, as id pairs."""
    batch = batch_of(network, table_of([log]), variant)
    keep = plan_ranks(network, plan)[batch.follow_edge_pos] >= plan.edge_pos.size
    ids, node = network.external_ids, batch.node
    parent, child = node[batch.parent_slot[keep]].tolist(), node[batch.child_slot[keep]].tolist()
    return {(ids[p], ids[c]) for p, c in zip(parent, child)}


def rows_of(report):
    """A report's (cascade_id, original, estimated, seeds) rows, in its order."""
    columns = (report.original_sizes.tolist(), report.estimated_sizes.tolist(), report.seed_counts.tolist())
    return list(zip(report.cascade_ids, *columns))


class TestApplyDeletion:
    """The cut the estimator applies: a plan's ranks over a batch's follow-edge positions."""

    def test_eight_node_cut(self, eight_node_network, eight_node_log, eight_node_table):
        plan = manual_plan(eight_node_network, EIGHT_NODE_CUT_FOLLOW_EDGES)
        after = surviving_edges(eight_node_network, eight_node_log, NON_TREE, plan)
        assert after == {
            ("1", "2"), ("2", "3"), ("4", "5"), ("5", "3"), ("6", "7"), ("6", "8"),
        }
        assert after == cut_edges(one_variant(eight_node_network, eight_node_log, NON_TREE), plan)
        # node 6 lost its only incoming edge but stays a non-seed node
        assert not any(child == "6" for _, child in after)
        report = run_estimation(eight_node_network, eight_node_table, plan, NON_TREE)
        assert (report.original_sizes.tolist(), report.seed_counts.tolist()) == ([8], [len(EIGHT_NODE_SEEDS)])

    def test_edge_arrays_follow_the_cut(self):
        rng = random.Random(239)
        for _ in range(20):
            network, log, edges, _ = random_instance(rng)
            for variant in VARIANTS:
                dg = one_variant(network, log, variant)
                chosen = rng.sample(edges, rng.randint(0, min(len(edges), 10))) if edges else []
                plan = manual_plan(network, chosen)
                assert surviving_edges(network, log, variant, plan) == cut_edges(dg, plan)

    def test_empty_plan_is_identity(self, eight_node_network, eight_node_log):
        dg = one_variant(eight_node_network, eight_node_log, NON_TREE)
        empty = manual_plan(eight_node_network, [])
        assert surviving_edges(eight_node_network, eight_node_log, NON_TREE, empty) == dg.edges

    def test_matches_set_difference_oracle(self):
        rng = random.Random(139)
        for _ in range(25):
            network, log, edges, _ = random_instance(rng)
            dg = one_variant(network, log, NON_TREE)
            if not edges:
                continue
            chosen = rng.sample(edges, rng.randint(0, min(len(edges), 10)))
            after = surviving_edges(network, log, NON_TREE, manual_plan(network, chosen))
            assert after == dg.edges - {(b, a) for a, b in chosen}


def all_budget_sizes(network, logs, variant, plan, budgets):
    return estimate_budgets(batch_of(network, table_of(logs), variant), plan_ranks(network, plan), budgets).tolist()


class TestEstimateSize:
    def test_eight_node_post_deletion_size(self, eight_node_network, eight_node_log):
        plan = manual_plan(eight_node_network, EIGHT_NODE_CUT_FOLLOW_EDGES)
        assert all_budget_sizes(eight_node_network, [eight_node_log], NON_TREE, plan, [2]) == [[5]]

    def test_no_deletion_reaches_everyone(self):
        rng = random.Random(149)
        for _ in range(20):
            network, log, _, _ = random_instance(rng)
            for variant in VARIANTS:
                assert all_budget_sizes(network, [log], variant, manual_plan(network, []), [0]) == [[log.size]]

    def test_matches_transitive_closure_count(self):
        rng = random.Random(151)
        for _ in range(25):
            network, log, edges, _ = random_instance(rng)
            dg = one_variant(network, log, NON_TREE)
            chosen = rng.sample(edges, rng.randint(0, min(len(edges), 8))) if edges else []
            reached = closure_from(dg.edges - {(b, a) for a, b in chosen}, dg.seeds)
            plan = manual_plan(network, chosen)
            assert all_budget_sizes(network, [log], NON_TREE, plan, [len(chosen)]) == [[len(reached | dg.seeds)]]

    def test_unknown_seed_rejected(self, eight_node_network, eight_node_log):
        # The per-budget oracle refuses seeds outside the graph.
        dg = one_variant(eight_node_network, eight_node_log, NON_TREE)
        with pytest.raises(InputError):
            size_after(dg, manual_plan(eight_node_network, []), {"nope"})


def prefix_oracle(graphs, plan, k):
    """Sizes at budget k the direct way: cut the plan prefix, then search."""
    sub = prefix(plan, k)
    return [size_after(dg, sub) for dg in graphs]


class TestEstimateBudgets:
    def test_matches_prefix_oracle_on_random_instances(self):
        rng = random.Random(223)
        for _ in range(25):
            network, log, edges, _ = random_instance(rng)
            shuffled = rng.sample(edges, len(edges))
            plan = manual_plan(network, shuffled)
            budgets = list(range(len(shuffled) + 3))  # k = 0 .. beyond the plan's end
            for variant in VARIANTS:
                graphs = [one_variant(network, log, variant)]
                got = all_budget_sizes(network, [log], variant, plan, budgets)
                assert got == [prefix_oracle(graphs, plan, k) for k in budgets]

    def test_duplicate_plan_edges(self):
        rng = random.Random(227)
        for _ in range(20):
            network, log, edges, _ = random_instance(rng)
            if not edges:
                continue
            ranked = rng.sample(edges, rng.randint(1, max(1, len(edges) - 4)))
            # repeats of earlier edges, and a reversed edge where the network
            # has it, within the |E| positions a plan holds
            ranked += rng.choices(ranked, k=min(3, len(edges) - len(ranked)))
            if (edges[0][1], edges[0][0]) in edges and len(ranked) < len(edges):
                ranked.insert(rng.randint(0, len(ranked)), (edges[0][1], edges[0][0]))
            plan = manual_plan(network, ranked)
            budgets = list(range(len(ranked) + 2))
            for variant in VARIANTS:
                graphs = [one_variant(network, log, variant)]
                got = all_budget_sizes(network, [log], variant, plan, budgets)
                assert got == [prefix_oracle(graphs, plan, k) for k in budgets]

    def test_cascades_with_absent_users(self):
        rng = random.Random(229)
        for _ in range(15):
            network, log, edges, _ = random_instance(rng, outside_user_chance=1.0)
            assert (network.indices_of(log.users()) < 0).any()
            plan = manual_plan(network, rng.sample(edges, len(edges)))
            budgets = [0, len(edges) // 2, len(edges), len(edges) + 5]
            for variant in VARIANTS:
                graphs = [one_variant(network, log, variant)]
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
        plan = manual_plan(network, rng.sample(edges, len(edges)))
        budgets = list(range(0, len(edges) + 2, max(1, len(edges) // 7)))
        for variant in VARIANTS:
            table = table_of(logs)
            graphs = build_variant(network, table, variant)
            batch = batch_of(network, table, variant)
            per_budget = estimate_budgets(batch, plan_ranks(network, plan), budgets)
            for k, sizes in zip(budgets, per_budget):
                assert sizes.tolist() == prefix_oracle(graphs, plan, k)
            assert list(zip(batch.cascade_ids, batch.sizes.tolist(), batch.seed_counts.tolist())) == [
                (dg.cascade_id, len(dg.nodes), len(dg.seeds)) for dg in graphs
            ]

    def test_matches_list_oracle_on_random_batches(self):
        rng = random.Random(409)
        for _ in range(25):
            network, _, edges, _ = random_instance(rng, max_nodes=20, outside_user_chance=0.0)
            logs = random_logs(rng, network, rng.randint(0, 10))
            ranked = rng.sample(edges, len(edges))
            ranks = plan_ranks(network, manual_plan(network, ranked))
            budgets = list(range(len(ranked) + 3))  # k = 0 .. beyond the plan's end
            for variant in VARIANTS:
                batch = batch_of(network, table_of(logs), variant)
                got = estimate_budgets(batch, ranks, budgets)
                want = list_estimate_budgets(network, logs, variant, ranks, budgets)
                assert got.dtype == want.dtype == np.int64 and got.shape == want.shape == (len(budgets), len(logs))
                assert got.tolist() == want.tolist()
                graphs = build_variant(network, table_of(logs), variant)
                assert batch.sizes.tolist() == [len(dg.nodes) for dg in graphs]
                assert batch.seed_counts.tolist() == [len(dg.seeds) for dg in graphs]

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_list_oracle_with_absent_users_and_no_cascades(self, seed):
        # The oracle numbers the (cascade, child) pairs itself, apart from the
        # batch's participant slots.
        rng = random.Random(1009 + seed)
        network, _, edges, _ = random_instance(rng, max_nodes=25, outside_user_chance=0.0)
        users = network.external_ids
        ranked = rng.choices(edges, k=len(edges))  # repeats delete nothing more
        ranks = plan_ranks(network, manual_plan(network, ranked))
        budgets = list(range(len(ranked) + 2))
        mixed = CascadeLog.from_events("mixed", [(users[0], 3), ("ghost", 1), (users[-1], 5), ("spook", 4)])
        for logs in ([], random_logs(rng, network, rng.randint(1, 12)) + [mixed]):
            table = table_of(logs)
            assert not logs or (network.indices_of(table.user_ids) < 0).any()
            for variant in VARIANTS:
                got = estimate_budgets(batch_of(network, table, variant), ranks, budgets)
                want = list_estimate_budgets(network, logs, variant, ranks, budgets)
                assert got.shape == want.shape == (len(budgets), len(logs))
                assert got.tolist() == want.tolist()

    def test_one_read_only_int64_row_per_budget(self, eight_node_network, eight_node_table):
        batch = batch_of(eight_node_network, eight_node_table, NON_TREE)
        ranks = plan_ranks(eight_node_network, manual_plan(eight_node_network, EIGHT_NODE_CUT_FOLLOW_EDGES))
        got = estimate_budgets(batch, ranks, [2, 0, 2])
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.tolist() == [[5], [8], [5]]

    def test_eight_node_every_budget(self, eight_node_network, eight_node_log):
        # The cut edges first, so k = 2 is the hand-checked cut.
        rest = [e for e in EIGHT_NODE_FOLLOW_EDGES if e not in EIGHT_NODE_CUT_FOLLOW_EDGES]
        plan = manual_plan(eight_node_network, EIGHT_NODE_CUT_FOLLOW_EDGES + rest)
        budgets = list(range(len(EIGHT_NODE_FOLLOW_EDGES) + 2))
        for variant in VARIANTS:
            graphs = [one_variant(eight_node_network, eight_node_log, variant)]
            got = all_budget_sizes(eight_node_network, [eight_node_log], variant, plan, budgets)
            assert got == [prefix_oracle(graphs, plan, k) for k in budgets]
            if variant == "non-tree":
                assert got[2] == [5]
            assert got[0] == [8] and got[-1] == [len(EIGHT_NODE_SEEDS)]

    def test_no_graphs(self, eight_node_network):
        ranks = plan_ranks(eight_node_network, manual_plan(eight_node_network, EIGHT_NODE_CUT_FOLLOW_EDGES))
        for variant in VARIANTS:
            got = estimate_budgets(batch_of(eight_node_network, table_of([]), variant), ranks, [0, 3])
            assert got.shape == (2, 0) and got.tolist() == [[], []]

    def test_negative_budget_rejected(self, eight_node_network, eight_node_table):
        batch = batch_of(eight_node_network, eight_node_table, NON_TREE)
        with pytest.raises(InputError):
            estimate_budgets(batch, plan_ranks(eight_node_network, manual_plan(eight_node_network, [])), [-1])

    def test_cut_graph_rejected(self, eight_node_network, eight_node_table):
        # After the cut, node 6 has no parent yet is no seed: the pass only
        # takes batches as built.
        batch = batch_of(eight_node_network, eight_node_table, NON_TREE)
        cut = dict_edge_positions(eight_node_network, EIGHT_NODE_CUT_FOLLOW_EDGES)
        keep = ~np.isin(batch.follow_edge_pos, cut)
        after = replace(
            batch,
            child_slot=batch.child_slot[keep],
            parent_slot=batch.parent_slot[keep],
            follow_edge_pos=batch.follow_edge_pos[keep],
        )
        with pytest.raises(InputError):
            estimate_budgets(after, plan_ranks(eight_node_network, manual_plan(eight_node_network, [])), [0])


class TestPlanRanks:
    def test_first_occurrence_wins(self, eight_node_network):
        plan = manual_plan(eight_node_network, [("5", "1"), ("6", "3"), ("5", "1")])
        ranks = plan_ranks(eight_node_network, plan)
        by_edge = dict(zip(graph_edges(eight_node_network), ranks.tolist()))
        assert by_edge[("5", "1")] == 0
        assert by_edge[("6", "3")] == 1
        assert sum(r < 3 for r in ranks.tolist()) == 2

    def test_plan_for_another_network_is_rejected(self):
        # Both networks have two edges, so the plan's positions fit either.
        plan = plan_strategy(network_of([("x", "y"), ("y", "z")]), EDGE_DEGREE, 2)
        other = network_of([("1", "2"), ("2", "3")])
        with pytest.raises(InputError, match="another follow network"):
            plan_ranks(other, plan)

    def test_plan_for_an_equal_network_is_accepted(self):
        edges = [("x", "y"), ("y", "z")]
        plan = plan_strategy(network_of(edges), EDGE_DEGREE, 2)
        equal = network_of(edges[::-1])
        assert equal is not plan.network
        assert plan_ranks(equal, plan).tolist() == plan_ranks(plan.network, plan).tolist()


class TestRunEstimation:
    def test_eight_node_totals(self, eight_node_network, eight_node_table):
        plan = manual_plan(eight_node_network, EIGHT_NODE_CUT_FOLLOW_EDGES)
        report = run_estimation(eight_node_network, eight_node_table, plan, "non-tree")
        assert report.total_original == 8
        assert report.total_estimated == 5
        assert rows_of(report) == [("t", 8, 5, 2)]

    def test_zero_budget_identity(self, eight_node_network, eight_node_table):
        report = run_estimation(eight_node_network, eight_node_table, manual_plan(eight_node_network, []), "non-tree")
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
        plan = manual_plan(network, rng.sample(edges, min(len(edges), 6)))
        table = table_of(logs)
        report = run_estimation(network, table, plan, "non-tree")
        assert report.total_original == sum(report.original_sizes.tolist())
        assert report.total_estimated == sum(report.estimated_sizes.tolist())
        assert report.cascade_ids == table.cascade_ids

    def test_monotone_in_budget(self):
        rng = random.Random(163)
        for _ in range(10):
            network, log, edges, _ = random_instance(rng)
            if not edges:
                continue
            full = plan_strategy(network, RANDOM, len(edges), rng_seed=7)
            last_total = None
            for k in range(0, len(edges) + 1, max(1, len(edges) // 5)):
                report = run_estimation(network, table_of([log]), prefix(full, k), "non-tree")
                if last_total is not None:
                    assert report.total_estimated <= last_total
                last_total = report.total_estimated

    def test_tree_estimates_bounded_by_non_tree(self):
        rng = random.Random(167)
        for _ in range(20):
            network, log, edges, _ = random_instance(rng)
            plan = manual_plan(network, rng.sample(edges, min(len(edges), 8)) if edges else [])
            by_variant = {
                variant: run_estimation(network, table_of([log]), plan, variant).total_estimated
                for variant in VARIANTS
            }
            assert by_variant["tree-first"] <= by_variant["non-tree"]
            assert by_variant["tree-last"] <= by_variant["non-tree"]

    def test_estimate_never_below_seed_count(self):
        rng = random.Random(173)
        for _ in range(20):
            network, log, edges, _ = random_instance(rng)
            plan = manual_plan(network, edges)  # delete every follow edge
            for variant in VARIANTS:
                report = run_estimation(network, table_of([log]), plan, variant)
                for _, _, estimated, seeds in rows_of(report):
                    assert estimated >= seeds
                    # with every edge gone, only the seeds remain reachable
                    assert estimated == seeds

    def test_partitioning_cascades_changes_nothing(self):
        rng = random.Random(179)
        network, _, edges, _ = random_instance(rng, max_nodes=20)
        logs = [
            CascadeLog.from_events(
                f"c{i}", [(u, rng.randint(0, 20)) for u in rng.sample(list(network.external_ids), 5)]
            )
            for i in range(8)
        ]
        plan = manual_plan(network, rng.sample(edges, min(len(edges), 5)) if edges else [])
        combined = run_estimation(network, table_of(logs), plan, "tree-last")
        halves = (
            rows_of(run_estimation(network, table_of(logs[:4]), plan, "tree-last"))
            + rows_of(run_estimation(network, table_of(logs[4:]), plan, "tree-last"))
        )
        assert sorted(halves) == rows_of(combined)


class TestReportInvariants:
    def test_bad_row_rejected(self):
        with pytest.raises(InvariantError):
            EstimateReport("random", "non-tree", 1, ("c",), [3], [5], [1])

    def test_first_bad_cascade_in_given_order_is_named(self):
        # b's estimate is below its seed count and c's above its size; c comes first.
        with pytest.raises(InvariantError, match="cascade c: expected seed_count <= estimated <= original, got 1/4/3$"):
            EstimateReport("random", "non-tree", 1, ("c", "a", "b"), [3, 2, 3], [4, 2, 1], [1, 1, 2])

    def test_columns_of_another_length_rejected(self):
        with pytest.raises(InvariantError, match=r"expected 3 columns of 2 sizes, got shape \(3, 3\)"):
            EstimateReport("random", "non-tree", 1, ("a", "b"), [3, 2, 3], [2, 2, 1], [1, 1, 1])

    def test_ragged_columns_rejected(self):
        with pytest.raises(InvariantError, match=r"expected 3 columns of 2 sizes, got column shapes"):
            EstimateReport("a", "b", 1, ("x", "y"), [1, 2], [1], [0, 0])

    def test_columns_are_read_only_copies_in_given_order(self):
        original = np.array([4, 2, 3])
        report = EstimateReport("random", "non-tree", 1, ["b", "a", "a\0"], original, [3, 2, 3], [1, 2, 1])
        assert report.cascade_ids == ("b", "a", "a\0")
        assert rows_of(report) == [("b", 4, 3, 1), ("a", 2, 2, 2), ("a\0", 3, 3, 1)]
        assert (report.total_original, report.total_estimated) == (9, 8)
        for column in (report.original_sizes, report.estimated_sizes, report.seed_counts):
            assert column.dtype == np.int64 and not column.flags.writeable
        assert original.flags.writeable and original.tolist() == [4, 2, 3]

    def test_reports_compare_by_identity(self):
        report = EstimateReport("random", "non-tree", 1, ("a",), [2], [2], [1])
        assert report == report
        assert report != EstimateReport("random", "non-tree", 1, ("a",), [2], [2], [1])

    def test_csv_round_trip(self, tmp_path, eight_node_network, eight_node_table):
        plan = manual_plan(eight_node_network, EIGHT_NODE_CUT_FOLLOW_EDGES)
        report = run_estimation(eight_node_network, eight_node_table, plan, "tree-last")
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        back = read_report_csv(path)
        assert (back.strategy, back.variant, back.k) == (report.strategy, report.variant, report.k)
        assert rows_of(back) == rows_of(report)
        header = path.read_text().splitlines()[0]
        assert header == "strategy,variant,k,cascade_id,original_size,estimated_size,seed_count"

    @pytest.mark.parametrize(
        "row",
        [
            "random,non-tree,x,c,3,3,1",
            "random,non-tree,1,c",
            "random,non-tree,1,c,3,three,1",
            # an estimate above its original size, and negative sizes in order
            "random,non-tree,1,c,5,9,1",
            "random,non-tree,1,c,-4,-5,-6",
        ],
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

    def test_size_beyond_int64_is_parse_error_naming_the_file(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text(
            "strategy,variant,k,cascade_id,original_size,estimated_size,seed_count\n"
            f"random,non-tree,1,a,{2**63},2,1\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match=r"report\.csv: a size does not fit in int64"):
            read_report_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("edge-degree,non-tree,1,c,3,3,1", r"\('edge-degree', 'non-tree', 1\) differ"),
            ("random,tree-last,1,c,3,3,1", r"\('random', 'tree-last', 1\) differ"),
            ("random,non-tree,2,c,3,3,1", r"\('random', 'non-tree', 2\) differ"),
            ("random,non-tree,1,a,2,2,1", "cascade 'a' repeated"),
        ],
    )
    def test_rows_of_another_report_are_parse_errors_naming_the_line(self, tmp_path, row, message):
        path = tmp_path / "report.csv"
        path.write_text(
            "strategy,variant,k,cascade_id,original_size,estimated_size,seed_count\n"
            f"random,non-tree,1,a,2,2,1\n{row}\nrandom,non-tree,1,d,2,2,1\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match=r"report\.csv: line 3: .*" + message):
            read_report_csv(path)
