"""Deletion strategy tests."""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

from cascadecut import (
    InputError,
    ParseError,
    STRATEGIES,
    build_graph,
    load_plan,
    plan_betweenness,
    plan_edge_degree,
    plan_netmelt,
    plan_random,
    plan_strategy,
    save_plan,
)
from oracles import dense_spectral_radius, random_digraph


class TestPlanNetmelt:
    def test_pendant_edge_scores_zero(self):
        g = build_graph([("a", "b"), ("b", "a"), ("b", "c")])
        plan = plan_netmelt(g, 3)
        scores = dict(zip(plan.ranked_edges, plan.scores))
        assert scores[("b", "c")] == pytest.approx(0.0, abs=1e-9)
        assert plan.ranked_edges[0] in {("a", "b"), ("b", "a")}

    def test_zero_budget(self):
        g = build_graph([("a", "b"), ("b", "a")])
        plan = plan_netmelt(g, 0)
        assert plan.ranked_edges == ()
        assert plan.k == 0

    def test_edgeless_network_rejected(self):
        with pytest.raises(InputError):
            plan_netmelt(build_graph([], nodes=["a"]), 1)

    def test_single_deletion_close_to_exhaustive_optimum(self):
        rng = random.Random(101)
        hits = 0
        trials = 12
        for _ in range(trials):
            nodes, edges = random_digraph(rng, rng.randint(8, 16), rng.uniform(0.25, 0.4))
            g = build_graph(edges, nodes=nodes)
            plan = plan_netmelt(g, 1)
            chosen = plan.ranked_edges[0]
            after = {
                edge: dense_spectral_radius(nodes, [e for e in edges if e != edge])
                for edge in edges
            }
            third_best = sorted(after.values())[min(2, len(after) - 1)]
            if after[chosen] <= third_best + 1e-9:
                hits += 1
        assert hits >= 0.9 * trials

    def test_score_ordering_invariant_under_relabeling(self):
        rng = random.Random(103)
        nodes, edges = random_digraph(rng, 12, 0.3)
        fresh = [f"w{i:02d}" for i in range(len(nodes))]
        rng.shuffle(fresh)
        rename = dict(zip(nodes, fresh))
        original = plan_netmelt(build_graph(edges, nodes=nodes), len(edges))
        relabeled = plan_netmelt(
            build_graph([(rename[a], rename[b]) for a, b in edges], nodes=fresh), len(edges)
        )
        mapped = {
            (rename[a], rename[b]): s for (a, b), s in zip(original.ranked_edges, original.scores)
        }
        for edge, score in zip(relabeled.ranked_edges, relabeled.scores):
            assert score == pytest.approx(mapped[edge], abs=1e-8)


class TestPlanBetweenness:
    def test_path_middle_edge_first(self):
        g = build_graph([("a", "b"), ("b", "c"), ("c", "d")])
        plan = plan_betweenness(g, 1)
        assert plan.ranked_edges == (("b", "c"),)
        assert plan.scores == (pytest.approx(4.0),)

    def test_budget_beyond_edge_count_ranks_everything(self):
        g = build_graph([("a", "b"), ("b", "c"), ("c", "d")])
        plan = plan_betweenness(g, 99)
        assert len(plan.ranked_edges) == 3
        assert plan.k == 99
        assert set(plan.ranked_edges) == set(g.edges())

    def test_ranking_matches_score_oracle(self):
        from oracles import path_count_betweenness

        rng = random.Random(107)
        for _ in range(8):
            nodes, edges = random_digraph(rng, rng.randint(5, 20), 0.2)
            if not edges:
                continue
            g = build_graph(edges, nodes=nodes)
            plan = plan_betweenness(g, len(edges))
            expected = path_count_betweenness(nodes, edges)
            for edge, score in zip(plan.ranked_edges, plan.scores):
                assert score == pytest.approx(expected[edge], abs=1e-9)
            assert list(plan.scores) == sorted(plan.scores, reverse=True)


class TestPlanEdgeDegree:
    def test_star_scores_all_zero(self):
        leaves = [f"l{i}" for i in range(5)]
        g = build_graph([(leaf, "c") for leaf in leaves])
        plan = plan_edge_degree(g, 99)
        assert set(plan.scores) == {0.0}

    def test_hand_counted_triangle(self):
        g = build_graph([("a", "b"), ("b", "c"), ("c", "b")])
        plan = plan_edge_degree(g, 1)
        assert plan.ranked_edges == (("b", "c"),)
        assert plan.scores == (pytest.approx(2.0),)

    def test_matches_product_scan(self, eight_node_network):
        g = eight_node_network
        plan = plan_edge_degree(g, g.edge_count)
        for (src, dst), score in zip(plan.ranked_edges, plan.scores):
            assert score == g.in_degree(src) * g.out_degree(dst)

    def test_random_graphs_match_product_scan(self):
        rng = random.Random(109)
        for _ in range(10):
            nodes, edges = random_digraph(rng, rng.randint(4, 20), 0.25)
            if not edges:
                continue
            g = build_graph(edges, nodes=nodes)
            plan = plan_edge_degree(g, len(edges))
            for (src, dst), score in zip(plan.ranked_edges, plan.scores):
                assert score == g.in_degree(src) * g.out_degree(dst)

    @pytest.mark.parametrize("seed", range(12))
    def test_ties_ranked_as_the_lexsort_ranks_them(self, seed):
        # Sparse random graphs give edge-degree scores with many ties; the
        # plan must order them as np.lexsort((dst, src, -scores)) does.
        rng = random.Random(seed)
        nodes, edges = random_digraph(rng, rng.randint(5, 60), rng.uniform(0.02, 0.3))
        g = build_graph(edges, nodes=nodes)
        if g.edge_count == 0:
            return
        plan = plan_edge_degree(g, g.edge_count)
        by_edge = dict(zip(plan.ranked_edges, plan.scores))
        scores = np.array([by_edge[edge] for edge in g.edges()])
        assert len(set(scores.tolist())) < scores.size
        src, dst = g.edge_src_indices, g.edge_dst_indices
        ids = g.external_ids
        want = tuple((ids[src[i]], ids[dst[i]]) for i in np.lexsort((dst, src, -scores)).tolist())
        assert plan.ranked_edges == want
        cut = rng.randint(0, g.edge_count)
        assert plan_edge_degree(g, cut).ranked_edges == want[:cut]


class TestPlanRandom:
    def _ten_edge_graph(self):
        return build_graph([(f"a{i}", f"b{i}") for i in range(10)])

    def test_full_budget_is_a_permutation(self):
        g = self._ten_edge_graph()
        plan = plan_random(g, g.edge_count, rng_seed=5)
        assert sorted(plan.ranked_edges) == sorted(g.edges())

    def test_same_seed_same_plan(self):
        g = self._ten_edge_graph()
        assert plan_random(g, 4, rng_seed=42) == plan_random(g, 4, rng_seed=42)

    def test_selection_frequency_is_uniform(self):
        g = self._ten_edge_graph()
        counts = Counter(plan_random(g, 1, rng_seed=seed).ranked_edges[0] for seed in range(10_000))
        for edge in g.edges():
            assert abs(counts[edge] / 10_000 - 0.1) <= 0.01


class TestPlanContracts:
    def _plans(self, g, k, seed=0):
        return [
            plan_netmelt(g, k),
            plan_betweenness(g, k),
            plan_edge_degree(g, k),
            plan_random(g, k, rng_seed=seed),
        ]

    def test_prefix_consistency(self):
        rng = random.Random(113)
        nodes, edges = random_digraph(rng, 12, 0.3)
        g = build_graph(edges, nodes=nodes)
        for small, large in zip(self._plans(g, 4), self._plans(g, 11)):
            assert large.ranked_edges[:4] == small.ranked_edges
            assert large.prefix(4).ranked_edges == small.ranked_edges

    def test_only_existing_edges_no_duplicates(self):
        rng = random.Random(127)
        nodes, edges = random_digraph(rng, 14, 0.3)
        g = build_graph(edges, nodes=nodes)
        edge_set = set(g.edges())
        for plan in self._plans(g, g.edge_count):
            assert len(plan.ranked_edges) == len(set(plan.ranked_edges)) == g.edge_count
            assert set(plan.ranked_edges) <= edge_set

    def test_scores_non_increasing(self):
        rng = random.Random(131)
        nodes, edges = random_digraph(rng, 14, 0.3)
        g = build_graph(edges, nodes=nodes)
        for plan in self._plans(g, g.edge_count):
            assert list(plan.scores) == sorted(plan.scores, reverse=True)

    def test_budget_never_exceeds_edge_count(self):
        g = build_graph([("a", "b"), ("b", "a")])
        for plan in self._plans(g, 50):
            assert len(plan.ranked_edges) == 2
            assert plan.k == 50

    def test_negative_budget_rejected(self):
        g = build_graph([("a", "b")])
        with pytest.raises(InputError):
            plan_edge_degree(g, -1)

    def test_unknown_strategy_rejected(self):
        g = build_graph([("a", "b")])
        with pytest.raises(InputError):
            plan_strategy(g, "bogus", 1)


class TestPlanSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = random.Random(137)
        nodes, edges = random_digraph(rng, 10, 0.3)
        g = build_graph(edges, nodes=nodes)
        for strategy in STRATEGIES:
            plan = plan_strategy(g, strategy, 6, rng_seed=9)
            path = tmp_path / f"{strategy}.tsv"
            save_plan(plan, path)
            assert load_plan(path) == plan

    def test_file_format(self, tmp_path):
        g = build_graph([("a", "b"), ("b", "a")])
        plan = plan_random(g, 2, rng_seed=3)
        path = tmp_path / "plan.tsv"
        save_plan(plan, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "random,2,3"
        assert all(len(line.split("\t")) == 3 for line in lines[1:])

    def test_header_without_seed(self, tmp_path):
        g = build_graph([("a", "b"), ("b", "c")])
        plan = plan_edge_degree(g, 1)
        path = tmp_path / "plan.tsv"
        save_plan(plan, path)
        assert path.read_text().splitlines()[0] == "edge-degree,1,"
        assert load_plan(path).rng_seed is None

    def test_bad_seed_in_header_is_parse_error(self, tmp_path):
        path = tmp_path / "plan_random.tsv"
        path.write_text("random,2,abc\na\tb\t0.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"plan_random\.tsv.*bad seed 'abc'"):
            load_plan(path)

    def test_netmelt_method_recorded(self):
        g = build_graph([("a", "b"), ("b", "a")])
        assert plan_netmelt(g, 1).method == "one-shot-eigenscore"
