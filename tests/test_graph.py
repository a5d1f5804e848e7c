"""Graph construction, reachability, betweenness, and eigenpair tests."""

from __future__ import annotations

import random

import numpy as np
import pytest

from cascadecut import (
    ConvergenceError,
    InputError,
    build_graph,
    edge_betweenness,
    leading_eigenpair,
    reachable_from,
)
from conftest import EIGHT_NODE_FOLLOW_EDGES, assert_same_graph
from oracles import (
    all_pairs_distance_sum,
    closure_from,
    dense_spectral_radius,
    path_count_betweenness,
    random_digraph,
    reference_build_graph,
)


class TestBuildGraph:
    def test_empty_input(self):
        g = build_graph([])
        assert g.node_count == 0
        assert g.edge_count == 0

    def test_duplicates_and_self_loops_dropped(self):
        g = build_graph([("a", "b"), ("a", "b"), ("b", "b")])
        assert g.node_count == 2
        assert list(g.edges()) == [("a", "b")]

    def test_eight_node_example(self, eight_node_network):
        assert eight_node_network.node_count == 8
        assert eight_node_network.edge_count == 8
        assert set(eight_node_network.edges()) == set(EIGHT_NODE_FOLLOW_EDGES)

    def test_ids_sorted_by_external_id(self):
        g = build_graph([("z", "a"), ("m", "z")])
        assert g.external_ids == ("a", "m", "z")

    def test_build_is_input_order_independent(self):
        rng = random.Random(7)
        _, edges = random_digraph(rng, 12, 0.3)
        shuffled = edges[:]
        rng.shuffle(shuffled)
        g1, g2 = build_graph(edges), build_graph(shuffled + edges[:3])
        assert g1.external_ids == g2.external_ids
        assert list(g1.edges()) == list(g2.edges())

    def test_degree_sums_match_edge_count(self):
        rng = random.Random(11)
        _, edges = random_digraph(rng, 20, 0.2)
        g = build_graph(edges)
        assert int(g.out_degrees.sum()) == g.edge_count
        assert int(g.in_degrees.sum()) == g.edge_count

    def test_forward_and_reverse_describe_same_edges(self):
        rng = random.Random(13)
        _, edges = random_digraph(rng, 15, 0.25)
        g = build_graph(edges)
        targets, sources, _ = g.in_edges_bulk(np.arange(g.node_count))
        via_reverse = {(g.id_of(s), g.id_of(t)) for s, t in zip(sources, targets)}
        assert via_reverse == set(g.edges())

    def test_isolated_nodes_via_nodes_argument(self):
        g = build_graph([("a", "b")], nodes=["c", "a"])
        assert g.external_ids == ("a", "b", "c")
        assert g.out_degree("c") == 0

    def test_non_string_ids_rejected(self):
        with pytest.raises(InputError):
            build_graph([(1, 2)])

    def test_edge_positions(self):
        rng = random.Random(17)
        nodes, edges = random_digraph(rng, 15, 0.25)
        g = build_graph(edges)
        canonical = list(g.edges())
        absent = [(a, b) for a in nodes for b in nodes if (a, b) not in set(edges)][:20]
        queries = rng.sample(edges, len(edges)) + absent + [("zz", nodes[0]), (nodes[0], "zz")]
        expected = [canonical.index(q) if q in canonical else -1 for q in queries]
        assert g.edge_positions(queries).tolist() == expected
        assert build_graph([], nodes=["a"]).edge_positions([("a", "a")]).tolist() == [-1]
        assert g.edge_positions([]).tolist() == []


# Ids drawn from this pool collide often (duplicates, self-loops) and mix
# ASCII with non-ASCII text, whose code-point order the dense ids must keep.
ID_POOL = [f"u{i}" for i in range(12)] + ["ü", "é1", "用户", "z", "Z", "u1\u0301", "0"]


class TestStreamingBuildMatchesReference:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_pair_lists(self, seed):
        rng = random.Random(seed)
        pool = rng.sample(ID_POOL, rng.randint(1, len(ID_POOL)))
        edges = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 60))]
        edges += rng.sample(edges, min(len(edges), 5))  # explicit repeats
        nodes = rng.sample(ID_POOL, rng.randint(0, 4)) + ["isolated-only"]
        want = reference_build_graph(edges, nodes=nodes)
        assert_same_graph(build_graph(edges, nodes=nodes), want)
        # A one-shot generator is consumed once and gives the same graph.
        assert_same_graph(build_graph((pair for pair in edges), nodes=iter(nodes)), want)

    def test_self_loops_only(self):
        edges = [("a", "a"), ("b", "b"), ("a", "a")]
        assert_same_graph(build_graph(edges), reference_build_graph(edges))

    def test_odd_field_count_rejected(self):
        with pytest.raises(InputError, match="pairs"):
            build_graph([("a", "b"), ("c",)])


class TestReachability:
    def test_eight_node_after_cut(self):
        remaining = [("1", "2"), ("2", "3"), ("4", "5"), ("5", "3"), ("6", "7"), ("6", "8")]
        g = build_graph(remaining, nodes=[str(i) for i in range(1, 9)])
        assert reachable_from(g, {"1", "4"}) == {"1", "2", "3", "4", "5"}

    def test_all_nodes_as_sources(self):
        rng = random.Random(3)
        _, edges = random_digraph(rng, 10, 0.2)
        g = build_graph(edges)
        assert reachable_from(g, set(g.external_ids)) == set(g.external_ids)

    def test_unknown_source_rejected(self):
        g = build_graph([("a", "b")])
        with pytest.raises(InputError):
            reachable_from(g, {"zzz"})

    def test_random_dags_match_closure_oracle(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(2, 30)
            names = [f"n{i:02d}" for i in range(n)]
            rng.shuffle(names)
            edges = [
                (names[i], names[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.15
            ]
            g = build_graph(edges, nodes=names)
            sources = set(rng.sample(names, rng.randint(1, n)))
            assert reachable_from(g, sources) == closure_from(edges, sources)

    def test_monotone_in_sources_and_edges(self):
        rng = random.Random(19)
        for _ in range(10):
            _, edges = random_digraph(rng, 15, 0.2)
            if not edges:
                continue
            g = build_graph(edges)
            nodes = list(g.external_ids)
            small = set(rng.sample(nodes, max(1, len(nodes) // 3)))
            large = small | set(rng.sample(nodes, max(1, len(nodes) // 3)))
            assert reachable_from(g, small) <= reachable_from(g, large)
            fewer = build_graph(edges[: len(edges) // 2], nodes=nodes)
            assert reachable_from(fewer, small) <= reachable_from(g, small)

    def test_reach_is_a_fixed_point(self):
        rng = random.Random(23)
        _, edges = random_digraph(rng, 12, 0.25)
        g = build_graph(edges)
        first = reachable_from(g, {g.external_ids[0]})
        assert reachable_from(g, first) == first


class TestEdgeBetweenness:
    def test_directed_path(self):
        g = build_graph([("a", "b"), ("b", "c")])
        assert edge_betweenness(g) == {("a", "b"): 2.0, ("b", "c"): 2.0}

    def test_directed_cycle_symmetry(self):
        g = build_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        scores = set(edge_betweenness(g).values())
        assert scores == {6.0}

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError):
            edge_betweenness(build_graph([]))

    def test_random_digraphs_match_path_counting_oracle(self):
        rng = random.Random(29)
        for _ in range(12):
            nodes, edges = random_digraph(rng, rng.randint(4, 24), rng.uniform(0.08, 0.3))
            if not edges:
                continue
            g = build_graph(edges, nodes=nodes)
            expected = path_count_betweenness(nodes, edges)
            actual = edge_betweenness(g)
            assert actual.keys() == expected.keys()
            for edge, score in expected.items():
                assert actual[edge] == pytest.approx(score, abs=1e-9)

    def test_total_equals_sum_of_path_lengths(self):
        rng = random.Random(31)
        for _ in range(8):
            nodes, edges = random_digraph(rng, rng.randint(4, 20), 0.2)
            if not edges:
                continue
            g = build_graph(edges, nodes=nodes)
            total = sum(edge_betweenness(g).values())
            assert total == pytest.approx(all_pairs_distance_sum(nodes, edges), abs=1e-6)


class TestLeadingEigenpair:
    def test_two_cycle(self):
        g = build_graph([("a", "b"), ("b", "a")])
        pair = leading_eigenpair(g)
        assert pair.eigenvalue == pytest.approx(1.0, abs=1e-9)
        assert pair.residual <= 1e-9

    def test_complete_graphs(self):
        for n in (3, 4, 6):
            names = [f"n{i}" for i in range(n)]
            g = build_graph([(a, b) for a in names for b in names if a != b])
            pair = leading_eigenpair(g)
            assert pair.eigenvalue == pytest.approx(n - 1, abs=1e-8)

    def test_acyclic_graph_has_zero_eigenvalue(self):
        g = build_graph([("a", "b"), ("a", "c"), ("b", "c")])
        pair = leading_eigenpair(g)
        assert pair.eigenvalue == 0.0
        assert pair.residual == 0.0

    def test_vectors_have_unit_norm(self):
        rng = random.Random(41)
        _, edges = random_digraph(rng, 15, 0.3)
        pair = leading_eigenpair(build_graph(edges))
        assert np.linalg.norm(pair.right_vector) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(pair.left_vector) == pytest.approx(1.0, abs=1e-12)

    def test_periodic_core_with_pendant_converges(self):
        # The undamped iteration oscillates here; the damped restart must
        # still deliver the exact spectral radius of the 2-cycle.
        g = build_graph([("a", "b"), ("b", "a"), ("b", "c")])
        pair = leading_eigenpair(g)
        assert pair.eigenvalue == pytest.approx(1.0, abs=1e-8)
        assert pair.residual <= 1e-9

    def test_defective_spectrum_reports_non_convergence(self):
        edges = [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "c")]
        g = build_graph(edges)
        with pytest.raises(ConvergenceError) as err:
            leading_eigenpair(g, max_iterations=2000)
        assert err.value.best_residual > 0

    def test_random_digraphs_match_dense_oracle(self):
        rng = random.Random(43)
        for _ in range(10):
            nodes, edges = random_digraph(rng, rng.randint(8, 40), rng.uniform(0.15, 0.35))
            g = build_graph(edges, nodes=nodes)
            pair = leading_eigenpair(g)
            assert pair.eigenvalue == pytest.approx(dense_spectral_radius(nodes, edges), abs=1e-6)

    def test_relabeling_preserves_eigenvalue(self):
        rng = random.Random(47)
        nodes, edges = random_digraph(rng, 18, 0.3)
        fresh = [f"w{i:02d}" for i in range(len(nodes))]
        rng.shuffle(fresh)
        rename = dict(zip(nodes, fresh))
        original = leading_eigenpair(build_graph(edges, nodes=nodes))
        relabeled = leading_eigenpair(
            build_graph([(rename[a], rename[b]) for a, b in edges], nodes=fresh)
        )
        assert relabeled.eigenvalue == pytest.approx(original.eigenvalue, abs=1e-8)

    def test_edge_deletion_never_raises_eigenvalue(self):
        rng = random.Random(53)
        nodes, edges = random_digraph(rng, 12, 0.35)
        g = build_graph(edges, nodes=nodes)
        base = leading_eigenpair(g).eigenvalue
        for dropped in range(min(len(edges), 15)):
            remaining = edges[:dropped] + edges[dropped + 1 :]
            smaller = leading_eigenpair(build_graph(remaining, nodes=nodes))
            assert smaller.eigenvalue <= base + 1e-9

    def test_input_validation(self):
        with pytest.raises(InputError):
            leading_eigenpair(build_graph([]))
        g = build_graph([("a", "b"), ("b", "a")])
        with pytest.raises(InputError):
            leading_eigenpair(g, tolerance=0.0)
        with pytest.raises(InputError):
            leading_eigenpair(g, max_iterations=0)
