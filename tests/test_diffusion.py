"""Diffusion graph reconstruction tests."""

from __future__ import annotations

import logging
import random

import pytest

from cascadecut import (
    CascadeLog,
    InputError,
    VARIANTS,
    build_graph,
    build_non_tree,
    build_tree_first,
    build_tree_last,
    build_variant,
    reachable_from,
    to_dot,
)
from conftest import (
    EIGHT_NODE_SEEDS,
    EIGHT_NODE_SPREAD_EDGES,
    EIGHT_NODE_TREE_FIRST_EDGES,
    EIGHT_NODE_TREE_LAST_EDGES,
    random_instance,
)
from oracles import indegree_zero, single_parent_edges, spread_rule_edges


class TestEightNodeExample:
    def test_non_tree_edges_and_seeds(self, eight_node_network, eight_node_log):
        dg = build_non_tree(eight_node_network, eight_node_log)
        assert dg.edges == EIGHT_NODE_SPREAD_EDGES
        assert dg.seeds == EIGHT_NODE_SEEDS
        assert dg.nodes == {str(i) for i in range(1, 9)}

    def test_tree_first_parent_of_node_5(self, eight_node_network, eight_node_log):
        dg = build_tree_first(eight_node_network, eight_node_log)
        assert ("1", "5") in dg.edges
        assert ("4", "5") not in dg.edges
        assert dg.edges == EIGHT_NODE_TREE_FIRST_EDGES

    def test_tree_last_parent_of_node_5(self, eight_node_network, eight_node_log):
        dg = build_tree_last(eight_node_network, eight_node_log)
        assert ("4", "5") in dg.edges
        assert ("1", "5") not in dg.edges
        assert dg.edges == EIGHT_NODE_TREE_LAST_EDGES

    def test_seed_sets_agree_across_variants(self, eight_node_network, eight_node_log):
        for variant in VARIANTS:
            dg = build_variant(eight_node_network, eight_node_log, variant)
            assert dg.seeds == EIGHT_NODE_SEEDS
            assert dg.nodes == {str(i) for i in range(1, 9)}


class TestConstructionRules:
    def test_single_event_cascade(self, eight_node_network):
        log = CascadeLog.from_events("solo", [("3", 10)])
        dg = build_non_tree(eight_node_network, log)
        assert dg.edges == frozenset()
        assert dg.seeds == {"3"}

    def test_single_earlier_followee_is_forced_parent(self):
        network = build_graph([("b", "a")])
        log = CascadeLog.from_events("t", [("a", 1), ("b", 2)])
        for builder in (build_tree_first, build_tree_last):
            assert builder(network, log).edges == {("a", "b")}

    def test_equal_timestamps_produce_no_edge(self):
        network = build_graph([("b", "a"), ("a", "b")])
        log = CascadeLog.from_events("t", [("a", 5), ("b", 5)])
        dg = build_non_tree(network, log)
        assert dg.edges == frozenset()
        assert dg.seeds == {"a", "b"}

    def test_equal_parent_timestamps_break_by_user_id(self):
        network = build_graph([("v", "p2"), ("v", "p1")])
        log = CascadeLog.from_events("t", [("p1", 3), ("p2", 3), ("v", 9)])
        assert build_tree_first(network, log).edges == {("p1", "v")}
        assert build_tree_last(network, log).edges == {("p1", "v")}

    def test_missing_users_become_isolated_seeds(self, eight_node_network, caplog):
        log = CascadeLog.from_events("t", [("1", 1), ("2", 2), ("ghost", 0)])
        with caplog.at_level(logging.WARNING):
            dg = build_non_tree(eight_node_network, log)
        assert "ghost" not in {u for edge in dg.edges for u in edge}
        assert "ghost" in dg.seeds
        assert "absent from the follow network" in caplog.text

    def test_unknown_variant_rejected(self, eight_node_network, eight_node_log):
        with pytest.raises(InputError):
            build_variant(eight_node_network, eight_node_log, "bogus")


class TestRandomInstances:
    def test_non_tree_matches_pairwise_rule_oracle(self):
        rng = random.Random(61)
        for _ in range(40):
            network, log, edges, _ = random_instance(rng)
            tau = {u: t for u, t in log.events if network.has_node(u)}
            dg = build_non_tree(network, log)
            assert dg.edges == spread_rule_edges(edges, tau)

    def test_tree_variants_match_argmin_argmax_oracles(self):
        rng = random.Random(67)
        for _ in range(40):
            network, log, edges, _ = random_instance(rng)
            tau = {u: t for u, t in log.events if network.has_node(u)}
            assert build_tree_first(network, log).edges == single_parent_edges(edges, tau, latest=False)
            assert build_tree_last(network, log).edges == single_parent_edges(edges, tau, latest=True)

    def test_tree_edges_subset_of_non_tree(self):
        rng = random.Random(71)
        for _ in range(25):
            network, log, _, _ = random_instance(rng)
            non_tree = build_non_tree(network, log)
            for builder in (build_tree_first, build_tree_last):
                dg = builder(network, log)
                assert dg.edges <= non_tree.edges
                assert dg.nodes == non_tree.nodes
                assert dg.seeds == non_tree.seeds

    def test_tree_in_degree_at_most_one(self):
        rng = random.Random(73)
        for _ in range(25):
            network, log, _, _ = random_instance(rng)
            for builder in (build_tree_first, build_tree_last):
                dg = builder(network, log)
                children = [child for _, child in dg.edges]
                assert len(children) == len(set(children))

    def test_edges_strictly_increase_timestamps(self):
        rng = random.Random(79)
        for _ in range(25):
            network, log, _, _ = random_instance(rng)
            tau = dict(log.events)
            for variant in VARIANTS:
                for parent, child in build_variant(network, log, variant).edges:
                    assert tau[parent] < tau[child]

    def test_seeds_match_indegree_scan(self):
        rng = random.Random(83)
        for _ in range(25):
            network, log, _, _ = random_instance(rng)
            for variant in VARIANTS:
                dg = build_variant(network, log, variant)
                assert dg.seeds == indegree_zero(dg.nodes, dg.edges)

    def test_everyone_reachable_from_seeds_without_deletion(self):
        rng = random.Random(89)
        for _ in range(30):
            network, log, _, _ = random_instance(rng)
            for variant in VARIANTS:
                dg = build_variant(network, log, variant)
                g = build_graph(dg.edges, nodes=dg.nodes)
                assert len(reachable_from(g, dg.seeds)) == len(dg.nodes)

    def test_edge_arrays_describe_the_edges(self):
        rng = random.Random(101)
        for _ in range(25):
            network, log, _, _ = random_instance(rng)
            ids = network.external_ids
            src, dst = network.edge_src_indices, network.edge_dst_indices
            for variant in VARIANTS:
                dg = build_variant(network, log, variant)
                pairs = list(zip(dg.child_ids.tolist(), dg.parent_ids.tolist()))
                assert pairs == sorted(pairs)
                assert {(ids[p], ids[c]) for c, p in pairs} == dg.edges
                assert len(pairs) == len(dg.edges)
                # the child follows the parent along the recorded follow edge
                assert src[dg.follow_edge_pos].tolist() == dg.child_ids.tolist()
                assert dst[dg.follow_edge_pos].tolist() == dg.parent_ids.tolist()

    def test_build_independent_of_event_order(self, eight_node_network):
        rng = random.Random(97)
        events = [("1", 1), ("2", 2), ("5", 5), ("4", 4)]
        shuffled = events[:]
        rng.shuffle(shuffled)
        for variant in VARIANTS:
            a = build_variant(eight_node_network, CascadeLog.from_events("t", events), variant)
            b = build_variant(eight_node_network, CascadeLog.from_events("t", shuffled), variant)
            assert a == b


class TestDotExport:
    def test_seeds_annotated_and_output_stable(self, eight_node_network, eight_node_log):
        dg = build_non_tree(eight_node_network, eight_node_log)
        text = to_dot(dg)
        assert text == to_dot(dg)
        assert '"1" [style=filled, fillcolor=lightgreen];' in text
        assert '"4" [style=filled, fillcolor=lightgreen];' in text
        assert '"3" -> "6";' in text
        assert text.startswith('digraph "t" {')
        assert text.rstrip().endswith("}")
