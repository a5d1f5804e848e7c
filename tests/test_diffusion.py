"""Diffusion graph reconstruction tests."""

from __future__ import annotations

import dataclasses
import logging
import random
import re

import numpy as np
import pytest

from cascadecut import (
    DiffusionBatch,
    InputError,
    NON_TREE,
    TREE_FIRST,
    TREE_LAST,
    VARIANTS,
    build_batches,
    to_dot,
)
from cascadecut import diffusion
from conftest import (
    EIGHT_NODE_SEEDS,
    EIGHT_NODE_SPREAD_EDGES,
    EIGHT_NODE_TREE_FIRST_EDGES,
    EIGHT_NODE_TREE_LAST_EDGES,
    decimal_instance,
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
    graph_dot,
    indegree_zero,
    lexsort_single_parent,
    single_parent_edges,
    spread_rule_edges,
    string_variant,
    table_of,
    unfiltered_candidates,
)

GATHER_LOG = re.compile(
    r"gathered (\d+) follow edge\(s\) of (\d+) participant\(s\); (\d+) passed the filter, (\d+) qualify"
)
# The arrays of diffusion._gather, in order.
GATHER_ARRAYS = ("owner", "node", "tau", "slot", "at", "edge_pos")
BATCH_ARRAYS = ("sizes", "seed_counts", "owner", "node", "child_slot", "parent_slot", "follow_edge_pos")


def assert_same_batch(got, want):
    assert got.cascade_ids == want.cascade_ids
    for name in BATCH_ARRAYS:
        array = getattr(got, name)
        assert array.dtype == np.int64 and array.tolist() == getattr(want, name).tolist(), name


def edge_ends(batch):
    """(cascade, child, parent) of each spread edge: a cascade index and two dense ids."""
    return batch.owner[batch.child_slot], batch.node[batch.child_slot], batch.node[batch.parent_slot]


def present_times(network, log):
    """Event time of each of the log's users that the network holds."""
    present = (network.indices_of(log.users()) >= 0).tolist()
    return {u: t for (u, t), kept in zip(log.events, present) if kept}


class TestEightNodeExample:
    def test_non_tree_edges_and_seeds(self, eight_node_network, eight_node_log):
        dg = one_variant(eight_node_network, eight_node_log, NON_TREE)
        assert dg.edges == EIGHT_NODE_SPREAD_EDGES
        assert dg.seeds == EIGHT_NODE_SEEDS
        assert dg.nodes == {str(i) for i in range(1, 9)}

    def test_tree_first_parent_of_node_5(self, eight_node_network, eight_node_log):
        dg = one_variant(eight_node_network, eight_node_log, TREE_FIRST)
        assert ("1", "5") in dg.edges
        assert ("4", "5") not in dg.edges
        assert dg.edges == EIGHT_NODE_TREE_FIRST_EDGES

    def test_tree_last_parent_of_node_5(self, eight_node_network, eight_node_log):
        dg = one_variant(eight_node_network, eight_node_log, TREE_LAST)
        assert ("4", "5") in dg.edges
        assert ("1", "5") not in dg.edges
        assert dg.edges == EIGHT_NODE_TREE_LAST_EDGES

    def test_seed_sets_agree_across_variants(self, eight_node_network, eight_node_log):
        for variant in VARIANTS:
            dg = one_variant(eight_node_network, eight_node_log, variant)
            assert dg.seeds == EIGHT_NODE_SEEDS
            assert dg.nodes == {str(i) for i in range(1, 9)}


class TestConstructionRules:
    def test_single_event_cascade(self, eight_node_network):
        log = CascadeLog.from_events("solo", [("3", 10)])
        dg = one_variant(eight_node_network, log, NON_TREE)
        assert dg.edges == frozenset()
        assert dg.seeds == {"3"}

    def test_single_earlier_followee_is_forced_parent(self):
        network = network_of([("b", "a")])
        log = CascadeLog.from_events("t", [("a", 1), ("b", 2)])
        for variant in (TREE_FIRST, TREE_LAST):
            assert one_variant(network, log, variant).edges == {("a", "b")}

    def test_equal_timestamps_produce_no_edge(self):
        network = network_of([("b", "a"), ("a", "b")])
        log = CascadeLog.from_events("t", [("a", 5), ("b", 5)])
        dg = one_variant(network, log, NON_TREE)
        assert dg.edges == frozenset()
        assert dg.seeds == {"a", "b"}

    def test_equal_parent_timestamps_break_by_user_id(self):
        network = network_of([("v", "p2"), ("v", "p1")])
        log = CascadeLog.from_events("t", [("p1", 3), ("p2", 3), ("v", 9)])
        assert one_variant(network, log, TREE_FIRST).edges == {("p1", "v")}
        assert one_variant(network, log, TREE_LAST).edges == {("p1", "v")}

    def test_missing_users_become_isolated_seeds(self, eight_node_network, caplog):
        log = CascadeLog.from_events("t", [("1", 1), ("2", 2), ("ghost", 0)])
        with caplog.at_level(logging.WARNING):
            dg = one_variant(eight_node_network, log, NON_TREE)
        assert "ghost" not in {u for edge in dg.edges for u in edge}
        assert "ghost" in dg.seeds
        assert "absent from the follow network" in caplog.text

    def test_unknown_variant_rejected(self, eight_node_network, eight_node_table):
        with pytest.raises(InputError):
            to_dot(eight_node_network, eight_node_table, "bogus")


class TestRandomInstances:
    def test_non_tree_matches_pairwise_rule_oracle(self):
        rng = random.Random(61)
        for _ in range(40):
            network, log, edges, _ = random_instance(rng)
            tau = present_times(network, log)
            dg = one_variant(network, log, NON_TREE)
            assert dg.edges == spread_rule_edges(edges, tau)

    def test_tree_variants_match_argmin_argmax_oracles(self):
        rng = random.Random(67)
        for _ in range(40):
            network, log, edges, _ = random_instance(rng)
            tau = present_times(network, log)
            first = one_variant(network, log, TREE_FIRST)
            last = one_variant(network, log, TREE_LAST)
            assert first.edges == single_parent_edges(edges, tau, latest=False)
            assert last.edges == single_parent_edges(edges, tau, latest=True)

    def test_tree_edges_subset_of_non_tree(self):
        rng = random.Random(71)
        for _ in range(25):
            network, log, _, _ = random_instance(rng)
            non_tree = one_variant(network, log, NON_TREE)
            for variant in (TREE_FIRST, TREE_LAST):
                dg = one_variant(network, log, variant)
                assert dg.edges <= non_tree.edges
                assert dg.nodes == non_tree.nodes
                assert dg.seeds == non_tree.seeds

    def test_tree_in_degree_at_most_one(self):
        rng = random.Random(73)
        for _ in range(25):
            network, log, _, _ = random_instance(rng)
            for variant in (TREE_FIRST, TREE_LAST):
                dg = one_variant(network, log, variant)
                children = [child for _, child in dg.edges]
                assert len(children) == len(set(children))

    def test_edges_strictly_increase_timestamps(self):
        rng = random.Random(79)
        for _ in range(25):
            network, log, _, _ = random_instance(rng)
            tau = dict(log.events)
            for variant in VARIANTS:
                for parent, child in one_variant(network, log, variant).edges:
                    assert tau[parent] < tau[child]

    def test_seeds_match_indegree_scan(self):
        rng = random.Random(83)
        for _ in range(25):
            network, log, _, _ = random_instance(rng)
            for variant in VARIANTS:
                dg = one_variant(network, log, variant)
                assert dg.seeds == indegree_zero(dg.nodes, dg.edges)

    def test_everyone_reachable_from_seeds_without_deletion(self):
        rng = random.Random(89)
        for _ in range(30):
            network, log, _, _ = random_instance(rng)
            for variant in VARIANTS:
                dg = one_variant(network, log, variant)
                assert closure_from(dg.edges, dg.seeds) == dg.nodes

    def test_edge_arrays_describe_the_edges(self):
        rng = random.Random(101)
        for _ in range(25):
            network, log, _, _ = random_instance(rng)
            ids = network.external_ids
            src, dst = network.edge_sources(), network.edge_dst_indices
            for variant in VARIANTS:
                dg = one_variant(network, log, variant)
                batch = batch_of(network, table_of([log]), variant)
                _, child, parent = edge_ends(batch)
                pairs = list(zip(child.tolist(), parent.tolist()))
                assert pairs == sorted(pairs)
                assert {(ids[p], ids[c]) for c, p in pairs} == dg.edges
                assert len(pairs) == len(dg.edges)
                # the child follows the parent along the recorded follow edge
                assert src[batch.follow_edge_pos].tolist() == child.tolist()
                assert dst[batch.follow_edge_pos].tolist() == parent.tolist()

    def test_build_independent_of_event_order(self, eight_node_network):
        rng = random.Random(97)
        events = [("1", 1), ("2", 2), ("5", 5), ("4", 4)]
        shuffled = events[:]
        rng.shuffle(shuffled)
        for variant in VARIANTS:
            a = one_variant(eight_node_network, CascadeLog.from_events("t", events), variant)
            b = one_variant(eight_node_network, CascadeLog.from_events("t", shuffled), variant)
            assert a == b


class TestBuildBatch:
    def test_matches_build_variant_cascade_by_cascade(self):
        rng = random.Random(401)
        for _ in range(30):
            network, _, follow_edges, _ = random_instance(rng, max_nodes=20, outside_user_chance=0.0)
            logs = random_logs(rng, network, rng.randint(1, 12))
            ids = network.external_ids
            for variant in VARIANTS:
                batch = batch_of(network, table_of(logs), variant)
                assert batch.cascade_ids == tuple(log.cascade_id for log in logs)
                cascade, child, parent = edge_ends(batch)
                keys = list(zip(cascade.tolist(), child.tolist(), parent.tolist()))
                assert keys == sorted(keys)
                for i, log in enumerate(logs):
                    dg = one_variant(network, log, variant)
                    mine = cascade == i
                    alone = batch_of(network, table_of([log]), variant)
                    _, alone_child, alone_parent = edge_ends(alone)
                    assert child[mine].tolist() == alone_child.tolist()
                    assert parent[mine].tolist() == alone_parent.tolist()
                    assert batch.follow_edge_pos[mine].tolist() == alone.follow_edge_pos.tolist()
                    pairs = zip(parent[mine].tolist(), child[mine].tolist())
                    edges = {(ids[p], ids[c]) for p, c in pairs}
                    assert edges == dg.edges
                    assert batch.sizes[i] == len(dg.nodes) == log.size
                    assert batch.seed_counts[i] == len(dg.seeds)
                    tau = present_times(network, log)
                    if variant == NON_TREE:
                        assert edges == spread_rule_edges(follow_edges, tau)
                    else:
                        assert edges == single_parent_edges(follow_edges, tau, latest=variant == TREE_LAST)

    @pytest.mark.parametrize("chunk", [1, 3, 17])
    def test_gather_chunks_change_nothing(self, monkeypatch, chunk):
        rng = random.Random(chunk)
        for _ in range(10):
            network, _, _, _ = random_instance(rng, max_nodes=20, outside_user_chance=0.0)
            table = table_of(random_logs(rng, network, rng.randint(1, 12)))
            whole = build_batches(network, table, VARIANTS)
            with monkeypatch.context() as patch:
                patch.setattr(diffusion, "_GATHER_CHUNK", chunk)
                chunked = build_batches(network, table, VARIANTS)
            for variant in VARIANTS:
                assert_same_batch(chunked[variant], whole[variant])

    def test_empty_logs_give_an_empty_batch(self, eight_node_network):
        batches = build_batches(eight_node_network, table_of([]), VARIANTS)
        assert list(batches) == list(VARIANTS)
        for batch in batches.values():
            assert batch.cascade_ids == ()
            for name in BATCH_ARRAYS:
                arr = getattr(batch, name)
                assert arr.size == 0 and arr.dtype == np.int64, name

    def test_one_absent_user_warning_per_build(self, eight_node_network, caplog):
        logs = [
            CascadeLog.from_events("a", [("1", 1), ("ghost", 0), ("spook", 2)]),
            CascadeLog.from_events("b", [("2", 2)]),
            CascadeLog.from_events("c", [("ghost", 5)]),
        ]
        with caplog.at_level(logging.WARNING, logger="cascadecut.diffusion"):
            batch = batch_of(eight_node_network, table_of(logs), NON_TREE)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [
            "3 user(s) in 2 of 3 cascade(s) absent from the follow network; kept as isolated seeds"
        ]
        assert batch.sizes.tolist() == [3, 1, 1]
        assert batch.seed_counts.tolist() == [3, 1, 1]

    def test_unknown_variant_rejected(self, monkeypatch, eight_node_network, eight_node_table):
        # Every name is checked before the follow edges are gathered.
        gathers = []
        monkeypatch.setattr(diffusion, "_gather", lambda *args: gathers.append(args))
        for variants in (["bogus"], [NON_TREE, "bogus"], [TREE_LAST, TREE_FIRST, "Non-Tree"]):
            with pytest.raises(InputError, match="unknown diffusion variant"):
                build_batches(eight_node_network, eight_node_table, variants)
        assert gathers == []

    def test_any_order_or_repeats_equal_one_call_per_variant(self):
        rng = random.Random(409)
        for _ in range(15):
            network, _, _, _ = random_instance(rng, max_nodes=20, outside_user_chance=0.0)
            table = table_of(random_logs(rng, network, rng.randint(1, 10)))
            alone = {variant: batch_of(network, table, variant) for variant in VARIANTS}
            for variants in ([TREE_LAST, NON_TREE], [TREE_FIRST, TREE_FIRST, TREE_LAST, TREE_FIRST], [],
                             rng.choices(VARIANTS, k=5), list(reversed(VARIANTS))):
                batches = build_batches(network, table, variants)
                assert list(batches) == list(dict.fromkeys(variants))
                for variant, batch in batches.items():
                    assert_same_batch(batch, alone[variant])

    def test_batches_are_read_only(self, eight_node_network, eight_node_table):
        # BATCH_ARRAYS names every field but the cascade ids.
        assert [f.name for f in dataclasses.fields(DiffusionBatch)] == ["cascade_ids", *BATCH_ARRAYS]
        for batch in build_batches(eight_node_network, eight_node_table, VARIANTS).values():
            for name in BATCH_ARRAYS:
                assert not getattr(batch, name).flags.writeable, name

    def test_participants_are_the_gathered_ones(self):
        # Every variant shares the (cascade, user) numbering the gather made,
        # absent users left out.
        rng = random.Random(419)
        for _ in range(20):
            network, _, _, _ = random_instance(rng, max_nodes=20, outside_user_chance=0.0)
            table = table_of(random_logs(rng, network, rng.randint(0, 10)))
            owner, node, *_ = diffusion._gather(network, table)
            present = network.indices_of(table.user_ids)[table.user] >= 0
            assert owner.tolist() == table.cascade[present].tolist()
            for batch in build_batches(network, table, VARIANTS).values():
                assert batch.owner.tolist() == owner.tolist() and batch.node.tolist() == node.tolist()

    def test_slots_name_the_ends_of_the_follow_edge(self):
        rng = random.Random(421)
        for _ in range(20):
            network, _, _, _ = random_instance(rng, max_nodes=20, outside_user_chance=0.0)
            table = table_of(random_logs(rng, network, rng.randint(0, 10)))
            src, dst = network.edge_sources(), network.edge_dst_indices
            for batch in build_batches(network, table, VARIANTS).values():
                _, child, parent = edge_ends(batch)
                assert child.tolist() == src[batch.follow_edge_pos].tolist()
                assert parent.tolist() == dst[batch.follow_edge_pos].tolist()
                # both ends are participants of one cascade
                assert batch.owner[batch.parent_slot].tolist() == batch.owner[batch.child_slot].tolist()


class TestBuildVariantAgainstStrings:
    """The table-based view of each cascade against the string-level oracle."""

    @pytest.mark.parametrize("decimal", [False, True])
    def test_every_cascade_matches_string_variant(self, decimal):
        # random_logs mixes in absent users, repeated events, equal
        # timestamps and cascades with no user in the network.
        rng = random.Random(607 + decimal)
        for _ in range(30):
            network, _, edges, _ = random_instance(rng, max_nodes=20, outside_user_chance=0.0)
            logs = random_logs(rng, network, rng.randint(1, 12))
            if decimal:
                edges, logs = decimal_instance(rng, edges, logs)
                network = network_of(edges)
            table = table_of(logs)
            assert isinstance(table.user_ids, np.ndarray) == decimal
            for variant in VARIANTS:
                got = build_variant(network, table, variant)
                assert [dg.cascade_id for dg in got] == [log.cascade_id for log in logs]
                for dg, log in zip(got, logs):
                    want = string_variant(edges, log, variant)
                    assert (dg.nodes, dg.edges, dg.seeds) == (want.nodes, want.edges, want.seeds)
                    assert graph_dot(dg) == graph_dot(want)
                assert to_dot(network, table, variant) == "".join(map(graph_dot, got))

    def test_empty_table_has_no_graphs(self, eight_node_network):
        for variant in VARIANTS:
            assert build_variant(eight_node_network, table_of([]), variant) == []
            assert to_dot(eight_node_network, table_of([]), variant) == ""


def candidate_runs(rng):
    """(children, parents, parent times) as ``_gather`` orders them: each
    child's candidates contiguous, children ascending, parents ascending
    within a child, and times drawn from a few values so that they tie."""
    children, parents, times = [], [], []
    child = 0
    for _ in range(rng.randint(1, 80)):
        child += rng.randint(1, 3)
        for parent in sorted(rng.sample(range(50), rng.randint(1, 7))):
            children.append(child)
            parents.append(parent)
            times.append(rng.randint(-3, 3))
    return np.array(children), np.array(parents), np.array(times)


class TestSingleParent:
    """The run-wise choice of one parent per child against the earlier three-key lexsort."""

    @pytest.mark.parametrize("keep_last", [False, True], ids=["first", "last"])
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_lexsort_oracle(self, seed, keep_last):
        children, parents, times = candidate_runs(random.Random(seed))
        got = diffusion._single_parent(children, times, keep_last)
        assert got.tobytes() == lexsort_single_parent(parents, children, times, keep_last).tobytes()

    @pytest.mark.parametrize("decimal", [False, True])
    def test_gathered_candidates_choose_as_the_oracle(self, decimal):
        rng = random.Random(641 + decimal)
        for _ in range(20):
            network, _, edges, _ = random_instance(rng, max_nodes=25, outside_user_chance=0.0)
            logs = random_logs(rng, network, rng.randint(1, 10))
            if decimal:
                edges, logs = decimal_instance(rng, edges, logs)
                network = network_of(edges)
            _, node, tau, slot, at, _ = diffusion._gather(network, table_of(logs))
            for keep_last in (False, True):
                got = diffusion._single_parent(slot, tau[at], keep_last)
                assert got.tobytes() == lexsort_single_parent(node[at], slot, tau[at], keep_last).tobytes()

    def test_tree_last_takes_the_latest_parent_next_to_the_least_time(self):
        # The lexsort negated the times, and -(-2**63) wraps to -2**63, so it
        # took the earliest parent as the latest.
        edges = [("c", "a"), ("c", "b")]
        log = CascadeLog.from_events("t", [("a", -(2**63)), ("b", 0), ("c", 5)])
        for variant, parent in ((TREE_FIRST, "a"), (TREE_LAST, "b")):
            assert one_variant(network_of(edges), log, variant).edges == {(parent, "c")}
            assert string_variant(edges, log, variant).edges == {(parent, "c")}


class TestParticipantFilter:
    """The filtered gather against the unfiltered join it replaced."""

    @staticmethod
    def check(network, logs, caplog):
        """Assert the gather, and the batches built from it, equal the
        oracle's; returns its (probes, gathered) counts."""
        table = table_of(logs)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="cascadecut.diffusion"):
            found = diffusion._gather(network, table)
        [counts] = [m.groups() for r in caplog.records if (m := GATHER_LOG.fullmatch(r.getMessage()))]
        gathered, participants, probes, qualify = map(int, counts)
        want, want_gathered = unfiltered_candidates(network, table)
        assert len(found) == len(want) == len(GATHER_ARRAYS)
        for name, got, expected in zip(GATHER_ARRAYS, found, want):
            assert got.tolist() == expected.tolist(), name
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diffusion, "_gather", lambda *args: want)
            expected = build_batches(network, table, VARIANTS)
        for variant, batch in build_batches(network, table, VARIANTS).items():
            assert_same_batch(batch, expected[variant])
        owner, slot = want[0], want[3]
        assert (gathered, participants, qualify) == (want_gathered, owner.size, slot.size)
        assert qualify <= probes <= gathered
        return probes, gathered

    def test_random_instances_match_the_unfiltered_join(self, caplog):
        rng = random.Random(503)
        for _ in range(30):
            network, _, _, _ = random_instance(rng, max_nodes=30, outside_user_chance=0.0)
            # Users absent from the network, one-user cascades and users
            # shared across cascades, with colliding timestamps.
            self.check(network, random_logs(rng, network, rng.randint(1, 14)), caplog)

    def test_edge_cases(self, eight_node_network, eight_node_log, caplog):
        assert self.check(eight_node_network, [], caplog) == (0, 0)
        self.check(eight_node_network, [CascadeLog.from_events("one", [("3", 1)])], caplog)
        self.check(eight_node_network, [CascadeLog.from_events("ghosts", [("x", 1), ("y", 0)])], caplog)
        # The same users in three cascades, with the times reversed in one.
        reversed_log = CascadeLog.from_events("r", [(u, 100 - t) for u, t in eight_node_log.events])
        again = CascadeLog("t2", eight_node_log.events)
        _, gathered = self.check(eight_node_network, [eight_node_log, reversed_log, again], caplog)
        assert gathered == 3 * eight_node_network.edge_count

    def test_forced_collisions_leave_the_binary_search_to_decide(self, monkeypatch, caplog):
        # With no bits per participant the table has its minimum size, one
        # byte, so nearly every probe hits a set bit.
        monkeypatch.setattr(diffusion, "_FILTER_BITS", 0)
        rng = random.Random(509)
        probes = gathered = 0
        for _ in range(15):
            network, _, _, _ = random_instance(rng, max_nodes=30, outside_user_chance=0.0)
            p, g = self.check(network, random_logs(rng, network, rng.randint(6, 14)), caplog)
            probes, gathered = probes + p, gathered + g
        assert probes > 0.8 * gathered

    def test_filter_skips_most_edges_that_leave_the_cascade(self, caplog):
        rng = np.random.default_rng(521)
        users = 3000
        src, dst = rng.integers(0, users, size=(2, 40_000)).tolist()
        network = network_of((f"u{a}", f"u{b}") for a, b in zip(src, dst))
        logs = [
            CascadeLog.from_events(f"c{i}", [(f"u{u}", int(t)) for u, t in zip(rng.choice(users, 40, replace=False),
                                                                           rng.integers(0, 50, size=40))])
            for i in range(60)
        ]
        probes, gathered = self.check(network, logs, caplog)
        assert probes < gathered / 8

    @pytest.mark.parametrize("count", [0, 1, 3, 4, 5, 100, 1000])
    def test_bit_table_has_every_key_and_its_size(self, count):
        rng = np.random.default_rng(count)
        key = np.unique(rng.integers(0, 1 << 62, size=count))
        bits, shift = diffusion._bit_table(key)
        size = bits.size * 8
        assert size & (size - 1) == 0
        assert size == 8 or diffusion._FILTER_BITS * key.size <= size < 2 * diffusion._FILTER_BITS * key.size
        assert diffusion._has_bit(bits, shift, key).all()

    def test_bit_table_false_positive_rate(self):
        # Participant-like keys cascade * n + node; a probe of a key outside
        # them passes with the share of set bits, at most 1 / _FILTER_BITS.
        rng = np.random.default_rng(523)
        n = 50_000
        keys = np.unique(rng.integers(0, 300, 3000) * n + rng.integers(0, n, 3000))
        others = np.setdiff1d(rng.integers(0, 300, 200_000) * n + rng.integers(0, n, 200_000), keys)
        bits, shift = diffusion._bit_table(keys)
        assert np.unpackbits(bits).sum() > 0.9 * keys.size
        assert diffusion._has_bit(bits, shift, others).mean() < 1.25 / diffusion._FILTER_BITS


class TestDotExport:
    def test_seeds_annotated_and_output_stable(self, eight_node_network, eight_node_table):
        text = to_dot(eight_node_network, eight_node_table, NON_TREE)
        assert text == to_dot(eight_node_network, eight_node_table, NON_TREE)
        assert '"1" [style=filled, fillcolor=lightgreen];' in text
        assert '"4" [style=filled, fillcolor=lightgreen];' in text
        assert '"3" -> "6";' in text
        assert text.startswith('digraph "t" {')
        assert text.rstrip().endswith("}")

    def test_quotes_and_backslashes_in_ids_are_escaped(self):
        network = network_of([("c\\", 'a"b')])
        table = table_of([CascadeLog.from_events('t"1', [('a"b', 1), ("c\\", 2)])])
        text = to_dot(network, table, NON_TREE)
        assert text == (
            'digraph "t\\"1" {\n'
            '  "a\\"b" [style=filled, fillcolor=lightgreen];\n'
            '  "c\\\\";\n'
            '  "a\\"b" -> "c\\\\";\n'
            "}\n"
        )
        # In DOT a quoted string ends at the first quote no backslash escapes.
        quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
        names = set()
        for line in text.splitlines():
            assert re.fullmatch(r'(?:[^"\\]|"(?:[^"\\]|\\.)*")*', line), line
            names.update(re.sub(r"\\(.)", r"\1", name) for name in quoted.findall(line))
        assert names == {'t"1', 'a"b', "c\\"}

    @pytest.mark.parametrize("ids", ["plain", "decimal", "escaped"])
    def test_random_instances_match_the_string_views(self, ids):
        # Decimal ids of mixed length sort as strings, not as numbers, and
        # escaped ids put '"' and '\\' in every user and cascade id.
        rng = random.Random(613 + len(ids))
        for _ in range(25):
            network, _, edges, _ = random_instance(rng, max_nodes=20, outside_user_chance=0.0)
            logs = random_logs(rng, network, rng.randint(1, 8))
            if ids == "decimal":
                edges, logs = decimal_instance(rng, edges, logs)
            elif ids == "escaped":
                names = {u for edge in edges for u in edge} | {u for log in logs for u, _ in log.events}
                names |= {log.cascade_id for log in logs}
                new = {name: name[0] + rng.choice('"\\') + name[1:] for name in sorted(names)}
                edges = [(new[a], new[b]) for a, b in edges]
                logs = [CascadeLog.from_events(new[log.cascade_id], [(new[u], t) for u, t in log.events])
                        for log in logs]
            network, table = network_of(edges), table_of(logs)
            for variant in VARIANTS:
                text = to_dot(network, table, variant)
                assert text == "".join(graph_dot(dg) for dg in build_variant(network, table, variant))
                assert text == "".join(graph_dot(string_variant(edges, log, variant)) for log in logs)
