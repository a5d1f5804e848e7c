"""Shared fixtures: the hand-checkable eight-node cascade and random instances.

The eight-node example: user ids "1".."8", follow edges below, and event
times 1, 2, 6, 4, 5, 7, 8, 9 for users 1..8 respectively.  Every follow
edge pairs a later poster with an earlier one, so the full spread graph is
known exactly, as are both single-parent trees and the seed set {1, 4}.
"""

from __future__ import annotations

import random

import pytest

from cascadecut import read_network
from oracles import CascadeLog, build_variant, logs_of, table_of

# follower -> followee
EIGHT_NODE_FOLLOW_EDGES = [
    ("2", "1"),
    ("5", "1"),
    ("3", "2"),
    ("5", "4"),
    ("3", "5"),
    ("6", "3"),
    ("7", "6"),
    ("8", "6"),
]

EIGHT_NODE_EVENTS = [
    ("1", 1),
    ("2", 2),
    ("3", 6),
    ("4", 4),
    ("5", 5),
    ("6", 7),
    ("7", 8),
    ("8", 9),
]

EIGHT_NODE_SPREAD_EDGES = {
    ("1", "2"),
    ("1", "5"),
    ("2", "3"),
    ("4", "5"),
    ("5", "3"),
    ("3", "6"),
    ("6", "7"),
    ("6", "8"),
}

EIGHT_NODE_TREE_FIRST_EDGES = {
    ("1", "2"),
    ("1", "5"),
    ("2", "3"),
    ("3", "6"),
    ("6", "7"),
    ("6", "8"),
}

EIGHT_NODE_TREE_LAST_EDGES = {
    ("1", "2"),
    ("4", "5"),
    ("5", "3"),
    ("3", "6"),
    ("6", "7"),
    ("6", "8"),
}

EIGHT_NODE_SEEDS = {"1", "4"}

# Follow edges whose deletion blocks spread edges (1,5) and (3,6).
EIGHT_NODE_CUT_FOLLOW_EDGES = [("5", "1"), ("6", "3")]


def network_of(pairs):
    """The network of (follower, followee) id pairs, read as edge lines."""
    return read_network([f"{src}\t{dst}" for src, dst in pairs])


@pytest.fixture
def eight_node_network():
    return network_of(EIGHT_NODE_FOLLOW_EDGES)


@pytest.fixture
def eight_node_log():
    return CascadeLog.from_events("t", EIGHT_NODE_EVENTS)


@pytest.fixture
def eight_node_table(eight_node_log):
    return table_of([eight_node_log])


def one_variant(network, log, variant):
    """The diffusion graph of one string-level cascade, built from its table."""
    (dg,) = build_variant(network, table_of([log]), variant)
    return dg


def write_eight_node_dataset(tmp_path):
    """Write the fixture as canonical edge/cascade files; returns their paths."""
    edges_path = tmp_path / "edges.tsv"
    cascades_path = tmp_path / "cascades.tsv"
    edges_path.write_text(
        "".join(f"{a}\t{b}\n" for a, b in EIGHT_NODE_FOLLOW_EDGES), encoding="utf-8"
    )
    cascades_path.write_text(
        "".join(f"t\t{u}\t{ts}\n" for u, ts in EIGHT_NODE_EVENTS), encoding="utf-8"
    )
    return edges_path, cascades_path


def assert_same_graph(got, want):
    """Same id table and bit-identical canonical edge arrays: the sources
    rebuilt by ``edge_sources`` and the destinations."""
    assert got.external_ids == want.external_ids
    for a, b in ((got.edge_sources(), want.edge_sources()), (got.edge_dst_indices, want.edge_dst_indices)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_table(got, want):
    """Same cascades in the same order, each with the same events."""
    assert got.cascade_ids == want.cascade_ids
    assert logs_of(got) == logs_of(want)


def random_instance(rng: random.Random, max_nodes=30, outside_user_chance=0.3):
    """A random follow network plus one random cascade over (most of) it.

    Timestamps collide on purpose to exercise the strict-inequality rule;
    occasionally a cascade user is absent from the network entirely.
    """
    n = rng.randint(3, max_nodes)
    users = [f"u{i:03d}" for i in range(n)]
    p = rng.uniform(0.05, 0.35)
    edges = [(a, b) for a in users for b in users if a != b and rng.random() < p]
    participants = rng.sample(users, rng.randint(1, n))
    if rng.random() < outside_user_chance:
        participants.append(f"x{rng.randint(0, 99):02d}")
    events = [(u, rng.randint(0, 40)) for u in participants]
    network = network_of(edges)
    log = CascadeLog.from_events("c0", events)
    return network, log, edges, events


def decimal_instance(rng: random.Random, edges, logs):
    """The same follow edges and cascades with every user id, absent ones
    too, replaced by a distinct plain decimal of 1 to 6 digits."""
    names = sorted({u for edge in edges for u in edge} | {u for log in logs for u, _ in log.events})
    new = dict(zip(names, map(str, rng.sample(range(1, 10**6), len(names)))))
    logs = [CascadeLog.from_events(log.cascade_id, [(new[u], t) for u, t in log.events]) for log in logs]
    return [(new[a], new[b]) for a, b in edges], logs


def random_logs(rng: random.Random, network, count):
    """Random cascades over a network, hitting every edge case of a batch build.

    Timestamps collide, some users post more than once, some are absent from
    the network, and the mix includes one-user cascades and cascades with no
    user in the network at all.
    """
    users = list(network.external_ids)
    logs = []
    for i in range(count):
        kind = rng.random()
        if kind < 0.15 or not users:
            participants = [f"x{i}-{j}" for j in range(rng.randint(1, 3))]
        elif kind < 0.3:
            participants = [rng.choice(users)]
        else:
            participants = rng.sample(users, rng.randint(1, len(users)))
            participants += rng.choices(participants, k=rng.randint(0, 3))
            if rng.random() < 0.4:
                participants.append(f"x{i}")
        events = [(u, rng.randint(0, 12)) for u in participants]
        logs.append(CascadeLog.from_events(f"c{i:02d}", events))
    return logs
