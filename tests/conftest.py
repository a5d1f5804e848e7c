"""Shared fixtures: the hand-checkable eight-node cascade and random instances.

The eight-node example: user ids "1".."8", follow edges below, and event
times 1, 2, 6, 4, 5, 7, 8, 9 for users 1..8 respectively.  Every follow
edge pairs a later poster with an earlier one, so the full spread graph is
known exactly, as are both single-parent trees and the seed set {1, 4}.
"""

from __future__ import annotations

import random

import pytest

from cascadecut import CascadeLog, build_graph

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


@pytest.fixture
def eight_node_network():
    return build_graph(EIGHT_NODE_FOLLOW_EDGES)


@pytest.fixture
def eight_node_log():
    return CascadeLog.from_events("t", EIGHT_NODE_EVENTS)


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
    """Same id table and bit-identical canonical edge arrays."""
    assert got.external_ids == want.external_ids
    for name in ("edge_src_indices", "edge_dst_indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
    network = build_graph(edges)
    log = CascadeLog.from_events("c0", events)
    return network, log, edges, events
