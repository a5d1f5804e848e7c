"""Per-cascade diffusion graphs inferred from follow edges and timestamps.

A cascade spread from user u to user v when v follows u and u's event came
strictly earlier.  Three reconstructions are supported:

* ``non-tree``: every qualifying (earlier followee -> user) pair is an edge,
  so a user may have many parents;
* ``tree-first``: each user keeps only the earliest-posting followee as its
  single parent;
* ``tree-last``: each user keeps only the latest followee that still posted
  strictly before them.

Users with no qualifying parent are the cascade's seeds.  Simultaneous
events never produce an edge (the rule is strictly "earlier"), and equal
candidate-parent timestamps in the tree variants are broken by the
lexicographically smallest user id so rebuilds are deterministic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .graph import DirectedGraph
from .ingest import CascadeLog

logger = logging.getLogger(__name__)

NON_TREE = "non-tree"
TREE_FIRST = "tree-first"
TREE_LAST = "tree-last"
VARIANTS = (NON_TREE, TREE_FIRST, TREE_LAST)


@dataclass(frozen=True)
class DiffusionGraph:
    """One cascade's spread graph: edge (u, v) means it spread from u to v.

    ``parent_ids``, ``child_ids`` and ``follow_edge_pos`` hold the same edges
    in integer form: the dense network ids of each edge's endpoints and the
    position of the follow edge it used (child follows parent) in the
    network's canonical edge arrays.  They are ordered by (child, parent),
    which is the order of ``sorted((c, p) for p, c in edges)`` because dense
    ids follow sorted external ids.  They take no part in ``==``.
    """

    cascade_id: str
    variant: str
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]
    seeds: frozenset[str]
    parent_ids: np.ndarray = field(compare=False, repr=False)
    child_ids: np.ndarray = field(compare=False, repr=False)
    follow_edge_pos: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        for arr in (self.parent_ids, self.child_ids, self.follow_edge_pos):
            arr.flags.writeable = False


def build_non_tree(network: DirectedGraph, log: CascadeLog) -> DiffusionGraph:
    """Diffusion graph keeping every qualifying parent of every user."""
    return _build(network, log, NON_TREE)


def build_tree_first(network: DirectedGraph, log: CascadeLog) -> DiffusionGraph:
    """Diffusion tree keeping each user's earliest-posting followee."""
    return _build(network, log, TREE_FIRST)


def build_tree_last(network: DirectedGraph, log: CascadeLog) -> DiffusionGraph:
    """Diffusion tree keeping each user's latest strictly-earlier followee."""
    return _build(network, log, TREE_LAST)


def build_variant(network: DirectedGraph, log: CascadeLog, variant: str) -> DiffusionGraph:
    builders = {NON_TREE: build_non_tree, TREE_FIRST: build_tree_first, TREE_LAST: build_tree_last}
    try:
        builder = builders[variant]
    except KeyError:
        raise InputError(f"unknown diffusion variant {variant!r}; expected one of {VARIANTS}") from None
    return builder(network, log)


def to_dot(dg: DiffusionGraph) -> str:
    """Render as deterministic DOT text, seed nodes filled light green."""
    lines = [f'digraph "{dg.cascade_id}" {{']
    for node in sorted(dg.nodes):
        if node in dg.seeds:
            lines.append(f'  "{node}" [style=filled, fillcolor=lightgreen];')
        else:
            lines.append(f'  "{node}";')
    for src, dst in sorted(dg.edges):
        lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _build(network: DirectedGraph, log: CascadeLog, variant: str) -> DiffusionGraph:
    # Participants present in the network, sorted by dense id; membership and
    # timestamps of the other endpoint are looked up by binary search.
    present = sorted((network.index_of(u), t) for u, t in log.events if network.has_node(u))
    missing = len(log.events) - len(present)
    if missing:
        logger.warning(
            "cascade %s: %d user(s) absent from the follow network; kept as isolated seeds",
            log.cascade_id,
            missing,
        )
    nodes = frozenset(u for u, _ in log.events)
    if not present:
        empty = np.empty(0, dtype=np.int64)
        return DiffusionGraph(log.cascade_id, variant, nodes, frozenset(), nodes, empty, empty, empty)

    idx = np.fromiter((i for i, _ in present), dtype=np.int64, count=len(present))
    tau = np.fromiter((t for _, t in present), dtype=np.int64, count=len(present))
    followers, followees, edge_pos = network.out_edges_bulk(idx)
    followee_at = np.searchsorted(idx, followees)
    qualifies = (idx.take(followee_at, mode="clip") == followees) & (
        tau.take(followee_at, mode="clip") < tau[np.searchsorted(idx, followers)]
    )
    parents = followees[qualifies]
    children = followers[qualifies]
    edge_pos = edge_pos[qualifies]

    if variant != NON_TREE and parents.size:
        parent_tau = tau[followee_at[qualifies]]
        chosen = _single_parent(parents, children, parent_tau, keep_last=variant == TREE_LAST)
        parents, children, edge_pos = parents[chosen], children[chosen], edge_pos[chosen]

    ids = network.external_ids
    edges = frozenset(
        (ids[p], ids[c]) for p, c in zip(parents.tolist(), children.tolist())
    )
    seeds = frozenset(nodes - {ids[c] for c in children.tolist()})
    return DiffusionGraph(log.cascade_id, variant, nodes, edges, seeds, parents, children, edge_pos)


def _single_parent(
    parents: np.ndarray, children: np.ndarray, parent_tau: np.ndarray, keep_last: bool
) -> np.ndarray:
    """Indices of the one candidate parent kept per child, in child order.

    Candidates are ordered by timestamp (reversed for the "last" rule) with
    the dense node id as tie-break; dense ids follow sorted external ids, so
    the tie-break is the lexicographically smallest user id.
    """
    order = np.lexsort((parents, -parent_tau if keep_last else parent_tau, children))
    sorted_children = children[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = sorted_children[1:] != sorted_children[:-1]
    return order[first]
