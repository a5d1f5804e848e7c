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

:func:`build_batch` builds one variant for many cascades at once, as flat
integer arrays; :func:`build_variant` is the string-level view of one
cascade, built through it.  The tree variants select from the non-tree
edges, so :func:`gather_candidates` gathers the follow edges once and
several variants are derived from its result.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InputError
from .graph import DirectedGraph, _sorted_unique
from .ingest import CascadeLog, CascadeTable

logger = logging.getLogger(__name__)

NON_TREE = "non-tree"
TREE_FIRST = "tree-first"
TREE_LAST = "tree-last"
VARIANTS = (NON_TREE, TREE_FIRST, TREE_LAST)

# Follow edges gathered per chunk of participants in a batch build.
_GATHER_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class DiffusionBatch:
    """One variant's spread graphs for many cascades, as flat integer arrays.

    Per cascade, in input order: ``cascade_ids``, ``sizes`` (users in the
    log, those absent from the network included) and ``seed_counts``.  Per
    spread edge, sorted by (cascade, child, parent): ``cascade`` (an index
    into ``cascade_ids``), ``parent`` and ``child`` (dense network ids) and
    ``follow_edge_pos`` (the position of the follow edge child -> parent in
    the network's canonical edge arrays).
    """

    cascade_ids: tuple[str, ...]
    sizes: np.ndarray = field(repr=False)
    seed_counts: np.ndarray = field(repr=False)
    cascade: np.ndarray = field(repr=False)
    parent: np.ndarray = field(repr=False)
    child: np.ndarray = field(repr=False)
    follow_edge_pos: np.ndarray = field(repr=False)

    def __post_init__(self):
        for arr in (self.sizes, self.seed_counts, self.cascade, self.parent, self.child, self.follow_edge_pos):
            arr.flags.writeable = False


@dataclass(frozen=True)
class DiffusionGraph:
    """One cascade's spread graph: edge (u, v) means it spread from u to v.

    ``parent_ids``, ``child_ids`` and ``follow_edge_pos`` hold the same edges
    in integer form, as in :class:`DiffusionBatch`.  They are ordered by
    (child, parent), which is the order of ``sorted((c, p) for p, c in
    edges)`` because dense ids follow sorted external ids.  They take no
    part in ``==``.
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


@dataclass(frozen=True, eq=False)
class SpreadCandidates:
    """Every qualifying spread edge of many cascades: the non-tree graphs
    before a variant picks among them, from :func:`gather_candidates`.

    Per participant present in the network, sorted by (cascade, dense id):
    ``owner`` (cascade index), ``node`` (dense id) and ``tau`` (time).  Per
    candidate edge, in (cascade, child, parent) order: ``slot`` and ``at``
    (the child's and the parent's participant index), ``parent`` (dense id)
    and ``edge_pos`` (follow-edge position).  ``len()`` is the cascade count.
    """

    network: DirectedGraph = field(repr=False)
    table: CascadeTable = field(repr=False)
    owner: np.ndarray = field(repr=False)
    node: np.ndarray = field(repr=False)
    tau: np.ndarray = field(repr=False)
    slot: np.ndarray = field(repr=False)
    at: np.ndarray = field(repr=False)
    parent: np.ndarray = field(repr=False)
    edge_pos: np.ndarray = field(repr=False)

    def __post_init__(self):
        for arr in (self.owner, self.node, self.tau, self.slot, self.at, self.parent, self.edge_pos):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.table)


def gather_candidates(network: DirectedGraph, logs: CascadeTable | Sequence[CascadeLog]) -> SpreadCandidates:
    """Gather the participants' follow edges once and keep those that qualify.

    ``logs`` is a :class:`CascadeTable`; a sequence of logs is converted with
    :meth:`CascadeTable.from_logs`.  Users absent from the network are kept
    as isolated seeds; their count is logged as one warning.
    """
    table = CascadeTable.from_logs(logs)
    node = network.indices_of(table.users)[table.user]
    present = node >= 0
    if not present.all():
        logger.warning(
            "%d user(s) in %d of %d cascade(s) absent from the follow network; kept as isolated seeds",
            node.size - np.count_nonzero(present),
            _sorted_unique(table.cascade[~present]).size,
            len(table),
        )

    # Participants present in the network, keyed by cascade * n + dense id.
    # Table events are sorted by (cascade, user) and users and dense ids both
    # follow sorted external ids, so the keys come sorted and unique.  The
    # followee end of each gathered follow edge is looked up by binary
    # search on the key.
    n = np.int64(network.node_count)
    key = table.cascade[present] * n
    key += node[present]
    tau = table.time[present]
    del node, present
    owner, idx = np.divmod(key, n)
    # Gather the participants' follow edges a chunk at a time, so the
    # temporaries stay small however many cascades the table holds.
    ends = np.cumsum(network.out_degrees[idx])
    total = int(ends[-1]) if ends.size else 0
    cuts = np.searchsorted(ends, np.arange(_GATHER_CHUNK, total, _GATHER_CHUNK), side="right")
    bounds = np.r_[0, _sorted_unique(cuts), idx.size].tolist()
    base = key - idx
    parts = [_candidates(network, key, base, tau, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    slot, at, parent, edge_pos = (np.concatenate(arrays) for arrays in zip(*parts))
    return SpreadCandidates(network, table, owner, idx, tau, slot, at, parent, edge_pos)


def build_batch(
    network: DirectedGraph, logs: CascadeTable | Sequence[CascadeLog] | SpreadCandidates, variant: str
) -> DiffusionBatch:
    """Every cascade's diffusion graph for one variant, in one array pass.

    ``logs`` is a :class:`CascadeTable` or a sequence of logs, gathered
    with :func:`gather_candidates`, or the :class:`SpreadCandidates` already
    gathered over ``network``, which lets several variants share one gather.
    """
    if variant not in VARIANTS:
        raise InputError(f"unknown diffusion variant {variant!r}; expected one of {VARIANTS}")
    found = logs if isinstance(logs, SpreadCandidates) else gather_candidates(network, logs)
    if found.network is not network:
        raise InputError("the spread candidates were gathered over another network")
    table, slot, parent, edge_pos = found.table, found.slot, found.parent, found.edge_pos
    if variant != NON_TREE and slot.size:
        chosen = _single_parent(parent, slot, found.tau[found.at], keep_last=variant == TREE_LAST)
        slot, parent, edge_pos = slot[chosen], parent[chosen], edge_pos[chosen]

    has_parent = np.zeros(found.owner.size, dtype=bool)
    has_parent[slot] = True
    seed_counts = table.sizes - np.bincount(found.owner[has_parent], minlength=len(table))
    return DiffusionBatch(
        table.cascade_ids, table.sizes, seed_counts, found.owner[slot], parent, found.node[slot], edge_pos
    )


def build_variant(network: DirectedGraph, log: CascadeLog, variant: str) -> DiffusionGraph:
    """One cascade's diffusion graph with string nodes, edges and seeds."""
    batch = build_batch(network, [log], variant)
    ids = network.external_ids
    children = batch.child.tolist()
    nodes = frozenset(log.users())
    edges = frozenset((ids[p], ids[c]) for p, c in zip(batch.parent.tolist(), children))
    seeds = nodes - {ids[c] for c in children}
    return DiffusionGraph(
        log.cascade_id, variant, nodes, edges, seeds, batch.parent, batch.child, batch.follow_edge_pos
    )


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


def _candidates(
    network: DirectedGraph, key: np.ndarray, base: np.ndarray, tau: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Qualifying spread edges into participants ``lo:hi``.

    Participants are sorted by ``key`` = cascade * n + dense id, and ``base``
    is each one's cascade * n.  A follow edge child -> parent qualifies when
    the parent is a participant of the child's cascade that posted strictly
    earlier.  Returns (child slot, parent slot, parent id, follow-edge
    position) per qualifying edge, in (child, parent) order.
    """
    slot, edge_pos = network.out_edge_slots(key[lo:hi] - base[lo:hi])
    slot += lo
    parent = network.edge_dst_indices[edge_pos]
    parent_key = base[slot]
    parent_key += parent
    at = np.searchsorted(key, parent_key)
    qualifies = key.take(at, mode="clip") == parent_key
    qualifies &= tau.take(at, mode="clip") < tau[slot]
    return slot[qualifies], at[qualifies], parent[qualifies], edge_pos[qualifies]


def _single_parent(
    parents: np.ndarray, children: np.ndarray, parent_tau: np.ndarray, keep_last: bool
) -> np.ndarray:
    """Indices of the one candidate parent kept per child, in child order.

    ``children`` may be any key that identifies a child, such as its
    (cascade, user) slot.  Candidates are ordered by timestamp (reversed for
    the "last" rule) with the dense node id as tie-break; dense ids follow
    sorted external ids, so the tie-break is the lexicographically smallest
    user id.
    """
    order = np.lexsort((parents, -parent_tau if keep_last else parent_tau, children))
    sorted_children = children[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = sorted_children[1:] != sorted_children[:-1]
    return order[first]
