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

:func:`build_batches` builds any set of variants for every cascade of a
:class:`~cascadecut.ingest.CascadeTable` at once, one
:class:`DiffusionBatch` of flat integer arrays per variant.  The tree
variants select from the non-tree edges, so the follow edges are gathered
once for all of them, and every variant's edges join the one numbering of
(cascade, user) participants that the gather made.  :func:`to_dot` renders
each cascade of a variant as the DOT text that ``export-dot`` writes, read
off its batch and the two id tables.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import InputError
from .graph import DirectedGraph, _run_starts, _sorted_unique
from .ingest import CascadeTable

logger = logging.getLogger(__name__)

NON_TREE = "non-tree"
TREE_FIRST = "tree-first"
TREE_LAST = "tree-last"
VARIANTS = (NON_TREE, TREE_FIRST, TREE_LAST)

# Follow edges gathered per chunk of participants in a batch build.
_GATHER_CHUNK = 1 << 16
# The gather's participant filter: a bit table of the smallest power of two
# that gives every participant at least this many bits (so 2 to 4 bytes per
# participant, and at least one byte), indexed by a multiplicative hash
# (2**64 over the golden ratio).
_FILTER_BITS = 16
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


@dataclass(frozen=True, eq=False)
class DiffusionBatch:
    """One variant's spread graphs for many cascades, as flat integer arrays.

    Per cascade, in table order: ``cascade_ids``, ``sizes`` (users in the
    cascade, those absent from the network included) and ``seed_counts``.
    Per participant (a cascade's user present in the network), sorted by
    (cascade, dense id) and shared by every variant of one build: ``owner``
    (an index into ``cascade_ids``) and ``node`` (its dense network id).  Per
    spread edge, sorted by (child, parent): ``child_slot`` and
    ``parent_slot`` (participant indices, so both ends lie in one cascade)
    and ``follow_edge_pos`` (the position of the follow edge child -> parent
    in the network's canonical edge arrays), all five of dtype ``INDEX``.
    """

    cascade_ids: tuple[str, ...]
    sizes: np.ndarray = field(repr=False)
    seed_counts: np.ndarray = field(repr=False)
    owner: np.ndarray = field(repr=False)
    node: np.ndarray = field(repr=False)
    child_slot: np.ndarray = field(repr=False)
    parent_slot: np.ndarray = field(repr=False)
    follow_edge_pos: np.ndarray = field(repr=False)

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


def build_batches(network: DirectedGraph, table: CascadeTable, variants: Iterable[str]) -> dict[str, DiffusionBatch]:
    """Every cascade's diffusion graphs under each variant, from one gather.

    Returns one :class:`DiffusionBatch` per distinct variant, keyed in the
    order first given.  The names are checked before the follow edges are
    gathered (:func:`_gather`); the gather keeps the non-tree edges, and
    each tree variant selects one parent per child among them, so every
    variant has the same seeds.
    """
    variants = tuple(dict.fromkeys(variants))
    for variant in variants:
        if variant not in VARIANTS:
            raise InputError(f"unknown diffusion variant {variant!r}; expected one of {VARIANTS}")
    owner, node, tau, slot, at, edge_pos = _gather(network, table)
    has_parent = np.zeros(owner.size, dtype=bool)
    has_parent[slot] = True
    seed_counts = table.sizes - np.bincount(owner[has_parent], minlength=len(table))
    batches = {}
    for variant in variants:
        chosen = slice(None)
        if variant != NON_TREE and slot.size:
            chosen = _single_parent(slot, tau[at], keep_last=variant == TREE_LAST)
        batches[variant] = DiffusionBatch(
            table.cascade_ids, table.sizes, seed_counts, owner, node, slot[chosen], at[chosen], edge_pos[chosen]
        )
    return batches


def to_dot(network: DirectedGraph, table: CascadeTable, variant: str) -> str:
    """One ``digraph`` per cascade of ``table``, in table order, as deterministic DOT text.

    Nodes are the cascade's users from the table's id table, sorted, with
    the seeds (the nodes no edge reaches) filled light green; edges are the
    variant's spread edges in the network's ids, sorted.  Ids are DOT
    quoted strings, with ``\\`` and ``"`` escaped by a backslash.
    """
    (batch,) = build_batches(network, table, [variant]).values()
    ids, users = network.external_ids, table.users
    bounds = np.arange(len(table) + 1)
    events = np.searchsorted(table.cascade, bounds).tolist()
    spread = np.searchsorted(batch.owner[batch.child_slot], bounds).tolist()
    parent, child = batch.node[batch.parent_slot].tolist(), batch.node[batch.child_slot].tolist()
    user = table.user.tolist()
    lines = []
    for i, cascade_id in enumerate(table.cascade_ids):
        lo, hi = spread[i], spread[i + 1]
        reached = {ids[c] for c in child[lo:hi]}
        lines.append(f"digraph {_dot_id(cascade_id)} {{")
        for node in sorted(users[u] for u in user[events[i] : events[i + 1]]):
            seed = "" if node in reached else " [style=filled, fillcolor=lightgreen]"
            lines.append(f"  {_dot_id(node)}{seed};")
        for src, dst in sorted((ids[p], ids[c]) for p, c in zip(parent[lo:hi], child[lo:hi])):
            lines.append(f"  {_dot_id(src)} -> {_dot_id(dst)};")
        lines.append("}")
    return "".join(line + "\n" for line in lines)


def _dot_id(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _gather(network: DirectedGraph, table: CascadeTable) -> tuple[np.ndarray, ...]:
    """The participants' follow edges, gathered once, with those that qualify.

    Users of ``table`` absent from the network are kept as isolated seeds;
    their count is logged as one warning.

    Returns, per participant present in the network and sorted by
    (cascade, dense id), ``owner`` (cascade index), ``node`` (dense id) and
    ``tau`` (time); then, per qualifying edge in (child, parent) order,
    ``slot`` and ``at`` (the child's and the parent's participant index)
    and ``edge_pos`` (follow-edge position).

    A gathered follow edge child -> parent qualifies when the parent is a
    participant of the child's cascade that posted strictly earlier.  Most
    gathered edges lead outside the cascade, so before any binary search the
    parent's key ``cascade * n + parent`` is probed in a bit table with the
    bit of every participant's key set, at a multiplicative hash of the key.
    The table is the smallest power of two with :data:`_FILTER_BITS` bits
    per participant, so about one in 16 or fewer of the edges that leave
    the cascade hit a set bit.  An edge whose bit is clear cannot qualify;
    only the edges that pass are looked up by ``np.searchsorted``, which
    settles the hash collisions, so the result is exact.  One INFO line
    gives the participants, the follow edges gathered, the probes that
    passed the filter and the qualifying edges.
    """
    node = network.indices_of(table.user_ids)[table.user]
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
    # followee end of each gathered follow edge that passes the filter is
    # looked up by binary search on the key.
    n = np.int64(network.node_count)
    # An int64 key split back into int64 owner and idx: a narrower INDEX widens by astype first.
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
    bits, shift = _bit_table(key)
    parts = [_candidates(network, key, base, tau, bits, shift, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    slot, at, edge_pos, probes = (np.concatenate(arrays) for arrays in zip(*parts))
    logger.info(
        "gathered %d follow edge(s) of %d participant(s); %d passed the filter, %d qualify",
        total, key.size, probes.sum(), slot.size,
    )
    return owner, idx, tau, slot, at, edge_pos


def _candidates(
    network: DirectedGraph,
    key: np.ndarray,
    base: np.ndarray,
    tau: np.ndarray,
    bits: np.ndarray,
    shift: np.uint64,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Qualifying spread edges into participants ``lo:hi``.

    Participants are sorted by ``key`` = cascade * n + dense id, and ``base``
    is each one's cascade * n; ``bits`` and ``shift`` are their
    :func:`_bit_table`.  Returns (child slot, parent slot, follow-edge
    position) per qualifying edge, in (child, parent) order, and the number
    of probes that passed the filter as a one-element array.
    """
    slot, edge_pos = network.out_edge_slots(key[lo:hi] - base[lo:hi])
    slot += lo
    parent_key = base[slot]
    parent_key += network.edge_dst_indices[edge_pos]
    probe = np.flatnonzero(_has_bit(bits, shift, parent_key))
    slot, edge_pos, parent_key = slot[probe], edge_pos[probe], parent_key[probe]
    at = np.searchsorted(key, parent_key)
    qualifies = key.take(at, mode="clip") == parent_key
    qualifies &= tau.take(at, mode="clip") < tau[slot]
    return slot[qualifies], at[qualifies], edge_pos[qualifies], np.array([probe.size])


def _bit_of(key: np.ndarray, shift: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """Byte index and bit mask of each non-negative int64 key in a :func:`_bit_table`.

    The bit is the top ``64 - shift`` bits of a multiplicative hash of the key.
    """
    h = key.view(np.uint64) * _HASH_MULTIPLIER
    h >>= shift
    mask = np.left_shift(np.uint8(1), (h & np.uint64(7)).astype(np.uint8))
    h >>= np.uint64(3)
    return h.view(np.int64), mask  # a view of the uint64 hash, so int64 whatever INDEX is


def _bit_table(key: np.ndarray) -> tuple[np.ndarray, np.uint64]:
    """A table of bytes with the bit of every key set, and the hash shift that finds it."""
    log2 = max(3, (key.size * _FILTER_BITS - 1).bit_length())
    shift = np.uint64(64 - log2)
    bits = np.zeros(1 << (log2 - 3), dtype=np.uint8)
    np.bitwise_or.at(bits, *_bit_of(key, shift))
    return bits, shift


def _has_bit(bits: np.ndarray, shift: np.uint64, key: np.ndarray) -> np.ndarray:
    """Whether each key's bit is set in ``bits``: false only for keys that were never set."""
    at, mask = _bit_of(key, shift)
    mask &= bits[at]
    return mask.astype(bool)


def _single_parent(children: np.ndarray, parent_tau: np.ndarray, keep_last: bool) -> np.ndarray:
    """Indices of the one candidate parent kept per child, in child order.

    ``children`` may be any key that identifies a child, such as its
    (cascade, user) slot.  Each child's candidates must be contiguous and
    in ascending dense parent id, as :func:`_gather` returns them.  The
    kept candidate has the earliest timestamp (the latest for the "last"
    rule) and is the first of its run on a tie; dense ids follow sorted
    external ids, so the tie-break is the lexicographically smallest user id.
    """
    starts = np.flatnonzero(_run_starts(children))
    kept_tau = (np.maximum if keep_last else np.minimum).reduceat(parent_tau, starts)
    hits = np.flatnonzero(parent_tau == np.repeat(kept_tau, np.diff(starts, append=children.size)))
    return hits[_run_starts(children[hits])]  # each run's first hit
