"""Immutable directed graph with the analytics the rest of the package consumes.

A :class:`DirectedGraph` maps opaque string node ids onto dense integers
(sorted by external id, so builds are reproducible) and stores the edge set
in one compressed sparse index by source: each edge's destination and each
node's offset, from which :meth:`DirectedGraph.edge_sources` rebuilds the
sources on request.  Plain decimal ids may be held as
int64 values, whose strings are built only when asked for.  Nodes and edges
are addressed by dense id and canonical edge position, of dtype
:data:`INDEX`; external ids are looked up in bulk only, through
:meth:`DirectedGraph.indices_of`, which ranks them with the node ids as
ingest ranks an id column, so the graph keeps no lookup table.  Out-edges
are gathered in bulk only, through :meth:`DirectedGraph.out_edge_slots`.
On top of it this module provides directed edge betweenness (Brandes-style
accumulation) and the leading eigenpair of the adjacency matrix via power
iteration.  Id text is parsed only in :mod:`~cascadecut.ingest`.

Graphs are immutable after construction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

import numpy as np

from .errors import ConvergenceError, InputError

DEFAULT_TOLERANCE = 1e-9
DEFAULT_MAX_ITERATIONS = 10_000

# Ids of at most this many decimal digits are read as int64.
MAX_DIGITS = 18
_POWERS = 10 ** np.arange(MAX_DIGITS + 1, dtype=np.int64)

# The dtype of every index array: dense node ids, follow-edge positions, CSR
# offsets, participant slots, and cascade, user and ranking codes.  Id values,
# packed keys, times, ranks and sizes, and the arrays written out, stay int64.
INDEX = np.int64

# Iterations without residual improvement before the undamped power phase is
# declared stalled (periodic structure) and restarted with a diagonal shift.
_STALL_WINDOW = 100


class DirectedGraph:
    """Directed graph over dense node ids 0..n-1 with an external-id table.

    Build one with :func:`~cascadecut.ingest.read_network`, which also reads
    a list of edge lines; the constructor checks that the ids and edge
    arrays are canonical (see :func:`_check_ids` and :func:`_check_canonical`),
    counts the sources into offsets and keeps only the destinations and
    offsets.  The external ids are sorted distinct strings, kept as a
    tuple, or an int64 array of plain decimal ids (see
    :func:`~cascadecut.ingest._id_column`) in the same text order, whose
    strings are built on first use.  Ids are looked up by ranking them with
    the node ids (see :meth:`indices_of`), so the graph holds no lookup table.
    """

    __slots__ = ("_ids", "_values", "_edge_dst", "_fwd_indptr", "_fingerprint")

    def __init__(self, external_ids: tuple[str, ...] | np.ndarray, edge_src: np.ndarray, edge_dst: np.ndarray):
        if not isinstance(external_ids, np.ndarray):
            external_ids = tuple(external_ids)  # a copy of a list, which its owner may still change
        _check_ids(external_ids)
        if isinstance(external_ids, np.ndarray):
            self._ids, self._values = None, external_ids
            self._values.flags.writeable = False
        else:
            self._ids, self._values = external_ids, None
        n = len(external_ids)
        _check_canonical(edge_src, edge_dst, n)
        self._edge_dst = edge_dst
        self._fwd_indptr = _indptr(edge_src, n)
        self._fingerprint = None
        for arr in (self._edge_dst, self._fwd_indptr):
            arr.flags.writeable = False

    # ---- identity -------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._ids if self._values is None else self._values)

    @property
    def edge_count(self) -> int:
        return int(self._edge_dst.size)

    @property
    def external_ids(self) -> tuple[str, ...]:
        """External ids in dense-id order (sorted lexicographically)."""
        if self._ids is None:
            self._ids = id_strings(self._values)
        return self._ids

    @property
    def fingerprint(self) -> str:
        """Hex ``blake2b`` digest of the node ids, the edge sources and the
        edge destinations, computed once.

        Graphs with equal ids and edges have equal fingerprints; a changed,
        added or removed id or edge changes it.  Ids held as integers are
        hashed from their digits, with the same digest as their strings.
        The sources are rebuilt by :meth:`edge_sources` for the hash.
        """
        if self._fingerprint is None:
            from hashlib import blake2b

            # Lengths in characters split the joined ids unambiguously, and
            # the leading counts fix where each part ends.
            if self._values is None:
                text = "".join(self._ids).encode("utf-8", "surrogatepass")
                lengths = np.fromiter(map(len, self._ids), dtype=np.int64, count=len(self._ids))
            else:
                lengths = digit_counts(self._values)
                text = _digit_text(self._values, lengths)
            digest = blake2b(np.array([lengths.size, len(text), self.edge_count], dtype=np.int64), digest_size=32)
            digest.update(lengths)
            digest.update(text)
            # The edge arrays' int64 bytes: a narrower INDEX must hash them widened, or every cache header changes.
            digest.update(self.edge_sources())
            digest.update(self._edge_dst)
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def indices_of(self, external_ids: Iterable[str] | np.ndarray) -> np.ndarray:
        """Dense id of each external id, -1 where it is not a node.

        ``external_ids`` are strings, read as int64 by
        :func:`~cascadecut.ingest.decimal_values` against int64 node ids, or
        an int64 array of plain decimal ids.  The node ids and the queries
        are ranked together, as ingest ranks an id column (see
        :func:`~cascadecut.ingest._id_codes`), and each query takes the
        dense id of the node of its rank.
        """
        from .ingest import _id_codes, decimal_values

        if isinstance(external_ids, np.ndarray):
            if external_ids.dtype != np.int64:
                raise InputError(f"external ids must be strings or int64 values, not {external_ids.dtype}")
            queries = external_ids
        else:
            queries = list(external_ids)
            if not all(map(isinstance, queries, repeat(str))):
                raise InputError("external ids must be strings or int64 values")
            values = None if self._values is None else decimal_values(queries)
            queries = queries if values is None else values
        nodes = list(self._ids) if self._values is None else self._values
        n = len(nodes)
        ids, codes = _id_codes([nodes, queries], n + len(queries))
        node = np.full(len(ids), -1, dtype=INDEX)
        node[codes[:n]] = np.arange(n)
        return node[codes[n:]]

    # ---- edges and degrees ------------------------------------------------

    def edge_sources(self) -> np.ndarray:
        """The source of each canonical edge, rebuilt from the offsets: a new
        edge-sized array on every call."""
        return np.repeat(np.arange(self.node_count, dtype=INDEX), self.out_degrees)

    @property
    def edge_dst_indices(self) -> np.ndarray:
        return self._edge_dst

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self._fwd_indptr)

    @property
    def in_degrees(self) -> np.ndarray:
        return np.bincount(self._edge_dst, minlength=self.node_count)

    # ---- bulk adjacency access ---------------------------------------------

    def out_edge_slots(self, node_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All out-edges of the given nodes: (slot, edge positions).

        ``slot`` is the index into ``node_indices`` of each edge's source, so
        repeated nodes get their edges once per occurrence.  Edge positions
        index into the canonical edge arrays, ascending per source.
        """
        return _slice_gather(self._fwd_indptr, node_indices)

    def __repr__(self) -> str:
        return f"DirectedGraph(nodes={self.node_count}, edges={self.edge_count})"


@dataclass(frozen=True)
class EigenPair:
    """Leading eigenpair of an adjacency matrix.

    Both vectors have unit Euclidean norm; ``residual`` is
    ``||A @ right_vector - eigenvalue * right_vector||_2``.
    """

    eigenvalue: float
    left_vector: np.ndarray
    right_vector: np.ndarray
    iterations: int
    residual: float


def id_strings(ids: np.ndarray) -> tuple[str, ...]:
    """Plain decimal int64 ``ids`` as their strings."""
    return tuple(map(str, ids.tolist()))


def digit_counts(values: np.ndarray) -> np.ndarray:
    """The digit count of each plain decimal int64 value."""
    return np.searchsorted(_POWERS[1:], values, side="right") + 1


def _digit_text(values: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """The ASCII text of plain decimal ``values`` joined, as uint8, given
    their ``digits``: each group of one digit count is written a digit
    column at a time, last digit first."""
    ends = np.cumsum(digits)
    text = np.empty(int(ends[-1]) if ends.size else 0, dtype=np.uint8)
    counts = np.bincount(digits)
    for length in np.flatnonzero(counts).tolist():
        group = None if counts[length] == values.size else np.flatnonzero(digits == length)
        rest = values if group is None else values[group]
        at = (ends if group is None else ends[group]) - 1
        for _ in range(length):
            rest, digit = np.divmod(rest, 10)
            digit += ord("0")
            text[at] = digit
            at -= 1
    return text


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by sort and neighbour comparison; sorts ``values`` in place.

    numpy's own ``unique`` may take a hash path that is far slower on int64.
    """
    values.sort()
    return values[_run_starts(values)]


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """One bool per element: whether it starts a run of equal values, so the first always does."""
    starts = np.empty(sorted_values.size, dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=starts[1:])
    return starts


def betweenness_scores(graph: DirectedGraph) -> np.ndarray:
    """Edge betweenness aligned with the canonical edge order of ``graph``.

    Score of an edge is the sum over ordered node pairs (s, t) of the
    fraction of shortest s->t paths passing through the edge.  Sources are
    accumulated one at a time in dense-id order, so the floating-point sums,
    and the plans ranked by them, are the same on every run.
    """
    if graph.node_count == 0:
        raise InputError("betweenness requires a nonempty graph")
    scores = np.zeros(graph.edge_count)
    # Workspace reused across sources; only entries touched by a BFS are
    # reset afterwards, so sparse passes stay cheap.
    depth = np.full(graph.node_count, -1, dtype=INDEX)
    sigma = np.zeros(graph.node_count)
    delta = np.zeros(graph.node_count)
    for s in range(graph.node_count):
        _accumulate_source(graph, s, scores, depth, sigma, delta)
    return scores


def _accumulate_source(graph, source, scores, depth, sigma, delta) -> None:
    """One Brandes pass: BFS path counts, then dependency back-propagation
    over the shortest-path DAG edges that the BFS recorded."""
    depth[source] = 0
    sigma[source] = 1.0
    frontier = np.array([source], dtype=INDEX)
    layers = [frontier]
    dag = []  # per level: the DAG edges' (v, w, edge position), by (v, w)
    level = 0
    while True:
        slot, pos = graph.out_edge_slots(frontier)
        dsts = graph.edge_dst_indices[pos]
        new_nodes = _sorted_unique(dsts[depth[dsts] == -1])
        if new_nodes.size == 0:
            break
        depth[new_nodes] = level + 1
        on_dag = depth[dsts] == level + 1
        v, w = frontier[slot[on_dag]], dsts[on_dag]
        np.add.at(sigma, w, sigma[v])
        dag.append((v, w, pos[on_dag]))
        layers.append(new_nodes)
        frontier = new_nodes
        level += 1
    # DAG edges connect consecutive BFS levels, so walking the levels
    # deepest-first sees every delta(w) fully accumulated.  The frontier is
    # sorted and each node's out-edges ascend, so each delta(v) sums its
    # contributions in ascending w; an edge is on the DAG at one level only.
    for v, w, pos in reversed(dag):
        contrib = sigma[v] / sigma[w] * (1.0 + delta[w])
        scores[pos] += contrib
        np.add.at(delta, v, contrib)
    for layer in layers:
        depth[layer] = -1
        sigma[layer] = 0.0
        delta[layer] = 0.0


def leading_eigenpair(
    graph: DirectedGraph,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> EigenPair:
    """Largest-magnitude eigenvalue of the adjacency matrix with its vectors.

    Power iteration from the uniform positive start vector, normalised each
    step; the right vector iterates A, the left vector A^T.  If the plain
    iteration stalls on a periodic structure, it restarts once with a
    diagonal shift A + eI, which moves every eigenvalue by exactly e and
    leaves eigenvectors (and the reported residual) unchanged.

    Raises :class:`ConvergenceError` carrying the best residual when the
    iteration budget runs out.
    """
    if graph.edge_count == 0:
        raise InputError("leading eigenpair requires at least one edge")
    if tolerance <= 0:
        raise InputError("tolerance must be positive")
    if max_iterations < 1:
        raise InputError("max_iterations must be >= 1")
    n = graph.node_count
    src, dst = graph.edge_sources(), graph.edge_dst_indices

    def matvec_right(x: np.ndarray) -> np.ndarray:
        return np.bincount(src, weights=x[dst], minlength=n)

    def matvec_left(x: np.ndarray) -> np.ndarray:
        return np.bincount(dst, weights=x[src], minlength=n)

    value, right, right_iters, right_residual = _power(matvec_right, n, tolerance, max_iterations)
    _, left, left_iters, _ = _power(matvec_left, n, tolerance, max_iterations)
    return EigenPair(
        eigenvalue=value,
        left_vector=left,
        right_vector=right,
        iterations=max(right_iters, left_iters),
        residual=right_residual,
    )


def _power(matvec, n: int, tolerance: float, max_iterations: int):
    """Power iteration returning (eigenvalue, unit vector, iterations, residual).

    The plain iteration gets half the budget (at least one step) and stops
    early once ``_STALL_WINDOW`` steps pass without a 0.1% residual
    improvement.  The rest of the budget restarts it once from the start
    vector with the shift max(1, eigenvalue estimate) / 2, without a stall
    check.  The reported best residual is the lower of the two phases'.
    """
    start = x = np.full(n, 1.0 / math.sqrt(n))
    plain_end = max(1, max_iterations // 2)
    shift = 0.0  # >= 0.5 once restarted
    best = plain_best = math.inf
    last_improvement = 0
    for step in range(1, max_iterations + 1):
        y = matvec(x)
        if shift:
            y = y + shift * x
        norm_y = _norm(y)
        if norm_y == 0.0:
            # x is an exact null vector: eigenvalue 0 with zero residual.
            return 0.0, x, step, 0.0
        value = float(np.add.reduce(x * y)) - shift
        residual = _norm(y - (value + shift) * x)
        if residual <= tolerance:
            return value, x, step, residual
        if residual < best * (1.0 - 1e-3):
            best = residual
            last_improvement = step
        if not shift and (step == plain_end or step - last_improvement >= _STALL_WINDOW):
            x, shift = start, max(1.0, value) / 2.0
            plain_best, best = best, math.inf
        else:
            x = y / norm_y
    best = min(plain_best, best)
    raise ConvergenceError(
        f"power iteration did not reach tolerance {tolerance:g} within "
        f"{max_iterations} iterations (best residual {best:.3e})",
        best_residual=best,
        iterations=max_iterations,
    )


def _norm(v: np.ndarray) -> float:
    # A plain reduction, not np.linalg.norm: BLAS splits a norm or dot of
    # this length across threads, which stalls whenever the machine is busy.
    return math.sqrt(np.add.reduce(v * v))


def _check_canonical(src: np.ndarray, dst: np.ndarray, n: int) -> None:
    """Raise :class:`InputError` unless ``src`` and ``dst`` are canonical
    edge arrays over ``n`` nodes: 1-d, of equal length and of an integer
    dtype within int64, every id in ``[0, n)``, no self-loop, sources
    non-decreasing and destinations strictly increasing within each source."""
    if src.ndim != 1 or dst.ndim != 1 or src.size != dst.size:
        raise InputError("edge arrays must be 1-d and of equal length")
    if not all(arr.dtype.kind in "iu" and np.can_cast(arr.dtype, np.int64) for arr in (src, dst)):
        raise InputError(f"edge arrays must be of an integer dtype within int64, not {src.dtype} and {dst.dtype}")
    if not src.size:
        return
    if (src[1:] < src[:-1]).any():
        raise InputError("edge sources must be non-decreasing")
    # Sorted sources have their least and greatest at the ends.
    if src[0] < 0 or src[-1] >= n or dst.min() < 0 or dst.max() >= n:
        raise InputError(f"edge endpoints must be node ids in [0, {n})")
    if (src == dst).any():
        raise InputError("edges must not be self-loops")
    if ((src[1:] == src[:-1]) & (dst[1:] <= dst[:-1])).any():
        raise InputError("edge destinations must strictly increase within each source")


def _check_ids(ids: tuple[str, ...] | np.ndarray) -> None:
    """Raise :class:`InputError` unless ``ids`` strictly increase in text
    order: strings, or int64 plain decimals compared by their digits padded
    to full width, then the shorter first (as ingest ranks them)."""
    if not isinstance(ids, np.ndarray):
        if not all(map(isinstance, ids, repeat(str))):
            raise InputError("external ids must be strings or an int64 array")
        if not all(map(operator.lt, ids, ids[1:])):
            raise InputError("external ids must be distinct and sorted")
        return
    if ids.dtype != np.int64 or ids.ndim != 1 or ids.size and not (0 <= ids.min() and ids.max() < _POWERS[MAX_DIGITS]):
        raise InputError("integer external ids must be plain decimals in a 1-d int64 array")
    digits = digit_counts(ids)
    key = ids * _POWERS[MAX_DIGITS - digits]
    if not ((key[1:] > key[:-1]) | (key[1:] == key[:-1]) & (digits[1:] > digits[:-1])).all():
        raise InputError("external ids must be distinct and sorted")


def _indptr(endpoint_ids: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n + 1, dtype=INDEX)
    np.cumsum(np.bincount(endpoint_ids, minlength=n), out=out[1:])
    return out


def _slice_gather(indptr: np.ndarray, node_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand CSR slices for many nodes at once.

    Returns (each node's index into ``node_indices``, repeated per its slice
    length; flat positions into the data array backing ``indptr``).
    """
    node_indices = np.asarray(node_indices, dtype=INDEX)
    starts = indptr[node_indices]
    counts = indptr[node_indices + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=INDEX), np.empty(0, dtype=INDEX)
    rep = np.repeat(np.arange(node_indices.size, dtype=INDEX), counts)
    exclusive = np.concatenate((np.zeros(1, dtype=INDEX), np.cumsum(counts)[:-1]))
    pos = np.repeat(starts - exclusive, counts) + np.arange(total, dtype=INDEX)
    return rep, pos
