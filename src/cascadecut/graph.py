"""Immutable directed graph with the analytics the rest of the package consumes.

A :class:`DirectedGraph` maps opaque string node ids onto dense integers
(sorted by external id, so builds are reproducible) and stores the edge set
in compressed sparse form, forward on construction and reverse (with the id
lookup tables) on first use.  Nodes and edges are addressed by dense id and
canonical edge position; external ids are looked up in bulk only, through
:meth:`DirectedGraph.indices_of` and :meth:`DirectedGraph.edge_positions`.
On top of it this module provides directed edge betweenness (Brandes-style
accumulation) and the leading eigenpair of the adjacency matrix via power
iteration.

Graphs are immutable after construction.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, InputError

logger = logging.getLogger(__name__)

DEFAULT_TOLERANCE = 1e-9
DEFAULT_MAX_ITERATIONS = 10_000

# Ids of at most this many decimal digits are read as int64.
MAX_DIGITS = 18
# decimal_values checks and parses this many tokens at a time.
_TOKEN_CHUNK = 1 << 16

# Iterations without residual improvement before the undamped power phase is
# declared stalled (periodic structure) and restarted with a diagonal shift.
_STALL_WINDOW = 100


class DirectedGraph:
    """Directed graph over dense node ids 0..n-1 with an external-id table.

    Construct through :func:`build_graph`; the constructor assumes canonical
    (deduplicated, self-loop-free, sorted) edge arrays.  The reverse CSR and
    the external-id lookup tables are built on first use, so a caller that
    never reads in-edges or looks ids up pays for neither.
    """

    __slots__ = ("_ids", "_edge_src", "_edge_dst", "_fwd_indptr", "_reverse", "_index", "_decimal", "_fingerprint")

    def __init__(self, external_ids: tuple[str, ...], edge_src: np.ndarray, edge_dst: np.ndarray):
        self._ids = external_ids
        self._edge_src = edge_src
        self._edge_dst = edge_dst
        self._fwd_indptr = _indptr(edge_src, len(external_ids))
        self._reverse = None
        self._index = None
        self._decimal = None
        self._fingerprint = None
        for arr in (self._edge_src, self._edge_dst, self._fwd_indptr):
            arr.flags.writeable = False

    def _reverse_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, sources, edge positions) of the in-edges, by (dst, src)."""
        if self._reverse is None:
            n = np.int64(len(self._ids))
            key = self._edge_dst * n
            key += self._edge_src
            # Edges are distinct, so the keys are too and any sort is stable.
            perm = np.argsort(key)
            del key
            self._reverse = (_indptr(self._edge_dst, n), self._edge_src[perm], perm)
            for arr in self._reverse:
                arr.flags.writeable = False
        return self._reverse

    def _id_index(self) -> dict[str, int]:
        """External id -> dense id."""
        if self._index is None:
            self._index = {ext: i for i, ext in enumerate(self._ids)}
        return self._index

    def _decimal_index(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(int64 ids in numeric order, their dense ids) when every external
        id is a plain decimal (see :func:`decimal_values`), else None."""
        if self._decimal is None:
            values = decimal_values(self._ids)
            if values is None:
                self._decimal = ()
            else:
                order = np.argsort(values)
                self._decimal = (values[order], order)
        return self._decimal or None

    # ---- identity -------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._ids)

    @property
    def edge_count(self) -> int:
        return int(self._edge_src.size)

    @property
    def external_ids(self) -> tuple[str, ...]:
        """External ids in dense-id order (sorted lexicographically)."""
        return self._ids

    @property
    def fingerprint(self) -> str:
        """Hex ``blake2b`` digest of the node ids and both edge arrays, computed once.

        Graphs with equal ids and edges have equal fingerprints; a changed,
        added or removed id or edge changes it.
        """
        if self._fingerprint is None:
            from hashlib import blake2b

            # Lengths in characters split the joined ids unambiguously, and
            # the leading counts fix where each part ends.
            text = "".join(self._ids).encode("utf-8", "surrogatepass")
            digest = blake2b(np.array([len(self._ids), len(text), self.edge_count], dtype=np.int64), digest_size=32)
            digest.update(np.fromiter(map(len, self._ids), dtype=np.int64, count=len(self._ids)))
            digest.update(text)
            digest.update(self._edge_src)
            digest.update(self._edge_dst)
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def indices_of(self, external_ids: Iterable[str]) -> np.ndarray:
        """Dense id of each external id, -1 where it is not a node.

        When the node ids and the queries are all plain decimals, the queries
        are parsed as integers and found by binary search in the numerically
        sorted ids; otherwise each one is looked up in a dict.
        """
        queries = external_ids if isinstance(external_ids, (list, tuple)) else list(external_ids)
        decimal = self._decimal_index()
        values = None if decimal is None else decimal_values(queries)
        if values is None:
            index = self._id_index()
            return np.fromiter(map(index.get, queries, repeat(-1)), dtype=np.int64, count=len(queries))
        if not self._ids:
            return np.full(values.size, -1, dtype=np.int64)
        numeric, dense = decimal
        at = np.searchsorted(numeric, values)
        np.minimum(at, numeric.size - 1, out=at)
        return np.where(numeric[at] == values, dense[at], -1)

    # ---- edges and degrees ------------------------------------------------

    @property
    def edge_src_indices(self) -> np.ndarray:
        return self._edge_src

    @property
    def edge_dst_indices(self) -> np.ndarray:
        return self._edge_dst

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self._fwd_indptr)

    @property
    def in_degrees(self) -> np.ndarray:
        return np.bincount(self._edge_dst, minlength=len(self._ids))

    # ---- bulk adjacency access ---------------------------------------------

    def out_edges_bulk(self, node_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All out-edges of the given nodes: (sources, targets, edge positions).

        Edge positions index into the canonical edge arrays.
        """
        rep, pos = _slice_gather(self._fwd_indptr, node_indices)
        return rep, self._edge_dst[pos], pos

    def out_edge_slots(self, node_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All out-edges of the given nodes: (slot, edge positions).

        ``slot`` is the index into ``node_indices`` of each edge's source, so
        repeated nodes get their edges once per occurrence.
        """
        return _slice_gather(self._fwd_indptr, node_indices, labels=np.arange(len(node_indices)))

    def in_edges_bulk(self, node_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All in-edges of the given nodes: (targets, sources, edge positions)."""
        indptr, sources, edge_pos = self._reverse_index()
        rep, pos = _slice_gather(indptr, node_indices)
        return rep, sources[pos], edge_pos[pos]

    def edge_positions(self, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
        """Canonical position of each (src, dst) external-id pair, -1 where absent."""
        if self.edge_count == 0:
            return np.full(len(pairs), -1, dtype=np.int64)
        n = len(self._ids)
        wanted = self.indices_of(list(map(itemgetter(0), pairs)))
        dst = self.indices_of(list(map(itemgetter(1), pairs)))
        unknown = (wanted < 0) | (dst < 0)
        # Canonical edges are sorted by (src, dst), so their codes are sorted.
        # Codes are built in place: plans and networks can be large.
        wanted *= n
        wanted += dst
        del dst
        codes = self._edge_src * n
        codes += self._edge_dst
        pos = np.searchsorted(codes, wanted)
        np.minimum(pos, codes.size - 1, out=pos)
        unknown |= codes[pos] != wanted
        pos[unknown] = -1
        return pos

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


def build_graph(
    edges: Iterable[Sequence[str]],
    nodes: Iterable[str] = (),
) -> DirectedGraph:
    """Build a graph from raw (src, dst) external-id pairs.

    ``edges`` may be any iterable of pairs, a one-shot stream included: it
    is consumed once and never held as a list.  Duplicate edges and
    self-loops are dropped.  ``nodes`` may list extra ids to include as
    isolated nodes.  Dense ids are assigned in sorted external-id order, so
    the same edge set always builds the same graph regardless of input
    ordering.
    """
    external_ids, codes = sorted_codes(chain.from_iterable(edges), nodes)
    if codes.size % 2:
        raise InputError("edges must be (src, dst) pairs")
    keys = edge_keys(codes, len(external_ids))
    del codes  # free the per-edge array before the graph allocates its own
    return graph_from_keys(external_ids, keys)


def sorted_codes(tokens: Iterable[str], extra: Iterable[str] = ()) -> tuple[tuple[str, ...], np.ndarray]:
    """Distinct ids of ``tokens`` and ``extra`` in sorted order, and each token's index into them.

    ``tokens`` is consumed once, as a stream.
    """
    # Intern ids in first-seen order while the tokens stream by, then sort the
    # id table once and remap the codes to sorted order.
    index = _Interner()
    codes = np.fromiter(map(index.__getitem__, tokens), dtype=np.int64)
    for ext in extra:
        index.setdefault(ext, len(index))
    for ext in index:
        if not isinstance(ext, str):
            raise InputError(f"node ids must be strings, got {ext!r}")
    ids = tuple(sorted(index))
    n = len(ids)
    rank = np.empty(n, dtype=np.int64)
    rank[np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=n)] = np.arange(n)
    return ids, rank[codes]


def decimal_values(tokens: Sequence[str]) -> np.ndarray | None:
    """``tokens`` as int64 values when every one is a plain decimal, else None.

    A plain decimal is 1 to ``MAX_DIGITS`` ASCII digits with no sign and no
    leading zero, so its value prints back as its text and numeric order
    decides text order within one digit count.  Tokens are checked and
    parsed a chunk at a time, which keeps the temporaries small.
    """
    parts = [np.empty(0, dtype=np.int64)]
    for start in range(0, len(tokens), _TOKEN_CHUNK):
        part = _decimal_chunk(tokens[start : start + _TOKEN_CHUNK])
        if part is None:
            return None
        parts.append(part)
    return np.concatenate(parts)


def _decimal_chunk(tokens: Sequence[str]) -> np.ndarray | None:
    try:
        text = " ".join(tokens)
    except TypeError:
        return None
    if not text.isascii():
        return None
    data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    # Every token's length equals its digit count: the separators are the
    # only non-digits.
    cuts = np.flatnonzero((data < ord("0")) | (data > ord("9")))
    if cuts.size != len(tokens) - 1:
        return None
    starts = np.r_[0, cuts + 1]
    lengths = np.r_[cuts, data.size] - starts
    if lengths.min() < 1 or lengths.max() > MAX_DIGITS:
        return None
    if ((data[starts] == ord("0")) & (lengths > 1)).any():
        return None
    return np.fromstring(text, dtype=np.int64, sep=" ")


def edge_keys(codes: np.ndarray, n: int) -> np.ndarray:
    """Sorted distinct keys ``src * n + dst`` of flat (src, dst) codes, self-loops dropped.

    One key per edge makes dedup plus the (src, dst) sort a single pass.
    ``codes`` is overwritten: the keys are built in place in its src half.
    """
    src, dst = codes[0::2], codes[1::2]
    keep = src != dst
    src *= n
    src += dst
    return _sorted_unique(src[keep])


def graph_from_keys(external_ids: tuple[str, ...], keys: np.ndarray) -> DirectedGraph:
    """Graph over sorted ``external_ids`` with the edges of :func:`edge_keys`."""
    return DirectedGraph(external_ids, *np.divmod(keys, np.int64(len(external_ids))))


class _Interner(dict):
    """External id -> dense code; an unseen id gets the next code."""

    def __missing__(self, ext):
        code = self[ext] = len(self)
        return code


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by sort and neighbour comparison; sorts ``values`` in place.

    numpy's own ``unique`` may take a hash path that is far slower on int64.
    """
    values.sort()
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


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
    depth = np.full(graph.node_count, -1, dtype=np.int64)
    sigma = np.zeros(graph.node_count)
    delta = np.zeros(graph.node_count)
    for s in range(graph.node_count):
        _accumulate_source(graph, s, scores, depth, sigma, delta)
    return scores


def _accumulate_source(graph, source, scores, depth, sigma, delta) -> None:
    """One Brandes pass: BFS path counts, then dependency back-propagation."""
    depth[source] = 0
    sigma[source] = 1.0
    frontier = np.array([source], dtype=np.int64)
    layers = [frontier]
    level = 0
    while True:
        srcs, dsts, _ = graph.out_edges_bulk(frontier)
        if dsts.size == 0:
            break
        new_nodes = _sorted_unique(dsts[depth[dsts] == -1])
        depth[new_nodes] = level + 1
        on_dag = depth[dsts] == level + 1
        if on_dag.any():
            np.add.at(sigma, dsts[on_dag], sigma[srcs[on_dag]])
        if new_nodes.size == 0:
            break
        layers.append(new_nodes)
        frontier = new_nodes
        level += 1
    # Shortest-path DAG edges connect consecutive BFS layers, so walking the
    # layers deepest-first sees every delta(w) fully accumulated.
    for layer in layers[:0:-1]:
        targets, preds, edge_pos = graph.in_edges_bulk(layer)
        on_dag = depth[preds] == depth[targets] - 1
        if on_dag.any():
            v, w, pos = preds[on_dag], targets[on_dag], edge_pos[on_dag]
            contrib = sigma[v] / sigma[w] * (1.0 + delta[w])
            np.add.at(scores, pos, contrib)
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
    src, dst = graph.edge_src_indices, graph.edge_dst_indices

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
    """Power iteration returning (eigenvalue, unit vector, iterations, residual)."""
    plain_budget = max(1, max_iterations // 2)
    result = _power_phase(matvec, n, tolerance, plain_budget, shift=0.0, stall_window=_STALL_WINDOW)
    if result.converged:
        return result.value, result.vector, result.iterations, result.residual
    remaining = max_iterations - result.iterations
    if remaining > 0:
        shift = max(1.0, result.value) / 2.0
        damped = _power_phase(matvec, n, tolerance, remaining, shift=shift, stall_window=None)
        total = result.iterations + damped.iterations
        if damped.converged:
            return damped.value, damped.vector, total, damped.residual
        best = min(result.best_residual, damped.best_residual)
    else:
        total = result.iterations
        best = result.best_residual
    raise ConvergenceError(
        f"power iteration did not reach tolerance {tolerance:g} within "
        f"{max_iterations} iterations (best residual {best:.3e})",
        best_residual=best,
        iterations=total,
    )


class _PhaseResult:
    __slots__ = ("converged", "value", "vector", "iterations", "residual", "best_residual")

    def __init__(self, converged, value, vector, iterations, residual, best_residual):
        self.converged = converged
        self.value = value
        self.vector = vector
        self.iterations = iterations
        self.residual = residual
        self.best_residual = best_residual


def _power_phase(matvec, n, tolerance, budget, shift, stall_window):
    x = np.full(n, 1.0 / math.sqrt(n))
    best = math.inf
    value = 0.0
    last_improvement = 0
    for step in range(1, budget + 1):
        y = matvec(x)
        if shift:
            y = y + shift * x
        norm_y = _norm(y)
        if norm_y == 0.0:
            # x is an exact null vector: eigenvalue 0 with zero residual.
            return _PhaseResult(True, 0.0, x, step, 0.0, 0.0)
        value = float(np.add.reduce(x * y)) - shift
        residual = _norm(y - (value + shift) * x)
        if residual <= tolerance:
            return _PhaseResult(True, value, x, step, residual, residual)
        if residual < best * (1.0 - 1e-3):
            best = residual
            last_improvement = step
        if stall_window is not None and step - last_improvement >= stall_window:
            return _PhaseResult(False, value, x, step, residual, best)
        x = y / norm_y
    return _PhaseResult(False, value, x, budget, math.inf, best)


def _norm(v: np.ndarray) -> float:
    # A plain reduction, not np.linalg.norm: BLAS splits a norm or dot of
    # this length across threads, which stalls whenever the machine is busy.
    return math.sqrt(np.add.reduce(v * v))


def _indptr(endpoint_ids: np.ndarray, n: int) -> np.ndarray:
    counts = np.bincount(endpoint_ids, minlength=n) if endpoint_ids.size else np.zeros(n, dtype=np.int64)
    out = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _slice_gather(
    indptr: np.ndarray, node_indices: np.ndarray, labels: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Expand CSR slices for many nodes at once.

    Returns (node, or its entry of ``labels``, repeated per its slice
    length; flat positions into the data array backing ``indptr``).
    """
    node_indices = np.asarray(node_indices, dtype=np.int64)
    starts = indptr[node_indices]
    counts = indptr[node_indices + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rep = np.repeat(node_indices if labels is None else labels, counts)
    exclusive = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1]))
    pos = np.repeat(starts - exclusive, counts) + np.arange(total, dtype=np.int64)
    return rep, pos
