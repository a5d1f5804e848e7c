"""Immutable directed graph with the analytics the rest of the package consumes.

A :class:`DirectedGraph` maps opaque string node ids onto dense integers
(sorted by external id, so builds are reproducible) and stores the edge set
in compressed sparse form in both directions.  On top of it this module
provides BFS reachability, directed edge betweenness (Brandes-style
accumulation), and the leading eigenpair of the adjacency matrix via power
iteration.

Graphs are immutable after construction.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConvergenceError, InputError

logger = logging.getLogger(__name__)

DEFAULT_TOLERANCE = 1e-9
DEFAULT_MAX_ITERATIONS = 10_000

# Iterations without residual improvement before the undamped power phase is
# declared stalled (periodic structure) and restarted with a diagonal shift.
_STALL_WINDOW = 100


class DirectedGraph:
    """Directed graph over dense node ids 0..n-1 with an external-id table.

    Construct through :func:`build_graph`; the constructor assumes canonical
    (deduplicated, self-loop-free, sorted) edge arrays.
    """

    __slots__ = (
        "_ids",
        "_index",
        "_edge_src",
        "_edge_dst",
        "_fwd_indptr",
        "_rev_indptr",
        "_rev_sources",
        "_rev_edge_pos",
    )

    def __init__(self, external_ids: tuple[str, ...], edge_src: np.ndarray, edge_dst: np.ndarray):
        n = len(external_ids)
        self._ids = external_ids
        self._index = {ext: i for i, ext in enumerate(external_ids)}
        self._edge_src = edge_src
        self._edge_dst = edge_dst
        self._fwd_indptr = _indptr(edge_src, n)
        rev_perm = np.lexsort((edge_src, edge_dst))
        self._rev_indptr = _indptr(edge_dst, n)
        self._rev_sources = edge_src[rev_perm]
        self._rev_edge_pos = rev_perm
        for arr in (
            self._edge_src,
            self._edge_dst,
            self._fwd_indptr,
            self._rev_indptr,
            self._rev_sources,
            self._rev_edge_pos,
        ):
            arr.flags.writeable = False

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

    def has_node(self, external_id: str) -> bool:
        return external_id in self._index

    def index_of(self, external_id: str) -> int:
        try:
            return self._index[external_id]
        except KeyError:
            raise InputError(f"unknown node id {external_id!r}") from None

    def id_of(self, index: int) -> str:
        return self._ids[index]

    # ---- edges and degrees ------------------------------------------------

    def edges(self) -> Iterator[tuple[str, str]]:
        """All edges as external-id pairs, in canonical (src, dst) order."""
        ids = self._ids
        for s, d in zip(self._edge_src.tolist(), self._edge_dst.tolist()):
            yield ids[s], ids[d]

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
        return np.diff(self._rev_indptr)

    def out_degree(self, external_id: str) -> int:
        i = self.index_of(external_id)
        return int(self._fwd_indptr[i + 1] - self._fwd_indptr[i])

    def in_degree(self, external_id: str) -> int:
        i = self.index_of(external_id)
        return int(self._rev_indptr[i + 1] - self._rev_indptr[i])

    # ---- bulk adjacency access ---------------------------------------------

    def out_edges_bulk(self, node_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All out-edges of the given nodes: (sources, targets, edge positions).

        Edge positions index into the canonical edge arrays.
        """
        rep, pos = _slice_gather(self._fwd_indptr, node_indices)
        return rep, self._edge_dst[pos], pos

    def in_edges_bulk(self, node_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All in-edges of the given nodes: (targets, sources, edge positions)."""
        rep, pos = _slice_gather(self._rev_indptr, node_indices)
        return rep, self._rev_sources[pos], self._rev_edge_pos[pos]

    def edge_positions(self, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
        """Canonical position of each (src, dst) external-id pair, -1 where absent."""
        if self.edge_count == 0:
            return np.full(len(pairs), -1, dtype=np.int64)
        index, n = self._index, len(self._ids)
        wanted = np.fromiter((index.get(s, -1) for s, _ in pairs), dtype=np.int64, count=len(pairs))
        dst = np.fromiter((index.get(d, -1) for _, d in pairs), dtype=np.int64, count=len(pairs))
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
    # Intern ids in first-seen order while the pairs stream by, then sort the
    # id table once and remap the codes to sorted order.
    index = _Interner()
    codes = np.fromiter(map(index.__getitem__, chain.from_iterable(edges)), dtype=np.int64)
    if codes.size % 2:
        raise InputError("edges must be (src, dst) pairs")
    for ext in nodes:
        index.setdefault(ext, len(index))
    for ext in index:
        if not isinstance(ext, str):
            raise InputError(f"node ids must be strings, got {ext!r}")
    external_ids = tuple(sorted(index))
    n = len(external_ids)
    rank = np.empty(n, dtype=np.int64)
    rank[np.fromiter(map(index.__getitem__, external_ids), dtype=np.int64, count=n)] = np.arange(n)
    del index
    codes = rank[codes]
    src, dst = codes[0::2], codes[1::2]
    keep = src != dst
    # Encode pairs into one key so dedup + (src, dst) sort is a single pass.
    key = src[keep] * np.int64(n)
    key += dst[keep]
    del codes, src, dst, keep  # free the per-edge arrays before the dedup allocates its own
    src, dst = np.divmod(_sorted_unique(key), np.int64(n))
    return DirectedGraph(external_ids, src, dst)


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


def reachable_from(graph: DirectedGraph, sources: Iterable[str]) -> set[str]:
    """Sources plus every node reachable from them along directed edges."""
    src_list = list(sources)
    idx = np.fromiter((graph.index_of(s) for s in src_list), dtype=np.int64, count=len(src_list))
    mask = _reachable_mask(graph, idx)
    return {graph.id_of(i) for i in np.flatnonzero(mask).tolist()}


def _reachable_mask(graph: DirectedGraph, source_indices: np.ndarray) -> np.ndarray:
    visited = np.zeros(graph.node_count, dtype=bool)
    frontier = _sorted_unique(np.array(source_indices, dtype=np.int64))
    visited[frontier] = True
    while frontier.size:
        _, targets, _ = graph.out_edges_bulk(frontier)
        if targets.size == 0:
            break
        frontier = _sorted_unique(targets[~visited[targets]])
        visited[frontier] = True
    return visited


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


def edge_betweenness(graph: DirectedGraph) -> dict[tuple[str, str], float]:
    """Edge betweenness keyed by external-id pair.

    Convenience form of :func:`betweenness_scores`; prefer the array form
    when ranking millions of edges.
    """
    scores = betweenness_scores(graph)
    return {edge: float(score) for edge, score in zip(graph.edges(), scores.tolist())}


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
        norm_y = float(np.linalg.norm(y))
        if norm_y == 0.0:
            # x is an exact null vector: eigenvalue 0 with zero residual.
            return _PhaseResult(True, 0.0, x, step, 0.0, 0.0)
        value = float(x @ y) - shift
        residual = float(np.linalg.norm(y - (value + shift) * x))
        if residual <= tolerance:
            return _PhaseResult(True, value, x, step, residual, residual)
        if residual < best * (1.0 - 1e-3):
            best = residual
            last_improvement = step
        if stall_window is not None and step - last_improvement >= stall_window:
            return _PhaseResult(False, value, x, step, residual, best)
        x = y / norm_y
    return _PhaseResult(False, value, x, budget, math.inf, best)


def _indptr(endpoint_ids: np.ndarray, n: int) -> np.ndarray:
    counts = np.bincount(endpoint_ids, minlength=n) if endpoint_ids.size else np.zeros(n, dtype=np.int64)
    out = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _slice_gather(indptr: np.ndarray, node_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand CSR slices for many nodes at once.

    Returns (node repeated per its slice length, flat positions into the
    data array backing ``indptr``).
    """
    node_indices = np.asarray(node_indices, dtype=np.int64)
    starts = indptr[node_indices]
    counts = indptr[node_indices + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rep = np.repeat(node_indices, counts)
    exclusive = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1]))
    pos = np.repeat(starts - exclusive, counts) + np.arange(total, dtype=np.int64)
    return rep, pos
