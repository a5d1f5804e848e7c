"""Immutable directed graph with the analytics the rest of the package consumes.

A :class:`DirectedGraph` maps opaque string node ids onto dense integers
(sorted by external id, so builds are reproducible) and stores the edge set
in compressed sparse form, forward on construction and reverse (with the id
lookup tables) on first use.  Plain decimal ids may be held as int64
values, whose strings are built only when asked for.  Nodes and edges are
addressed by dense id and canonical edge position; external ids are looked
up in bulk only, through :meth:`DirectedGraph.indices_of`.  On top of it
this module provides directed edge betweenness (Brandes-style
accumulation) and the leading eigenpair of the adjacency matrix via power
iteration.  It also holds the one scanner of id text (:func:`_token_bounds`),
which the file readers and :func:`decimal_values` share.

Graphs are immutable after construction.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, InputError

logger = logging.getLogger(__name__)

DEFAULT_TOLERANCE = 1e-9
DEFAULT_MAX_ITERATIONS = 10_000

# Ids of at most this many decimal digits are read as int64.
MAX_DIGITS = 18
_POWERS = 10 ** np.arange(MAX_DIGITS + 1, dtype=np.int64)
# decimal_values checks and parses this many tokens at a time.
_TOKEN_CHUNK = 1 << 16

# Iterations without residual improvement before the undamped power phase is
# declared stalled (periodic structure) and restarted with a diagonal shift.
_STALL_WINDOW = 100


class DirectedGraph:
    """Directed graph over dense node ids 0..n-1 with an external-id table.

    Build one with :func:`~cascadecut.ingest.read_network`, which also reads
    a list of edge lines; the constructor assumes canonical (deduplicated,
    self-loop-free, sorted) edge arrays.  The external ids
    are a tuple of strings, or an int64 array of plain decimal ids (see
    :func:`decimal_values`) in the same text order, whose strings are built
    on first use.  The reverse CSR and the id lookup tables are built on
    first use too, so a caller that never reads in-edges or looks ids up
    pays for neither.
    """

    __slots__ = (
        "_ids", "_values", "_edge_src", "_edge_dst", "_fwd_indptr", "_reverse", "_index", "_decimal", "_fingerprint"
    )

    def __init__(self, external_ids: tuple[str, ...] | np.ndarray, edge_src: np.ndarray, edge_dst: np.ndarray):
        if isinstance(external_ids, np.ndarray):
            self._ids, self._values = None, external_ids
            self._values.flags.writeable = False
        else:
            self._ids, self._values = external_ids, None
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
            n = np.int64(self.node_count)
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
            self._index = {ext: i for i, ext in enumerate(self.external_ids)}
        return self._index

    def _decimal_index(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(int64 ids in numeric order, their dense ids) when every external
        id is a plain decimal (see :func:`decimal_values`), else None."""
        if self._decimal is None:
            values = self._values if self._values is not None else decimal_values(self._ids)
            if values is None:
                self._decimal = ()
            else:
                order = np.argsort(values)
                self._decimal = (values[order], order)
        return self._decimal or None

    # ---- identity -------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._ids if self._values is None else self._values)

    @property
    def edge_count(self) -> int:
        return int(self._edge_src.size)

    @property
    def external_ids(self) -> tuple[str, ...]:
        """External ids in dense-id order (sorted lexicographically)."""
        if self._ids is None:
            self._ids = id_strings(self._values)
        return self._ids

    @property
    def fingerprint(self) -> str:
        """Hex ``blake2b`` digest of the node ids and both edge arrays, computed once.

        Graphs with equal ids and edges have equal fingerprints; a changed,
        added or removed id or edge changes it.  Ids held as integers are
        hashed from their digits, with the same digest as their strings.
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
            digest.update(self._edge_src)
            digest.update(self._edge_dst)
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def indices_of(self, external_ids: Iterable[str] | np.ndarray) -> np.ndarray:
        """Dense id of each external id, -1 where it is not a node.

        ``external_ids`` are strings, or an int64 array of plain decimal ids
        (see :func:`decimal_values`).  When the node ids and the queries are
        all plain decimals, the queries are found as integers (see
        :meth:`_find`); otherwise each one is looked up in a dict.
        """
        decimal = self._decimal_index()
        if isinstance(external_ids, np.ndarray):
            if decimal is not None:
                return self._find(external_ids)
            queries = id_strings(external_ids)
        else:
            queries = external_ids if isinstance(external_ids, (list, tuple)) else list(external_ids)
            values = None if decimal is None else decimal_values(queries)
            if values is not None:
                return self._find(values)
        index = self._id_index()
        return np.fromiter(map(index.get, queries, repeat(-1)), dtype=np.int64, count=len(queries))

    def _find(self, values: np.ndarray) -> np.ndarray:
        """Dense id of each int64 id in ``values``, -1 where it is not a node.

        The values are sorted and each distinct one is found by binary
        search in the numerically sorted ids; in random order the search
        would cost a mispredicted branch per step.
        """
        numeric, dense = self._decimal_index()
        found = np.full(values.size, -1, dtype=np.int64)
        if not numeric.size or not values.size:
            return found
        order = np.argsort(values)
        wanted = values[order]
        new = np.empty(wanted.size, dtype=bool)
        new[0] = True
        np.not_equal(wanted[1:], wanted[:-1], out=new[1:])
        wanted = wanted[new]
        at = np.searchsorted(numeric, wanted)
        np.minimum(at, numeric.size - 1, out=at)
        distinct = np.where(numeric[at] == wanted, dense[at], -1)
        found[order] = distinct[np.cumsum(new) - 1]
        return found

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
        return np.bincount(self._edge_dst, minlength=self.node_count)

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


def sorted_codes(tokens: Iterable[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Distinct ids of ``tokens`` in sorted order, and each token's index into them.

    ``tokens`` is consumed once, as a stream.
    """
    # Intern ids in first-seen order while the tokens stream by, then sort the
    # id table once and remap the codes to sorted order.
    index = _Interner()
    codes = np.fromiter(map(index.__getitem__, tokens), dtype=np.int64)
    ids = tuple(sorted(index))
    n = len(ids)
    rank = np.empty(n, dtype=np.int64)
    rank[np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=n)] = np.arange(n)
    return ids, rank[codes]


def decimal_values(tokens: Sequence[str]) -> np.ndarray | None:
    """``tokens`` as int64 values when every one is a plain decimal, else None.

    A plain decimal is 1 to ``MAX_DIGITS`` ASCII digits with no sign and no
    leading zero, so its value prints back as its text and numeric order
    decides text order within one digit count.  Tokens are joined one per
    line, a chunk at a time, which keeps the temporaries small, and read by
    :func:`_token_bounds`.
    """
    parts = [np.empty(0, dtype=np.int64)]
    for start in range(0, len(tokens), _TOKEN_CHUNK):
        chunk = tokens[start : start + _TOKEN_CHUNK]
        try:
            text = "\n".join(chunk)
        except TypeError:
            return None
        bounds = _token_bounds(text, 1, digits=True)
        if bounds is None:
            return None
        data, starts, ends, _ = bounds
        lengths = ends - starts
        # All but the line ends are digits, and no line is empty.
        if starts.size != len(chunk) or int(lengths.sum()) != len(text) - len(chunk) + 1:
            return None
        part = _decimals(data, starts, lengths, leading_zeros=False)
        if part is None:
            return None
        parts.append(part)
    return np.concatenate(parts)


def _token_bounds(block: str, width: int, digits: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, int] | None:
    """The UTF-8 bytes of a regular ``block``, the start and end offsets of
    its tokens into them and the count of its line ends, or None when the
    block is not regular.

    A block is regular when every byte is a token byte, space, tab or
    newline, and every non-blank line holds ``width`` tokens.  A token byte
    is a digit with ``digits``, else any byte above space but ``#`` and
    DEL, so non-ASCII text is token bytes.  The bytes are the block's
    between two added line ends, so every token starts and ends inside
    them.  This is the one scanner of id text: the bulk edge and event
    readers and :func:`decimal_values` use it.
    """
    data = np.frombuffer(f"\n{block}\n".encode("utf-8", "surrogatepass"), dtype=np.uint8)
    if digits:
        token = data >= ord("0")
        token &= data <= ord("9")
    else:
        token = data > ord(" ")
        token &= data != 0x7F
        token &= data != ord("#")
    newline = data == ord("\n")
    token_bytes = np.count_nonzero(token)
    blanks = np.count_nonzero(data == ord(" ")) + np.count_nonzero(data == ord("\t"))
    line_ends = int(np.count_nonzero(newline))
    if token_bytes + blanks + line_ends != data.size:
        return None
    # The mask changes at every token's start and end, in turn.
    bounds = np.flatnonzero(token[1:] != token[:-1])
    bounds += 1
    starts, ends = bounds[0::2], bounds[1::2]
    tokens = starts.size
    if tokens:
        # breaks[i]: whether a line end lies between tokens i and i + 1.
        if ends[-1] - starts[0] - token_bytes == tokens - 1:  # every gap is one byte
            breaks = data[ends[:-1]] == ord("\n")
        else:
            breaks = np.logical_or.reduceat(newline[: ends[-1]], ends[:-1])
        # A break after every width-th token and nowhere else; with a last
        # line of fewer tokens there would be one break too many.
        if np.count_nonzero(breaks) != tokens // width - 1 or not breaks[width - 1 :: width].all():
            return None
    return data, starts, ends, line_ends - 2


def _token_strings(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """The tokens of ``data`` (see :func:`_token_bounds`) from ``starts`` to
    ``ends``, as strings; no other token becomes a string."""
    # Each token's bytes and the blank after it are taken, and the blanks
    # become the line ends that split the text.
    cuts = np.empty(2 * starts.size + 2, dtype=np.int64)
    cuts[0], cuts[-1] = 0, data.size
    cuts[1:-1:2] = starts
    cuts[2:-1:2] = ends + 1
    taken = np.zeros(cuts.size - 1, dtype=bool)
    taken[1::2] = True
    text = data[np.repeat(taken, np.diff(cuts))]
    text[np.cumsum(ends - starts + 1) - 1] = ord("\n")
    return text.tobytes().decode("utf-8", "surrogatepass").split("\n")[:-1]


def _fold(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray, base: int, zero: int) -> tuple[np.ndarray, int]:
    """Each token's bytes less ``zero`` read as the digits of one number in
    ``base``, most significant first, and the largest digit met.

    Horner's rule runs over the tokens of one length at a time, a digit
    column at a time; it is exact while ``base ** length`` stays below
    2 ** 63.  A byte below ``zero`` wraps around to a digit above 200.
    """
    values = np.empty(starts.size, dtype=np.int64)
    top = 0
    counts = np.bincount(lengths)
    for length in np.flatnonzero(counts).tolist():
        group = None if counts[length] == starts.size else np.flatnonzero(lengths == length)
        at = starts.copy() if group is None else starts[group]
        value = np.zeros(at.size, dtype=np.int64)
        for _ in range(length):
            digit = data[at]
            digit -= zero
            top = max(top, int(digit.max()))
            value *= base
            value += digit
            at += 1
        if group is None:
            values = value
        else:
            values[group] = value
    return values, top


def _decimals(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray, leading_zeros: bool) -> np.ndarray | None:
    """The tokens' int64 values when each is 1 to ``MAX_DIGITS`` digits, with
    no leading zero unless ``leading_zeros``, else None."""
    if lengths.min(initial=1) < 1 or lengths.max(initial=0) > MAX_DIGITS:
        return None
    if not leading_zeros and ((data[starts] == ord("0")) & (lengths > 1)).any():
        return None
    values, top = _fold(data, starts, lengths, 10, ord("0"))
    return values if top <= 9 else None


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
    """Graph over sorted ``external_ids`` with the edges of :func:`edge_keys`.

    ``keys`` is overwritten with the sources, so no more than two
    edge-sized arrays are alive at a time.
    """
    n = np.int64(len(external_ids))
    dst = keys % n
    keys //= n
    return DirectedGraph(external_ids, keys, dst)


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
