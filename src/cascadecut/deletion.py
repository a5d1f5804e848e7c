"""Strategies for choosing which follow edges to delete.

Every strategy scores the follow network once and returns the ``k``
best-scoring edges, so a plan computed at a large budget can be reused for
every smaller budget by taking prefixes:

* ``netmelt``: score of edge (i, j) is left_vector[i] * right_vector[j] of
  the leading adjacency eigenpair, the first-order estimate of how much
  deleting the edge lowers the spectral radius.  One-shot scoring (no
  re-computation between deletions) keeps multi-million-edge budgets
  tractable; the plan's ``method`` property names the choice.
* ``betweenness``: descending directed edge betweenness.
* ``edge-degree``: score of (u, v) is in_degree(u) * out_degree(v).
* ``random``: a seeded Fisher-Yates shuffle of all edges, prefix taken.

Score ties are broken by (src, dst) order so plans are reproducible.
Plans hold the follow-edge positions of their network; external ids appear
only in the text plan files of :func:`save_plan` and :func:`load_plan`.
:func:`save_plan_cache` and :func:`read_plan_cache` keep the arrays in a
binary ``.npz`` file, with a header naming the network and the parameters
the plan was computed with.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import InputError, ParseError
from .graph import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    DirectedGraph,
    betweenness_scores,
    leading_eigenpair,
)

NETMELT = "netmelt"
BETWEENNESS = "betweenness"
EDGE_DEGREE = "edge-degree"
RANDOM = "random"
STRATEGIES = (NETMELT, BETWEENNESS, EDGE_DEGREE, RANDOM)

# Layout version of the .npz plan cache; a cache of another version is recomputed.
CACHE_FORMAT = 1

# random.Random draws an index below 2**32 from one 32-bit word.
MAX_RANDOM_EDGES = 2**32 - 1

# Fewest shuffle steps per chunk of rejection draws; see _swap_slots.
_MIN_CHUNK = 1024

_METHODS = {
    NETMELT: "one-shot-eigenscore",
    BETWEENNESS: "static-betweenness",
    EDGE_DEGREE: "degree-product",
    RANDOM: "seeded-shuffle",
}


@dataclass(frozen=True, eq=False)
class DeletionPlan:
    """An ordered selection of follow edges of one network to delete.

    ``edge_pos`` (int64) holds at most min(k, |E|) canonical edge positions
    of ``network``, in non-increasing ``scores`` (float64) order; -1 marks a
    loaded edge that is not in the network.  ``rng_seed`` is set only for the
    random strategy.  Plans are equal when strategy, k, seed and both arrays
    are; the network takes no part.
    """

    strategy: str
    k: int
    network: DirectedGraph = field(repr=False)
    edge_pos: np.ndarray = field(repr=False)
    scores: np.ndarray = field(repr=False)
    rng_seed: int | None = None

    def __post_init__(self):
        if self.k < 0:
            raise InputError("deletion budget k must be >= 0")
        pos = np.asarray(self.edge_pos, dtype=np.int64)
        scores = np.asarray(self.scores, dtype=np.float64)
        if pos.ndim != 1 or pos.shape != scores.shape:
            raise InputError("edge_pos and scores must be 1-d and of equal length")
        if pos.size and (pos.min() < -1 or pos.max() >= self.network.edge_count):
            raise InputError("edge_pos must hold edge positions of the network, or -1")
        if np.isnan(scores).any():
            raise InputError("scores must not be NaN")
        if (scores[1:] > scores[:-1]).any():
            raise InputError("scores must be non-increasing along the ranking")
        for name, arr in (("edge_pos", pos), ("scores", scores)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __eq__(self, other):
        if not isinstance(other, DeletionPlan):
            return NotImplemented
        return (
            (self.strategy, self.k, self.rng_seed) == (other.strategy, other.k, other.rng_seed)
            and np.array_equal(self.edge_pos, other.edge_pos)
            and np.array_equal(self.scores, other.scores)
        )

    @property
    def method(self) -> str:
        """How the strategy scores edges; follows from ``strategy``."""
        return _METHODS[self.strategy]

    @property
    def ranked_edges(self) -> tuple[tuple[str, str] | None, ...]:
        """The plan's edges as (src, dst) external ids, None where -1.

        A read-only view built on each access; the sweep reads ``edge_pos``.
        """
        ids = self.network.external_ids
        src, dst = self.network.edge_src_indices, self.network.edge_dst_indices
        return tuple((ids[src[p]], ids[dst[p]]) if p >= 0 else None for p in self.edge_pos.tolist())

    def prefix(self, k: int) -> "DeletionPlan":
        """The same ranking truncated to budget ``k``."""
        if k < 0:
            raise InputError("deletion budget k must be >= 0")
        return replace(self, k=k, edge_pos=self.edge_pos[:k], scores=self.scores[:k])


def plan_netmelt(
    network: DirectedGraph,
    k: int,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> DeletionPlan:
    """Top-k edges by the product of leading left/right eigenvector entries."""
    if k < 0:
        raise InputError("deletion budget k must be >= 0")
    if network.edge_count == 0:
        raise InputError("netmelt requires a network with at least one edge")
    if k == 0:
        return DeletionPlan(NETMELT, 0, network, [], [])
    pair = leading_eigenpair(network, tolerance=tolerance, max_iterations=max_iterations)
    scores = pair.left_vector[network.edge_src_indices] * pair.right_vector[network.edge_dst_indices]
    return _ranked_plan(network, NETMELT, k, scores)


def plan_betweenness(network: DirectedGraph, k: int) -> DeletionPlan:
    """Top-k edges by descending edge betweenness."""
    if k < 0:
        raise InputError("deletion budget k must be >= 0")
    if k == 0 or network.edge_count == 0:
        return DeletionPlan(BETWEENNESS, k, network, [], [])
    scores = betweenness_scores(network)
    return _ranked_plan(network, BETWEENNESS, k, scores)


def plan_edge_degree(network: DirectedGraph, k: int) -> DeletionPlan:
    """Top-k edges by in_degree(src) * out_degree(dst)."""
    if k < 0:
        raise InputError("deletion budget k must be >= 0")
    if k == 0 or network.edge_count == 0:
        return DeletionPlan(EDGE_DEGREE, k, network, [], [])
    scores = (
        network.in_degrees[network.edge_src_indices]
        * network.out_degrees[network.edge_dst_indices]
    ).astype(float)
    return _ranked_plan(network, EDGE_DEGREE, k, scores)


def plan_random(network: DirectedGraph, k: int, rng_seed: int) -> DeletionPlan:
    """Uniform sample of k edges without replacement, reproducible by seed.

    The plan is the first k of ``list(range(E))`` shuffled by
    ``random.Random(rng_seed).shuffle``, so plans for different budgets under
    the same seed are prefixes of one permutation.  It is computed from the
    same Mersenne Twister words without building the list; a network of more
    than ``MAX_RANDOM_EDGES`` edges, where a draw would take two words, is an
    :class:`InputError`.
    """
    if k < 0:
        raise InputError("deletion budget k must be >= 0")
    if network.edge_count > MAX_RANDOM_EDGES:
        raise InputError(f"random plans support at most {MAX_RANDOM_EDGES} edges, not {network.edge_count}")
    top = _shuffled_prefix(network.edge_count, k, random.Random(rng_seed))
    return DeletionPlan(RANDOM, k, network, top, np.zeros(top.size), rng_seed=rng_seed)


def plan_strategy(network: DirectedGraph, strategy: str, k: int, rng_seed: int = 0) -> DeletionPlan:
    """Dispatch to the named strategy."""
    if strategy == NETMELT:
        return plan_netmelt(network, k)
    if strategy == BETWEENNESS:
        return plan_betweenness(network, k)
    if strategy == EDGE_DEGREE:
        return plan_edge_degree(network, k)
    if strategy == RANDOM:
        return plan_random(network, k, rng_seed)
    raise InputError(f"unknown deletion strategy {strategy!r}; expected one of {STRATEGIES}")


def save_plan(plan: DeletionPlan, path: str | Path) -> None:
    """Write ``strategy,k,seed`` header plus ``src<TAB>dst<TAB>score`` lines.

    Ids come from the plan's network; a plan naming an edge outside it
    (edge position -1) cannot be written.
    """
    if (plan.edge_pos < 0).any():
        raise InputError(f"{path}: the plan names edges that are not in its network")
    network = plan.network
    ids = network.external_ids
    src = network.edge_src_indices[plan.edge_pos].tolist()
    dst = network.edge_dst_indices[plan.edge_pos].tolist()
    seed_text = "" if plan.rng_seed is None else str(plan.rng_seed)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{plan.strategy},{plan.k},{seed_text}\n")
        for s, d, score in zip(src, dst, plan.scores.tolist()):
            fh.write(f"{ids[s]}\t{ids[d]}\t{score!r}\n")


def load_plan(path: str | Path, network: DirectedGraph) -> DeletionPlan:
    """Read a plan written by :func:`save_plan` against ``network``.

    Each line's (src, dst) ids are looked up once in the network; an edge
    the network lacks gets position -1.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        parts = header.split(",")
        if len(parts) != 3:
            raise ParseError(f"{path}: line 1: bad plan header {header!r}")
        strategy, k_text, seed_text = parts
        if strategy not in STRATEGIES:
            raise ParseError(f"{path}: line 1: unknown strategy {strategy!r} in plan header")
        try:
            k = int(k_text)
            if k < 0:
                raise ValueError
        except ValueError:
            raise ParseError(f"{path}: line 1: bad budget {k_text!r} in plan header") from None
        try:
            seed = int(seed_text) if seed_text else None
        except ValueError:
            raise ParseError(f"{path}: line 1: bad seed {seed_text!r} in plan header") from None
        edges: list[tuple[str, str]] = []
        scores: list[float] = []
        previous = math.inf
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(f"{path}: line {lineno}: expected 3 fields, got {len(fields)}")
            if len(edges) == k:
                raise ParseError(f"{path}: line {lineno}: more plan edges than the header's budget {k}")
            try:
                score = float(fields[2])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: bad score {fields[2]!r}") from None
            # One comparison per line; it is false for NaN as well.
            if not score <= previous:
                if math.isnan(score):
                    raise ParseError(f"{path}: line {lineno}: score is NaN")
                raise ParseError(f"{path}: line {lineno}: score {score!r} rises above the previous {previous!r}")
            previous = score
            scores.append(score)
            edges.append((fields[0], fields[1]))
    pos = network.edge_positions(edges)
    return DeletionPlan(strategy, k, network, pos, np.array(scores, dtype=np.float64), rng_seed=seed)


def cache_header(strategy: str, k: int, rng_seed: int | None, network: DirectedGraph) -> dict:
    """The header a plan cache of these parameters carries.

    The seed is kept for the random strategy and the eigensolver settings
    for netmelt; the other entries are None.
    """
    from . import __version__

    netmelt = strategy == NETMELT
    return {
        "format": CACHE_FORMAT,
        "strategy": strategy,
        "k": k,
        "rng_seed": rng_seed if strategy == RANDOM else None,
        "tolerance": DEFAULT_TOLERANCE if netmelt else None,
        "max_iterations": DEFAULT_MAX_ITERATIONS if netmelt else None,
        "fingerprint": network.fingerprint,
        "version": __version__,
    }


def save_plan_cache(plan: DeletionPlan, path: str | Path) -> None:
    """Write the plan's arrays and :func:`cache_header` as an ``.npz`` file.

    The bytes depend only on the plan and its network: the archive's entry
    times are numpy's fixed ones and the header holds no time or path.
    """
    import json

    header = json.dumps(cache_header(plan.strategy, plan.k, plan.rng_seed, plan.network), sort_keys=True)
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(header), edge_pos=plan.edge_pos, scores=plan.scores)


def read_plan_cache(path: str | Path) -> tuple[dict, np.ndarray, np.ndarray]:
    """(header, edge_pos, scores) of a file written by :func:`save_plan_cache`.

    A file that is not such a cache is a :class:`ParseError`.  Whether the
    header matches a network and parameters is the caller's decision, and
    the arrays become a plan only through :class:`DeletionPlan`.
    """
    import json
    import zipfile

    with open(path, "rb") as fh:
        try:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with data:
                text, edge_pos, scores = data["header"], data["edge_pos"], data["scores"]
            if text.dtype.kind != "U" or text.ndim != 0:
                raise ValueError("the header is not a string")
            header = json.loads(text.item())
            if not isinstance(header, dict):
                raise ValueError("the header is not a JSON object")
            k = header.get("k")
            if type(k) is not int or k < 0:
                raise ValueError(f"bad budget {k!r} in the header")
            if edge_pos.dtype != np.int64 or scores.dtype != np.float64:
                raise ValueError(f"arrays of types {edge_pos.dtype} and {scores.dtype}, not int64 and float64")
        except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
            raise ParseError(f"{path}: not a plan cache: {exc}") from None
    return header, edge_pos, scores


def _ranked_plan(network: DirectedGraph, strategy: str, k: int, scores: np.ndarray) -> DeletionPlan:
    # Canonical edges are in (src, dst) order, so a stable sort breaks score
    # ties by (src, dst).  Below the full edge count only the edges scoring
    # at least the kth best, ties included, are sorted.
    neg = -scores
    if k < neg.size:
        kth = np.partition(neg, k - 1)[k - 1]
        # NaN compares false, so a NaN kth keeps every edge.
        candidates = np.flatnonzero(~(neg > kth))
        top = candidates[np.argsort(neg[candidates], kind="stable")[:k]]
    else:
        top = np.argsort(neg, kind="stable")
    return DeletionPlan(strategy, k, network, top, scores[top])


def _shuffled_prefix(size: int, k: int, rng: random.Random) -> np.ndarray:
    """``x[:k]`` of ``x = list(range(size))`` after ``rng.shuffle(x)``.

    Step i of the shuffle (i = size-1 down to 1) swaps slots i and j_i <= i,
    and no later step touches slot i.  So slot p ends with the value slot
    j_p held just before step p.  The steps before step p are those q > p.
    If some of them swapped with slot j_p, the smallest such q left there
    ``V(q)``, the value slot q held just before step q; else slot j_p still
    holds j_p.  ``V(q)`` follows the same rule from the smallest step above
    q that swapped with slot q, and is q if there is none.  A virtual step
    0 with j_0 = 0 gives slot 0 the same rule.
    """
    k = min(k, size)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    j = _swap_slots(size, rng)
    head = j[:k].copy()
    # Sorting (slot, step) keys groups the steps by the slot they swap with,
    # each group in step order.
    keys = j.astype(np.uint64)
    del j
    keys *= np.uint64(size)
    keys += np.arange(size, dtype=np.uint64)
    keys.sort()
    step = (keys % np.uint64(size)).view(np.int64)
    keys //= np.uint64(size)
    slot = keys.view(np.int64)
    del keys
    same = slot[1:] == slot[:-1]
    # after[p]: the smallest step above p that swaps with slot j_p.
    after = np.full(size, -1, dtype=np.int64)
    after[step[:-1]] = np.where(same, step[1:], -1)
    # into[q]: the smallest step that swaps with slot q.  Every q followed
    # below has j_q < q, so that step lies above q.
    starts = np.flatnonzero(np.r_[True, ~same])
    del same
    group_slot, group_step = slot[starts], step[starts]
    del slot, step, starts
    into = np.full(size, -1, dtype=np.int64)
    into[group_slot] = group_step
    del group_slot, group_step
    # Follow each chain from after[p] through ``into`` to a step q that no
    # step above it swapped with; V(q) is then q.
    active = np.flatnonzero(after[:k] >= 0)
    q = after[active]
    del after
    while active.size:
        nxt = into[q]
        done = nxt < 0
        head[active[done]] = q[done]
        active, q = active[~done], nxt[~done]
    return head


def _swap_slots(size: int, rng: random.Random) -> np.ndarray:
    """j_i of each shuffle step i = size-1 .. 1, in an int64 array with j_0 = 0.

    Step i draws ``rng._randbelow(i + 1)``: 32-bit words, each giving the
    candidate ``word >> (32 - b)`` for the bound's bit length b, until one
    is below the bound.  The words are read in bulk through
    ``getrandbits``, which takes them in stream order.  Within a chunk of
    steps sharing b, word t belongs to the step that follows the words
    accepted before it, so the acceptances solve ``accepted = r < bound -
    (accepted before t)``; each pass of the fixed point settles at least
    one more leading word.  Chunks of at most 2**b / 16 steps keep the
    undecided band of candidates narrow, so few passes are needed; below
    ``_MIN_CHUNK`` steps a chunk's passes cost less than the calls around
    them, so small bounds are taken a whole bit length at a time.
    """
    j = np.zeros(size, dtype=np.int64)
    words = np.empty(0, dtype=np.uint32)
    bound = size  # bound of the next step, i + 1
    while bound >= 2:
        b = bound.bit_length()
        steps = min(bound - (1 << (b - 1)) + 1, max(_MIN_CHUNK, (1 << b) >> 4))
        lowest = bound - steps + 1
        # Every candidate is accepted with probability >= lowest / 2**b.
        want = steps * (1 << b) // lowest + steps // 64 + 64
        while True:
            if words.size < want:
                more = want - words.size
                fresh = np.frombuffer(rng.getrandbits(32 * more).to_bytes(4 * more, "little"), dtype="<u4")
                words = np.concatenate((words, fresh))
            r = (words >> np.uint32(32 - b)).astype(np.int64)
            hits = np.flatnonzero(_accepted(r, bound, steps))
            if hits.size >= steps:
                break
            want = 2 * words.size
        hits = hits[:steps]
        j[bound - 1 : lowest - 2 : -1] = r[hits]
        words = words[hits[-1] + 1 :]
        bound = lowest - 1
    return j


def _accepted(r: np.ndarray, bound: int, steps: int) -> np.ndarray:
    """Which candidates ``r`` a rejection loop accepts when its bound starts
    at ``bound`` and drops by one per accepted candidate, for ``steps``
    acceptances; candidates after those meet the bound that follows."""
    accepted = r < bound
    while True:
        taken = np.cumsum(accepted)
        taken -= accepted
        np.minimum(taken, steps, out=taken)
        np.subtract(bound, taken, out=taken)
        settled = r < taken
        if np.array_equal(settled, accepted):
            return accepted
        accepted = settled
