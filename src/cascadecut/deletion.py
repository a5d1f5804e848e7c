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
only in the plan files of :func:`save_plan` and :func:`load_plan`.
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

    The full edge list (canonical order) is shuffled once with
    ``random.Random(rng_seed)``, so plans for different budgets under the
    same seed are prefixes of one permutation.
    """
    if k < 0:
        raise InputError("deletion budget k must be >= 0")
    order = list(range(network.edge_count))
    random.Random(rng_seed).shuffle(order)
    top = np.array(order[:k], dtype=np.int64)
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


def _ranked_plan(network: DirectedGraph, strategy: str, k: int, scores: np.ndarray) -> DeletionPlan:
    # Canonical edges are in (src, dst) order, so a stable sort breaks score
    # ties by (src, dst).
    top = np.argsort(-scores, kind="stable")[:k]
    return DeletionPlan(strategy, k, network, top, scores[top])
