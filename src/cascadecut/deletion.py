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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
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


@dataclass(frozen=True)
class DeletionPlan:
    """An ordered selection of follow edges to delete.

    ``ranked_edges`` holds at most min(k, |E|) edges in non-increasing score
    order; ``rng_seed`` is set only for the random strategy.
    """

    strategy: str
    k: int
    ranked_edges: tuple[tuple[str, str], ...]
    scores: tuple[float, ...]
    rng_seed: int | None = None

    def __post_init__(self):
        if self.k < 0:
            raise InputError("deletion budget k must be >= 0")
        if len(self.ranked_edges) != len(self.scores):
            raise InputError("ranked_edges and scores must have equal length")
        if len(self.scores) > 1:
            arr = np.asarray(self.scores)
            if (arr[1:] > arr[:-1]).any():
                raise InputError("scores must be non-increasing along the ranking")

    @property
    def method(self) -> str:
        """How the strategy scores edges; follows from ``strategy``."""
        return _METHODS[self.strategy]

    def prefix(self, k: int) -> "DeletionPlan":
        """The same ranking truncated to budget ``k``."""
        if k < 0:
            raise InputError("deletion budget k must be >= 0")
        cut = min(k, len(self.ranked_edges))
        return DeletionPlan(
            strategy=self.strategy,
            k=k,
            ranked_edges=self.ranked_edges[:cut],
            scores=self.scores[:cut],
            rng_seed=self.rng_seed,
        )


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
        return DeletionPlan(NETMELT, 0, (), ())
    pair = leading_eigenpair(network, tolerance=tolerance, max_iterations=max_iterations)
    scores = pair.left_vector[network.edge_src_indices] * pair.right_vector[network.edge_dst_indices]
    return _ranked_plan(network, NETMELT, k, scores)


def plan_betweenness(network: DirectedGraph, k: int) -> DeletionPlan:
    """Top-k edges by descending edge betweenness."""
    if k < 0:
        raise InputError("deletion budget k must be >= 0")
    if k == 0 or network.edge_count == 0:
        return DeletionPlan(BETWEENNESS, k, (), ())
    scores = betweenness_scores(network)
    return _ranked_plan(network, BETWEENNESS, k, scores)


def plan_edge_degree(network: DirectedGraph, k: int) -> DeletionPlan:
    """Top-k edges by in_degree(src) * out_degree(dst)."""
    if k < 0:
        raise InputError("deletion budget k must be >= 0")
    if k == 0 or network.edge_count == 0:
        return DeletionPlan(EDGE_DEGREE, k, (), ())
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
    cut = min(k, network.edge_count)
    ids = network.external_ids
    src, dst = network.edge_src_indices, network.edge_dst_indices
    ranked = tuple((ids[src[i]], ids[dst[i]]) for i in order[:cut])
    return DeletionPlan(RANDOM, k, ranked, (0.0,) * cut, rng_seed=rng_seed)


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
    """Write ``strategy,k,seed`` header plus ``src<TAB>dst<TAB>score`` lines."""
    seed_text = "" if plan.rng_seed is None else str(plan.rng_seed)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{plan.strategy},{plan.k},{seed_text}\n")
        for (src, dst), score in zip(plan.ranked_edges, plan.scores):
            fh.write(f"{src}\t{dst}\t{score!r}\n")


def load_plan(path: str | Path) -> DeletionPlan:
    """Read a plan written by :func:`save_plan`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        parts = header.split(",")
        if len(parts) != 3:
            raise ParseError(f"{path}: bad plan header {header!r}")
        strategy, k_text, seed_text = parts
        if strategy not in STRATEGIES:
            raise ParseError(f"{path}: unknown strategy {strategy!r} in plan header")
        try:
            k = int(k_text)
        except ValueError:
            raise ParseError(f"{path}: bad budget {k_text!r} in plan header") from None
        try:
            seed = int(seed_text) if seed_text else None
        except ValueError:
            raise ParseError(f"{path}: bad seed {seed_text!r} in plan header") from None
        ranked: list[tuple[str, str]] = []
        scores: list[float] = []
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(f"{path}: line {lineno}: expected 3 fields, got {len(fields)}")
            try:
                scores.append(float(fields[2]))
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: bad score {fields[2]!r}") from None
            ranked.append((fields[0], fields[1]))
    return DeletionPlan(
        strategy=strategy,
        k=k,
        ranked_edges=tuple(ranked),
        scores=tuple(scores),
        rng_seed=seed,
    )


def _ranked_plan(network: DirectedGraph, strategy: str, k: int, scores: np.ndarray) -> DeletionPlan:
    src, dst = network.edge_src_indices, network.edge_dst_indices
    order = np.lexsort((dst, src, -scores))
    top = order[: min(k, network.edge_count)]
    ids = network.external_ids
    ranked = tuple((ids[src[i]], ids[dst[i]]) for i in top.tolist())
    return DeletionPlan(
        strategy=strategy,
        k=k,
        ranked_edges=ranked,
        scores=tuple(float(scores[i]) for i in top.tolist()),
    )
