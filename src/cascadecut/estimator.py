"""Apply deletion plans to diffusion graphs and count who still gets reached.

A plan selects follow edges (u follows v); information moved the other way,
so deleting follow edge (u, v) blocks the diffusion edge (v, u).  The
estimate for a cascade after deletion is the number of nodes reachable from
the cascade's original seed set.  Seeds stay fixed even when a deletion
leaves other nodes with no incoming edge: such nodes are exactly the users
the deletion cut off.

Plan prefixes are nested, so :func:`estimate_budgets` gives the sizes at
every budget in one pass over integer edge arrays.  :func:`apply_deletion`
and :func:`estimate_size` are the direct form of a single budget point.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .deletion import DeletionPlan
from .diffusion import DiffusionGraph, build_variant
from .errors import InputError, InvariantError, ParseError
from .graph import DirectedGraph, build_graph, reachable_from

logger = logging.getLogger(__name__)

# Rank of a follow edge that no budget deletes.
NEVER_DELETED = np.iinfo(np.int64).max

REPORT_HEADER = ("strategy", "variant", "k", "cascade_id", "original_size", "estimated_size", "seed_count")


class CascadeResult(NamedTuple):
    cascade_id: str
    original_size: int
    estimated_size: int
    seed_count: int


@dataclass(frozen=True)
class EstimateReport:
    """Per-cascade and total post-deletion sizes for one (strategy, variant, k)."""

    strategy: str
    variant: str
    k: int
    per_cascade: tuple[CascadeResult, ...]
    total_original: int
    total_estimated: int

    def __post_init__(self):
        for row in self.per_cascade:
            if not (row.seed_count <= row.estimated_size <= row.original_size):
                raise InvariantError(
                    f"cascade {row.cascade_id}: expected seed_count <= estimated <= original, "
                    f"got {row.seed_count}/{row.estimated_size}/{row.original_size}"
                )
        if self.total_original != sum(r.original_size for r in self.per_cascade):
            raise InvariantError("total_original does not match per-cascade sum")
        if self.total_estimated != sum(r.estimated_size for r in self.per_cascade):
            raise InvariantError("total_estimated does not match per-cascade sum")

    @classmethod
    def from_rows(cls, strategy: str, variant: str, k: int, rows: Iterable[CascadeResult]) -> "EstimateReport":
        ordered = tuple(sorted(rows, key=lambda r: r.cascade_id))
        return cls(
            strategy=strategy,
            variant=variant,
            k=k,
            per_cascade=ordered,
            total_original=sum(r.original_size for r in ordered),
            total_estimated=sum(r.estimated_size for r in ordered),
        )


def apply_deletion(dg: DiffusionGraph, plan: DeletionPlan) -> DiffusionGraph:
    """Remove the plan's blocked diffusion edges; nodes and seeds unchanged.

    This is the direct set-based form of one budget point, kept as the
    reference for :func:`estimate_budgets`.
    """
    blocked = {(dst, src) for src, dst in plan.ranked_edges}
    # The integer edge arrays run in (child, parent) order.
    keep = np.fromiter(
        ((p, c) not in blocked for c, p in sorted((c, p) for p, c in dg.edges)),
        dtype=bool,
        count=len(dg.edges),
    )
    return replace(
        dg,
        edges=frozenset(dg.edges - blocked),
        parent_ids=dg.parent_ids[keep],
        child_ids=dg.child_ids[keep],
        follow_edge_pos=dg.follow_edge_pos[keep],
    )


def estimate_size(dg_after: DiffusionGraph, original_seeds: Iterable[str]) -> int:
    """Number of nodes reachable from the original seeds after deletion."""
    seeds = set(original_seeds)
    unknown = seeds - dg_after.nodes
    if unknown:
        raise InputError(f"seed users not in the diffusion graph: {sorted(unknown)[:5]}")
    graph = build_graph(dg_after.edges, nodes=dg_after.nodes)
    return len(reachable_from(graph, seeds))


def plan_ranks(network: DirectedGraph, plan: DeletionPlan) -> np.ndarray:
    """Plan rank of every follow edge of ``network``, aligned with its edges.

    An edge's rank is the index of its first occurrence in
    ``plan.ranked_edges``, or :data:`NEVER_DELETED` when the plan does not
    name it, so a budget of k deletes exactly the edges ranked below k.
    Plan edges that are not in the network delete nothing; their count is
    logged as one warning.
    """
    pos = network.edge_positions(plan.ranked_edges)
    known = pos >= 0
    unknown = int(pos.size - known.sum())
    if unknown:
        logger.warning(
            "%s plan: %d of %d edge(s) not in the follow network; they delete nothing",
            plan.strategy, unknown, pos.size,
        )
    ranks = np.full(network.edge_count, NEVER_DELETED, dtype=np.int64)
    edge, first = np.unique(pos[known], return_index=True)
    ranks[edge] = np.flatnonzero(known)[first]
    return ranks


def estimate_budgets(
    graphs: Sequence[DiffusionGraph],
    ranks: np.ndarray,
    budgets: Sequence[int],
) -> list[list[CascadeResult]]:
    """Per-cascade sizes after deleting the top-k ranked edges, for every k.

    Diffusion edge p -> v survives budget k when its follow edge's rank is
    at least k.  So v is still reached at budget k exactly when its
    bottleneck value b(v) = max over parents p of min(b(p), rank(p -> v)) is
    at least k, with b = infinity on seeds: the maximum-capacity path of
    Pollack (1960).  Spread runs strictly forward in time, so diffusion
    graphs are DAGs and relaxing all cascades' edges together reaches the
    fixed point within the longest path length.  ``ranks`` comes from
    :func:`plan_ranks` on the network the graphs were built from.
    """
    if any(k < 0 for k in budgets):
        raise InputError("deletion budget k must be >= 0")
    cascade = np.repeat(np.arange(len(graphs)), [dg.child_ids.size for dg in graphs])
    parent = _concat([dg.parent_ids for dg in graphs])
    child = _concat([dg.child_ids for dg in graphs])
    rank = ranks[_concat([dg.follow_edge_pos for dg in graphs])]

    # One slot per (cascade, non-seed user); every seed parent reads the
    # last slot, which stays at infinity.
    span = int(max(parent.max(initial=0), child.max(initial=0))) + 1
    non_seeds, child_slot = np.unique(cascade * span + child, return_inverse=True)
    parent_key = cascade * span + parent
    parent_slot = np.searchsorted(non_seeds, parent_key)
    parent_slot[non_seeds.take(parent_slot, mode="clip") != parent_key] = non_seeds.size
    best = np.full(non_seeds.size + 1, -1, dtype=np.int64)
    best[-1] = NEVER_DELETED
    while True:
        offer = np.minimum(best[parent_slot], rank)
        if not (offer > best[child_slot]).any():
            break
        np.maximum.at(best, child_slot, offer)

    owner, best = non_seeds // span, best[:-1]
    sizes = [len(dg.nodes) for dg in graphs]
    expected = [size - len(dg.seeds) for dg, size in zip(graphs, sizes)]
    if np.bincount(owner, minlength=len(graphs)).tolist() != expected:
        raise InputError("every non-seed user must have a parent, as in graphs from build_variant")
    out = []
    for k in budgets:
        lost = np.bincount(owner[best < k], minlength=len(graphs)).tolist()
        out.append([
            CascadeResult(dg.cascade_id, size, size - cut, len(dg.seeds))
            for dg, size, cut in zip(graphs, sizes, lost)
        ])
    return out


def run_estimation(
    network: DirectedGraph,
    logs: list,
    plan: DeletionPlan,
    variant: str,
) -> EstimateReport:
    """Build, cut, and measure every cascade; totals are order-independent.

    Every edge the plan lists is deleted, in one vectorised pass over all
    cascades.  The report is merged by cascade id and does not depend on
    input order.
    """
    graphs = [build_variant(network, log, variant) for log in logs]
    (rows,) = estimate_budgets(graphs, plan_ranks(network, plan), [len(plan.ranked_edges)])
    return EstimateReport.from_rows(plan.strategy, variant, plan.k, rows)


def _concat(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)


def write_report_csv(report: EstimateReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_HEADER)
        for row in report.per_cascade:
            writer.writerow(
                (report.strategy, report.variant, report.k, row.cascade_id,
                 row.original_size, row.estimated_size, row.seed_count)
            )


def read_report_csv(path: str | Path) -> EstimateReport:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(REPORT_HEADER):
            raise InputError(f"{path}: unexpected report header {header!r}")
        strategy, variant, k = "", "", 0
        rows: list[CascadeResult] = []
        for fields in reader:
            if not fields:
                continue
            where = f"{path}: line {reader.line_num}"
            if len(fields) != len(REPORT_HEADER):
                raise ParseError(f"{where}: expected {len(REPORT_HEADER)} fields, got {len(fields)}")
            try:
                strategy, variant, k = fields[0], fields[1], int(fields[2])
                rows.append(CascadeResult(fields[3], int(fields[4]), int(fields[5]), int(fields[6])))
            except ValueError:
                raise ParseError(f"{where}: expected integer k and sizes, got {fields!r}") from None
    return EstimateReport.from_rows(strategy, variant, k, rows)
