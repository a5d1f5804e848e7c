"""Apply deletion plans to diffusion graphs and count who still gets reached.

A plan selects follow edges (u follows v); information moved the other way,
so deleting follow edge (u, v) blocks the diffusion edge (v, u).  The
estimate for a cascade after deletion is the number of nodes reachable from
the cascade's original seed set.  Seeds stay fixed even when a deletion
leaves other nodes with no incoming edge: such nodes are exactly the users
the deletion cut off.

The one estimation path is the sweep's (see
:func:`~cascadecut.experiment.run_sweep`): :func:`plan_ranks` gives every
follow edge its rank in a plan, and plan prefixes are nested, so
:func:`estimate_budgets` gives the sizes at every budget in one pass over
a batch's edges, which join the slots of its participants (see
:class:`~cascadecut.diffusion.DiffusionBatch`).  An :class:`EstimateReport`
holds one budget point as int64 columns, and :func:`write_csv` writes it
and every other figure-data file.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .deletion import DeletionPlan
from .diffusion import DiffusionBatch
from .errors import InputError, InvariantError, ParseError
from .graph import DirectedGraph
from .ingest import _read_input

# Rank of a follow edge that no budget deletes.
NEVER_DELETED = np.iinfo(np.int64).max

REPORT_HEADER = ("strategy", "variant", "k", "cascade_id", "original_size", "estimated_size", "seed_count")


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Per-cascade post-deletion sizes for one (strategy, variant, k).

    The columns are kept in the order given, as read-only int64 copies, and
    every cascade must have seed_count <= estimated <= original.  Reports
    compare by identity.
    """

    strategy: str
    variant: str
    k: int
    cascade_ids: tuple[str, ...]
    original_sizes: np.ndarray = field(repr=False)
    estimated_sizes: np.ndarray = field(repr=False)
    seed_counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        ids = tuple(self.cascade_ids)
        columns = [np.asarray(c, dtype=np.int64) for c in (self.original_sizes, self.estimated_sizes, self.seed_counts)]
        shapes = [column.shape for column in columns]
        if shapes != [(len(ids),)] * 3:
            got = f"shape {(3, *shapes[0])}" if len(set(shapes)) == 1 else f"column shapes {shapes}"
            raise InvariantError(f"expected 3 columns of {len(ids)} sizes, got {got}")
        columns = np.stack(columns)  # a copy: the caller's arrays stay writeable
        columns.flags.writeable = False
        original, estimated, seeds = columns
        bad = np.flatnonzero((seeds > estimated) | (estimated > original))
        if bad.size:
            i = int(bad[0])
            raise InvariantError(
                f"cascade {ids[i]}: expected seed_count <= estimated <= original, "
                f"got {seeds[i]}/{estimated[i]}/{original[i]}"
            )
        for name, value in zip(("cascade_ids", "original_sizes", "estimated_sizes", "seed_counts"), (ids, *columns)):
            object.__setattr__(self, name, value)

    @property
    def total_original(self) -> int:
        return int(self.original_sizes.sum())

    @property
    def total_estimated(self) -> int:
        return int(self.estimated_sizes.sum())


def plan_ranks(network: DirectedGraph, plan: DeletionPlan) -> np.ndarray:
    """Plan rank of every follow edge of ``network``, aligned with its edges.

    An edge's rank is the index of its first occurrence in
    ``plan.edge_pos``, or :data:`NEVER_DELETED` when the plan does not name
    it, so a budget of k deletes exactly the edges ranked below k.  A plan
    made for another network (not ``network`` and of another
    :attr:`~cascadecut.graph.DirectedGraph.fingerprint`) is an
    :class:`InputError`, since its positions name other edges.
    """
    if plan.network is not network and plan.network.fingerprint != network.fingerprint:
        raise InputError(f"the {plan.strategy} plan was made for another follow network")
    ranks = np.full(network.edge_count, NEVER_DELETED, dtype=np.int64)
    # A repeated edge keeps its first, smallest, rank.
    np.minimum.at(ranks, plan.edge_pos, np.arange(plan.edge_pos.size))
    return ranks


def estimate_budgets(
    batch: DiffusionBatch,
    ranks: np.ndarray,
    budgets: Sequence[int],
) -> np.ndarray:
    """Per-cascade sizes after deleting the top-k ranked edges, for every k:
    a read-only int64 array, one row per budget and one column per cascade
    in the batch's order.

    Diffusion edge p -> v survives budget k when its follow edge's rank is
    at least k.  So v is still reached at budget k exactly when its
    bottleneck value b(v) = max over parents p of min(b(p), rank(p -> v)) is
    at least k, with b = infinity on seeds: the maximum-capacity path of
    Pollack (1960).  Spread runs strictly forward in time, so diffusion
    graphs are DAGs and relaxing all cascades' edges together reaches the
    fixed point within the longest path length.  ``ranks`` comes from
    :func:`plan_ranks` on the network the batch was built from.
    """
    if any(k < 0 for k in budgets):
        raise InputError("deletion budget k must be >= 0")
    owner, child, parent = batch.owner, batch.child_slot, batch.parent_slot
    rank = ranks[batch.follow_edge_pos]

    # b over the batch's participants: the seeds are those no edge reaches.
    best = np.full(owner.size, NEVER_DELETED, dtype=np.int64)
    best[child] = -1
    count = len(batch.cascade_ids)
    if not np.array_equal(np.bincount(owner[best < 0], minlength=count), batch.sizes - batch.seed_counts):
        raise InputError("every non-seed user must have a parent, as in batches from build_batches")
    while True:
        offer = np.minimum(best[parent], rank)
        if not (offer > best[child]).any():
            break
        np.maximum.at(best, child, offer)

    out = np.empty((len(budgets), count), dtype=np.int64)
    for k, row in zip(budgets, out):
        np.subtract(batch.sizes, np.bincount(owner[best < k], minlength=count), out=row)
    out.flags.writeable = False
    return out


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows under a header: every report, summary, seeds and scatter file."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_report_csv(report: EstimateReport, path: str | Path) -> None:
    head = (report.strategy, report.variant, report.k)
    columns = (report.original_sizes.tolist(), report.estimated_sizes.tolist(), report.seed_counts.tolist())
    write_csv(path, REPORT_HEADER, (head + row for row in zip(report.cascade_ids, *columns)))


def read_report_csv(path: str | Path) -> EstimateReport:
    """Read a file written by :func:`write_report_csv`.

    Every row must name the first row's strategy, variant and k, each
    cascade once, and sizes with 0 <= seed_count <= estimated_size <=
    original_size; any other row is a :class:`ParseError` naming its line.
    As for every input file (see :func:`~cascadecut.ingest._read_input`), an
    unreadable file is an :class:`InputError` and text that is not UTF-8 a
    :class:`ParseError` naming the file.
    """
    text = _read_input(path, "report", lambda fh: fh.read(), newline="")
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header != list(REPORT_HEADER):
        raise InputError(f"{path}: unexpected report header {header!r}")
    first = None
    rows: dict[str, tuple[int, int, int]] = {}
    for fields in reader:
        if not fields:
            continue
        where = f"{path}: line {reader.line_num}"
        if len(fields) != len(REPORT_HEADER):
            raise ParseError(f"{where}: expected {len(REPORT_HEADER)} fields, got {len(fields)}")
        try:
            key = (fields[0], fields[1], int(fields[2]))
            sizes = (int(fields[4]), int(fields[5]), int(fields[6]))
        except ValueError:
            raise ParseError(f"{where}: expected integer k and sizes, got {fields!r}") from None
        original, estimated, seeds = sizes
        if not 0 <= seeds <= estimated <= original:
            raise ParseError(
                f"{where}: expected 0 <= seed_count <= estimated_size <= original_size, got {fields[4:]!r}"
            )
        first = first or key
        if key != first:
            raise ParseError(f"{where}: strategy, variant and k {key!r} differ from the first row's {first!r}")
        if fields[3] in rows:
            raise ParseError(f"{where}: cascade {fields[3]!r} repeated")
        rows[fields[3]] = sizes
    try:
        columns = np.array(list(rows.values()), dtype=np.int64).reshape(-1, 3).T
    except OverflowError:
        raise ParseError(f"{path}: a size does not fit in int64") from None
    return EstimateReport(*(first or ("", "", 0)), tuple(rows), *columns)
