"""Budget sweeps across deletion strategies and diffusion variants.

A sweep loads one dataset, gathers its cascades' follow edges once,
derives each variant's diffusion graphs from them, and scores each
requested strategy once at the largest budget.  For every
(strategy, variant) pair one bottleneck pass over the plan's edge ranks
gives the sizes at all budget points; the sweep writes one per-cascade
report CSV per (strategy, variant, fraction) plus a single summary CSV.
Plans are cached in the output directory as ``.npz`` files naming their
network and parameters, and reused on re-runs that match them.

All outputs are plain CSV figure data; re-running an identical
configuration reproduces every file byte for byte.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path

from .deletion import (
    RANDOM,
    STRATEGIES,
    DeletionPlan,
    cache_header,
    load_plan,
    plan_strategy,
    read_plan_cache,
    save_plan_cache,
)
# build_variant stays importable here because bench/tracer.py wraps experiment.build_variant.
from .diffusion import NON_TREE, VARIANTS, build_batch, build_variant, gather_candidates  # noqa: F401
from .errors import ConvergenceError, InputError, ParseError
from .estimator import EstimateReport, estimate_budgets, plan_ranks, write_report_csv
# build_graph stays importable here because bench/tracer.py wraps experiment.build_graph.
from .graph import DirectedGraph, _sorted_unique, build_graph  # noqa: F401
from .ingest import CascadeLog, CascadeTable, filter_cascades, load_cascades, read_network

logger = logging.getLogger(__name__)

DEFAULT_MIN_CASCADE_SIZE = 100
DEFAULT_MAX_SEED_ANALYSIS_SIZE = 1000
DEFAULT_FRACTIONS = tuple(round(0.05 * i, 2) for i in range(1, 11))

SUMMARY_HEADER = ("strategy", "variant", "k", "fraction", "total_estimated", "total_original")
SEEDS_HEADER = ("cascade_id", "original_size", "seed_count")
SCATTER_HEADER = ("cascade_id", "original_size", "estimated_size")


@dataclass
class ExperimentConfig:
    """Everything a sweep needs; validated and normalised on construction."""

    edges_path: Path
    cascades_path: Path
    out_dir: Path
    min_cascade_size: int = DEFAULT_MIN_CASCADE_SIZE
    strategies: tuple[str, ...] = STRATEGIES
    variants: tuple[str, ...] = VARIANTS
    budget_fractions: tuple[float, ...] = DEFAULT_FRACTIONS
    rng_seed: int = 0
    strict_parse: bool = False

    def __post_init__(self):
        self.edges_path = Path(self.edges_path)
        self.cascades_path = Path(self.cascades_path)
        self.out_dir = Path(self.out_dir)
        if self.min_cascade_size < 0:
            raise InputError("min_cascade_size must be >= 0")
        self.strategies = tuple(dict.fromkeys(self.strategies))
        self.variants = tuple(dict.fromkeys(self.variants))
        for s in self.strategies:
            if s not in STRATEGIES:
                raise InputError(f"unknown strategy {s!r}; expected one of {STRATEGIES}")
        for v in self.variants:
            if v not in VARIANTS:
                raise InputError(f"unknown variant {v!r}; expected one of {VARIANTS}")
        if not self.strategies:
            raise InputError("at least one strategy is required")
        if not self.variants:
            raise InputError("at least one variant is required")
        fractions = sorted(set(float(f) for f in self.budget_fractions))
        if not fractions:
            raise InputError("at least one budget fraction is required")
        for f in fractions:
            if not 0.0 <= f <= 1.0:
                raise InputError(f"budget fraction {f} outside [0, 1]")
        self.budget_fractions = tuple(fractions)


def budget_for(fraction: float, edge_count: int) -> int:
    """Edge budget for a fraction of the network's edges."""
    return min(edge_count, int(round(fraction * edge_count)))


def run_sweep(config: ExperimentConfig) -> list[Path]:
    """Run the full sweep; returns the paths of every file written."""
    network, logs = load_dataset(config)
    config.out_dir.mkdir(parents=True, exist_ok=True)

    # The follow edges are gathered once; each variant is a selection from them.
    candidates = gather_candidates(network, logs)
    batches = {variant: build_batch(network, candidates, variant) for variant in config.variants}
    del candidates
    edge_count = network.edge_count
    budgets = [budget_for(f, edge_count) for f in config.budget_fractions]
    max_budget = max(budgets)

    written: list[Path] = []
    summary_rows: list[tuple] = []
    for strategy in config.strategies:
        plan, plan_path = _materialise_plan(config, network, strategy, max_budget)
        written.append(plan_path)
        ranks = plan_ranks(network, plan)
        for variant in config.variants:
            per_budget = estimate_budgets(batches[variant], ranks, budgets)
            for fraction, k, rows in zip(config.budget_fractions, budgets, per_budget):
                report = EstimateReport.from_rows(strategy, variant, k, rows)
                path = config.out_dir / f"report_{strategy}_{variant}_{fraction:g}.csv"
                write_report_csv(report, path)
                written.append(path)
                summary_rows.append(
                    (strategy, variant, k, f"{fraction:g}", report.total_estimated, report.total_original)
                )
    summary_path = config.out_dir / "summary.csv"
    _write_csv(summary_path, SUMMARY_HEADER, summary_rows)
    written.append(summary_path)
    return written


def load_network(edges_path: Path, strict_parse: bool) -> DirectedGraph:
    """Parse and index a follow-edge file; no list of edges is held."""
    try:
        with open(edges_path, "r", encoding="utf-8") as fh:
            return read_network(fh, strict=strict_parse)
    except OSError as exc:
        raise InputError(f"ingest: cannot read edges file: {exc}") from exc


def load_dataset(config: ExperimentConfig) -> tuple[DirectedGraph, CascadeTable]:
    """Parse, filter, and index the configured dataset."""
    network = load_network(config.edges_path, config.strict_parse)
    try:
        with open(config.cascades_path, "r", encoding="utf-8") as fh:
            logs = load_cascades(fh, strict=config.strict_parse)
    except OSError as exc:
        raise InputError(f"ingest: cannot read cascades file: {exc}") from exc
    kept = filter_cascades(logs, config.min_cascade_size)
    logger.info(
        "loaded %d nodes, %d edges, %d/%d cascades at min size %d",
        network.node_count, network.edge_count, len(kept), len(logs), config.min_cascade_size,
    )
    return network, kept


def seed_analysis(
    network: DirectedGraph,
    logs: CascadeTable | list[CascadeLog],
    max_size: int = DEFAULT_MAX_SEED_ANALYSIS_SIZE,
) -> list[tuple[str, int, int]]:
    """(cascade_id, original_size, seed_count) rows for cascades up to max_size.

    Seed sets are identical across diffusion variants, so the rows are
    variant-independent.
    """
    table = CascadeTable.from_logs(logs)
    batch = build_batch(network, table.select(table.sizes <= max_size), NON_TREE)
    return sorted(zip(batch.cascade_ids, batch.sizes.tolist(), batch.seed_counts.tolist()))


def scatter_report(report: EstimateReport) -> list[tuple[str, int, int]]:
    """(cascade_id, original_size, estimated_size) projection, sorted by id."""
    return sorted((r.cascade_id, r.original_size, r.estimated_size) for r in report.per_cascade)


def write_gnuplot_script(out_dir: Path, strategies: tuple[str, ...], variants: tuple[str, ...]) -> Path:
    """Emit a gnuplot script plotting summary.csv totals against fraction."""
    lines = [
        "set datafile separator ','",
        "set key outside",
        "set xlabel 'fraction of follow edges deleted'",
        "set ylabel 'estimated total cascade size'",
        "set xrange [0:*]",
    ]
    plots = []
    for strategy in strategies:
        for variant in variants:
            cond = f"strcol(1) eq '{strategy}' && strcol(2) eq '{variant}'"
            plots.append(
                f"  'summary.csv' using ({cond} ? column(4) : NaN):5 "
                f"with linespoints title '{strategy} {variant}'"
            )
    lines.append("plot \\")
    lines.append(", \\\n".join(plots))
    path = out_dir / "plots.gp"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_csv(path: Path, header: tuple[str, ...], rows: list[tuple]) -> None:
    """Write figure-data rows under a header; the summary, seeds and scatter files."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _materialise_plan(
    config: ExperimentConfig,
    network: DirectedGraph,
    strategy: str,
    max_budget: int,
) -> tuple[DeletionPlan, Path]:
    """Reuse a cached plan when it fits, else compute one and cache it.

    ``plan_<strategy>.npz`` is reused when its header names this network's
    fingerprint, the strategy and its parameters.  Only when there is no
    ``.npz`` is a text ``plan_<strategy>.tsv`` (a hand-written plan or a
    ``plan`` export) read, and reused when its strategy and seed match; it
    names no network, so only its edges can be checked.  A ``.tsv`` beside
    a ``.npz`` that does not match is skipped: ``plan`` writes both, so it
    is most likely as stale.  Either way the plan's first
    min(max_budget, |E|) entries must be distinct edges of ``network``.  A
    new plan is cached as ``.npz``; a ``.tsv`` is never written.
    """
    cache = config.out_dir / f"plan_{strategy}.npz"
    path = cache if cache.exists() else cache.with_suffix(".tsv")
    if path.exists():
        cached, why = _read_cached(path, network, strategy, config.rng_seed)
        why = why or _unusable(cached, min(max_budget, network.edge_count))
        if why is None:
            logger.info("reusing cached %s plan from %s", strategy, path)
            return cached, path
        logger.info("cached plan at %s %s; recomputing", path, why)
    try:
        plan = plan_strategy(network, strategy, max_budget, rng_seed=config.rng_seed)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"plan({strategy}): {exc}", exc.best_residual, exc.iterations
        ) from exc
    save_plan_cache(plan, cache)
    return plan, cache


def _read_cached(
    path: Path, network: DirectedGraph, strategy: str, rng_seed: int
) -> tuple[DeletionPlan | None, str | None]:
    """A cached plan file's plan, and why it does not match the sweep (None if it does)."""
    if path.suffix == ".tsv":
        logger.info("%s carries no network fingerprint; only its edges can be checked", path)
        plan = load_plan(path, network)
        if plan.strategy != strategy:
            return None, f"holds a {plan.strategy} plan"
        if strategy == RANDOM and plan.rng_seed != rng_seed:
            return None, f"was drawn with seed {plan.rng_seed}, not {rng_seed}"
        return plan, None
    try:
        header, edge_pos, scores = read_plan_cache(path)
    except (ParseError, OSError) as exc:
        return None, f"cannot be read ({exc})"
    expected = cache_header(strategy, header["k"], rng_seed, network)
    for key in ("format", "fingerprint", "strategy", "rng_seed", "tolerance", "max_iterations"):
        if header.get(key) != expected[key]:
            return None, f"has {key} {header.get(key)!r}, not {expected[key]!r}"
    try:
        return DeletionPlan(strategy, header["k"], network, edge_pos, scores, rng_seed=expected["rng_seed"]), None
    except InputError as exc:
        return None, f"does not fit this network ({exc})"


def _unusable(plan: DeletionPlan, needed: int) -> str | None:
    """Why ``plan`` cannot serve a budget of ``needed`` edges, or None."""
    head = plan.edge_pos[:needed]
    if head.size < needed:
        return f"ranks {head.size} of the {needed} edge(s) needed"
    if head.min(initial=0) < 0 or _sorted_unique(head.copy()).size < needed:
        return f"does not name {needed} distinct edges of this network"
    return None
