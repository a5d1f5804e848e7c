"""Budget sweeps across deletion strategies and diffusion variants.

A sweep (:func:`run_sweep`, one loop) loads one dataset, gathers its
cascades' follow edges once, derives each variant's diffusion graphs from
them, and scores each requested strategy once at the largest budget.  The
cascade side runs on a second thread while the first plan is computed;
the loop joins it once, when that plan is ready, and writes nothing
before.  For every (strategy, variant) pair one bottleneck pass over the
plan's edge ranks gives the sizes at all budget points; the sweep writes
one per-cascade report CSV per (strategy, variant, fraction) plus a
single summary CSV.
Plans are cached in the output directory as ``.npz`` files naming their
network and parameters, and reused on re-runs that match them;
:mod:`~cascadecut.deletion` names those files and decides the match, and
only a plan the sweep computed is saved.

All outputs are plain CSV figure data; re-running an identical
configuration reproduces every file byte for byte.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .deletion import STRATEGIES, DeletionPlan, cached_plan, plan_paths, plan_strategy, save_plan_cache
from .diffusion import NON_TREE, VARIANTS, build_batches
from .errors import ConvergenceError, InputError
from .estimator import EstimateReport, estimate_budgets, plan_ranks, write_csv, write_report_csv
from .graph import DirectedGraph
from .ingest import CascadeTable, _read_input, filter_cascades, load_cascades, read_network

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
        # Checked here as well as in plan_strategy: a matching plan cache
        # would be reused without calling it.
        if self.rng_seed < 0:
            raise InputError(f"rng seed must be >= 0, not {self.rng_seed}")
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
        # Report file names and summary rows carry the fraction as printed.
        for f, g in zip(fractions, fractions[1:]):
            if f"{f:g}" == f"{g:g}":
                raise InputError(f"budget fractions {f!r} and {g!r} both print as {f:g}")
        self.budget_fractions = tuple(fractions)


def budget_for(fraction: float, edge_count: int) -> int:
    """Edge budget for a fraction of the network's edges."""
    return min(edge_count, int(round(fraction * edge_count)))


def run_sweep(config: ExperimentConfig) -> list[Path]:
    """Run the full sweep; returns the paths of every file written.

    Once the network has loaded, a second thread reads and filters the
    cascades and builds every variant's diffusion batches, while this one
    hashes the network and computes the first plan.  The sweep joins that
    thread when the first plan is ready and only then creates ``out_dir``
    and writes; an error of the cascade side is raised in place of any
    error of the plan side, as if the cascades had been read first.
    """
    network = load_network(config.edges_path, config.strict_parse)
    cascade_side = _Background(lambda: build_batches(network, _kept_cascades(config, network), config.variants))
    try:
        network.fingerprint  # hashed alongside the cascade side; every plan cache names it
        budgets = [budget_for(f, network.edge_count) for f in config.budget_fractions]
        batches = None
        written: list[Path] = []
        summary_rows: list[tuple] = []
        for strategy in config.strategies:
            plan, cache, computed = _materialise_plan(config, network, strategy, max(budgets))
            if batches is None:
                batches = cascade_side.result()
                config.out_dir.mkdir(parents=True, exist_ok=True)
            if computed:
                save_plan_cache(plan, cache)
            written.append(cache)
            ranks = plan_ranks(network, plan)
            for variant, batch in batches.items():
                estimated = estimate_budgets(batch, ranks, budgets)
                for fraction, k, sizes in zip(config.budget_fractions, budgets, estimated):
                    report = EstimateReport(strategy, variant, k, batch.cascade_ids, batch.sizes, sizes,
                                            batch.seed_counts)
                    path = config.out_dir / f"report_{strategy}_{variant}_{fraction:g}.csv"
                    write_report_csv(report, path)
                    written.append(path)
                    summary_rows.append(
                        (strategy, variant, k, f"{fraction:g}", report.total_estimated, report.total_original)
                    )
            del plan, ranks  # free this strategy's plan before the next one is computed
        summary_path = config.out_dir / "summary.csv"
        write_csv(summary_path, SUMMARY_HEADER, summary_rows)
        written.append(summary_path)
        return written
    except BaseException:
        cascade_side.result()  # the cascade side's error, if it had one, is raised in place of this one
        raise


class _Background(threading.Thread):
    """Calls ``work()`` on a thread of its own, started at once."""

    def __init__(self, work):
        super().__init__(name="cascadecut-cascades")
        self._work = work
        self._value = self._error = None
        self.start()

    def run(self):
        try:
            self._value = self._work()
        except BaseException as exc:  # handed to the caller by result()
            self._error = exc

    def result(self):
        """Waits for ``work()`` and returns its value, or raises its exception."""
        self.join()
        if self._error is not None:
            raise self._error
        return self._value


def load_network(edges_path: Path, strict_parse: bool) -> DirectedGraph:
    """Parse and index a follow-edge file; no list of edges is held.

    The file is read as UTF-8, and a leading byte-order mark is dropped.
    """
    return _read_input(edges_path, "edges", partial(read_network, strict=strict_parse))


def load_dataset(config: ExperimentConfig) -> tuple[DirectedGraph, CascadeTable]:
    """Parse, filter, and index the configured dataset."""
    network = load_network(config.edges_path, config.strict_parse)
    return network, _kept_cascades(config, network)


def _kept_cascades(config: ExperimentConfig, network: DirectedGraph) -> CascadeTable:
    """The configured cascades that pass the size filter; logs the dataset's counts."""
    table = _read_input(config.cascades_path, "cascades", partial(load_cascades, strict=config.strict_parse))
    kept = filter_cascades(table, config.min_cascade_size)
    logger.info(
        "loaded %d nodes, %d edges, %d/%d cascades at min size %d",
        network.node_count, network.edge_count, len(kept), len(table), config.min_cascade_size,
    )
    return kept


def seed_analysis(
    network: DirectedGraph,
    table: CascadeTable,
    max_size: int = DEFAULT_MAX_SEED_ANALYSIS_SIZE,
) -> list[tuple[str, int, int]]:
    """(cascade_id, original_size, seed_count) rows, in table order, for the cascades up to max_size.

    Seed sets are identical across diffusion variants, so the rows are
    variant-independent.  A negative ``max_size`` is an :class:`InputError`.
    """
    if max_size < 0:
        raise InputError(f"max_size must be >= 0, not {max_size}")
    (batch,) = build_batches(network, table.select(table.sizes <= max_size), [NON_TREE]).values()
    return list(zip(batch.cascade_ids, batch.sizes.tolist(), batch.seed_counts.tolist()))


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


def _materialise_plan(
    config: ExperimentConfig,
    network: DirectedGraph,
    strategy: str,
    max_budget: int,
) -> tuple[DeletionPlan, Path, bool]:
    """(plan, cache path, computed): the cached plan when it fits, else a new one.

    ``plan_<strategy>.npz`` is the one plan input, reused when
    :func:`~cascadecut.deletion.cached_plan` finds that it serves
    ``max_budget`` edges of ``network`` under this sweep's parameters.  A
    text ``plan_<strategy>.tsv`` (the export of ``plan``) names no network
    and is never read; when the plan is computed, a warning names it,
    since it shows another ranking.  Nothing is written: the caller saves
    a computed plan at the cache path.
    """
    cache, text = plan_paths(config.out_dir, strategy)
    if cache.exists():
        cached, why = cached_plan(cache, network, strategy, config.rng_seed, max_budget)
        if why is None:
            logger.info("reusing cached %s plan from %s", strategy, cache)
            return cached, cache, False
        logger.info("cached plan at %s %s; recomputing", cache, why)
    if text.exists():
        logger.warning("%s is not this sweep's %s plan; it was left untouched", text, strategy)
    try:
        plan = plan_strategy(network, strategy, max_budget, rng_seed=config.rng_seed)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"plan({strategy}): {exc}", exc.best_residual, exc.iterations
        ) from exc
    return plan, cache, True
