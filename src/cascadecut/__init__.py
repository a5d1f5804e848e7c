"""Toolkit for estimating how link deletion limits real diffusion cascades.

Pipeline: parse a follower network and cascade logs (:mod:`.ingest`),
reconstruct per-cascade diffusion graphs (:mod:`.diffusion`), pick follow
edges to delete (:mod:`.deletion`), and count how many users the original
seeds still reach afterwards (:mod:`.estimator`).  :mod:`.experiment` and
the ``cascadecut`` CLI orchestrate budget sweeps over all of it.

The public names are listed once, under the module that defines them, and
each one (a submodule too) is imported on first use, so ``import
cascadecut`` loads numpy alone.
"""

import os
import sys
from importlib import import_module

# The variables through which numpy's OpenBLAS takes its thread count.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _import_numpy_single_threaded() -> None:
    """Import numpy with one OpenBLAS thread, then restore ``os.environ``.

    The package makes no BLAS call, yet OpenBLAS starts a worker thread per
    CPU when it loads, which costs start-up time in every process.  A
    caller who set a thread variable, or imported numpy first, keeps the
    pool they chose.
    """
    if "numpy" in sys.modules or any(name in os.environ for name in _THREAD_VARIABLES):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_import_numpy_single_threaded()

__version__ = "0.1.0"

# Each public name, under the module that defines it.
_EXPORTS = {
    "deletion": (
        "BETWEENNESS", "EDGE_DEGREE", "NETMELT", "RANDOM", "STRATEGIES", "DeletionPlan", "plan_strategy",
        "read_plan_cache", "save_plan", "save_plan_cache",
    ),
    "diffusion": (
        "NON_TREE", "TREE_FIRST", "TREE_LAST", "VARIANTS", "DiffusionBatch", "build_batches", "to_dot",
    ),
    "errors": ("CascadecutError", "ConvergenceError", "InputError", "InvariantError", "ParseError"),
    "estimator": (
        "EstimateReport", "estimate_budgets", "plan_ranks", "read_report_csv", "write_report_csv",
    ),
    "experiment": ("DEFAULT_FRACTIONS", "ExperimentConfig", "run_sweep", "seed_analysis"),
    "graph": ("DirectedGraph", "EigenPair", "betweenness_scores", "leading_eigenpair"),
    "ingest": (
        "CascadeTable", "DatasetStats", "compute_stats", "filter_cascades", "load_cascades",
        "load_higgs_activity", "read_network",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    """A submodule or public name, imported on first use and kept from then on."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    for module, names in _EXPORTS.items():
        if name in names:
            value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
