"""Toolkit for estimating how link deletion limits real diffusion cascades.

Pipeline: parse a follower network and cascade logs (:mod:`.ingest`),
reconstruct per-cascade diffusion graphs (:mod:`.diffusion`), pick follow
edges to delete (:mod:`.deletion`), and count how many users the original
seeds still reach afterwards (:mod:`.estimator`).  :mod:`.experiment` and
the ``cascadecut`` CLI orchestrate budget sweeps over all of it.
"""

import os
import sys

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

from .deletion import (
    BETWEENNESS,
    EDGE_DEGREE,
    NETMELT,
    RANDOM,
    STRATEGIES,
    DeletionPlan,
    load_plan,
    plan_betweenness,
    plan_edge_degree,
    plan_netmelt,
    plan_random,
    plan_strategy,
    read_plan_cache,
    save_plan,
    save_plan_cache,
)
from .diffusion import (
    NON_TREE,
    TREE_FIRST,
    TREE_LAST,
    VARIANTS,
    DiffusionBatch,
    DiffusionGraph,
    build_batch,
    build_variant,
    to_dot,
)
from .errors import (
    CascadecutError,
    ConvergenceError,
    InputError,
    InvariantError,
    ParseError,
)
from .estimator import (
    CascadeResult,
    EstimateReport,
    estimate_budgets,
    plan_ranks,
    read_report_csv,
    run_estimation,
    write_report_csv,
)
from .experiment import (
    DEFAULT_FRACTIONS,
    ExperimentConfig,
    run_sweep,
    scatter_report,
    seed_analysis,
)
from .graph import (
    DirectedGraph,
    EigenPair,
    build_graph,
    betweenness_scores,
    leading_eigenpair,
)
from .ingest import (
    CascadeLog,
    CascadeTable,
    DatasetStats,
    compute_stats,
    filter_cascades,
    iter_follow_edges,
    load_cascades,
    load_higgs_activity,
    read_network,
)

__version__ = "0.1.0"

__all__ = [
    "BETWEENNESS",
    "CascadeLog",
    "CascadeTable",
    "CascadeResult",
    "CascadecutError",
    "ConvergenceError",
    "DatasetStats",
    "DEFAULT_FRACTIONS",
    "DeletionPlan",
    "DiffusionBatch",
    "DiffusionGraph",
    "DirectedGraph",
    "EDGE_DEGREE",
    "EigenPair",
    "EstimateReport",
    "ExperimentConfig",
    "InputError",
    "InvariantError",
    "NETMELT",
    "NON_TREE",
    "ParseError",
    "RANDOM",
    "STRATEGIES",
    "TREE_FIRST",
    "TREE_LAST",
    "VARIANTS",
    "betweenness_scores",
    "build_batch",
    "build_graph",
    "build_variant",
    "compute_stats",
    "estimate_budgets",
    "filter_cascades",
    "iter_follow_edges",
    "leading_eigenpair",
    "load_cascades",
    "load_higgs_activity",
    "load_plan",
    "plan_betweenness",
    "plan_edge_degree",
    "plan_netmelt",
    "plan_random",
    "plan_ranks",
    "plan_strategy",
    "read_plan_cache",
    "read_report_csv",
    "read_network",
    "run_estimation",
    "run_sweep",
    "save_plan",
    "save_plan_cache",
    "scatter_report",
    "seed_analysis",
    "to_dot",
    "write_report_csv",
]
