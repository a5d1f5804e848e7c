"""The package's public names, and the string-level API that left it."""

from __future__ import annotations

import pytest

import cascadecut
from cascadecut import deletion, diffusion, estimator, experiment, graph, ingest

PUBLIC = {
    "BETWEENNESS", "CascadeLog", "CascadeResult", "CascadeTable", "CascadecutError", "ConvergenceError",
    "DEFAULT_FRACTIONS", "DatasetStats", "DeletionPlan", "DiffusionBatch", "DiffusionGraph", "DirectedGraph",
    "EDGE_DEGREE", "EigenPair", "EstimateReport", "ExperimentConfig", "InputError", "InvariantError",
    "NETMELT", "NON_TREE", "ParseError", "RANDOM", "STRATEGIES", "TREE_FIRST", "TREE_LAST", "VARIANTS",
    "betweenness_scores", "build_batch", "build_graph", "build_variant", "compute_stats", "estimate_budgets",
    "filter_cascades", "iter_follow_edges", "leading_eigenpair", "load_cascades", "load_higgs_activity",
    "load_plan", "plan_betweenness", "plan_edge_degree", "plan_netmelt", "plan_random", "plan_ranks",
    "plan_strategy", "read_network", "read_plan_cache", "read_report_csv", "run_estimation", "run_sweep",
    "save_plan", "save_plan_cache", "scatter_report", "seed_analysis", "to_dot", "write_report_csv",
}

# Each removed name with where it lived; the sweep's integer path replaced them.
REMOVED = [
    (estimator, "apply_deletion"),
    (estimator, "estimate_size"),
    (graph, "reachable_from"),
    (graph, "_reachable_mask"),
    (graph, "edge_betweenness"),
    (graph.DirectedGraph, "has_node"),
    (graph.DirectedGraph, "index_of"),
    (graph.DirectedGraph, "id_of"),
    (graph.DirectedGraph, "edges"),
    (graph.DirectedGraph, "out_degree"),
    (graph.DirectedGraph, "in_degree"),
    (ingest, "load_follow_edges"),
    (ingest, "dump_follow_edges"),
    (ingest, "dump_cascades"),
    (deletion, "_METHODS"),
    (deletion.DeletionPlan, "method"),
    (experiment, "build_variant"),
    (experiment, "build_graph"),
]


def test_all_names_the_public_surface():
    assert len(cascadecut.__all__) == len(set(cascadecut.__all__)) == 55
    assert set(cascadecut.__all__) == PUBLIC


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_each_public_name_resolves(name):
    assert getattr(cascadecut, name) is not None


@pytest.mark.parametrize("owner, name", REMOVED, ids=[f"{o.__name__}.{n}" for o, n in REMOVED])
def test_removed_names_stay_gone(owner, name):
    assert not hasattr(owner, name)
    # experiment's two re-exports stay public where they are defined.
    assert name in PUBLIC or not hasattr(cascadecut, name)


def test_diffusion_graph_holds_strings_only():
    fields = diffusion.DiffusionGraph.__dataclass_fields__
    assert list(fields) == ["cascade_id", "variant", "nodes", "edges", "seeds"]
