"""The package's public names, where each is defined, and the string-level API that left it."""

from __future__ import annotations

import ast
import importlib
import inspect
from collections.abc import Sequence
from pathlib import Path

import pytest

import cascadecut
from cascadecut import deletion, diffusion, errors, estimator, experiment, graph, ingest

PUBLIC = {
    "BETWEENNESS", "CascadeTable", "CascadecutError", "ConvergenceError",
    "DEFAULT_FRACTIONS", "DatasetStats", "DeletionPlan", "DiffusionBatch", "DirectedGraph",
    "EDGE_DEGREE", "EigenPair", "EstimateReport", "ExperimentConfig", "InputError", "InvariantError",
    "NETMELT", "NON_TREE", "ParseError", "RANDOM", "STRATEGIES", "TREE_FIRST", "TREE_LAST", "VARIANTS",
    "betweenness_scores", "build_batches", "compute_stats", "estimate_budgets",
    "filter_cascades", "leading_eigenpair", "load_cascades", "load_higgs_activity",
    "plan_ranks", "plan_strategy", "read_network", "read_plan_cache", "read_report_csv",
    "run_sweep", "save_plan", "save_plan_cache", "seed_analysis", "to_dot", "write_report_csv",
}

# Each removed name with where it lived; the sweep's integer path, its one
# plan input, the .npz cache, its one network constructor, read_network,
# its one diffusion builder, build_batches, the cache rule in
# deletion.cached_plan, the one-loop power iteration and the one planner,
# plan_strategy, replaced them; the sweep's plan_ranks, estimate_budgets
# and EstimateReport replaced run_estimation.
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
    (graph.DirectedGraph, "edge_positions"),
    (graph.DirectedGraph, "edge_src_indices"),
    (ingest, "load_follow_edges"),
    (ingest, "dump_follow_edges"),
    (ingest, "dump_cascades"),
    (ingest, "CascadeLog"),
    (ingest.CascadeTable, "from_logs"),
    (ingest.CascadeTable, "__getitem__"),
    (ingest.CascadeTable, "__iter__"),
    (deletion, "load_plan"),
    (deletion, "_plan_rows"),
    (deletion, "_plan_block"),
    (deletion, "_plan_lines"),
    (graph.DirectedGraph, "positions_of"),
    (deletion, "_METHODS"),
    (deletion.DeletionPlan, "method"),
    (experiment, "build_variant"),
    (experiment, "build_graph"),
    (estimator, "CascadeResult"),
    (estimator.EstimateReport, "from_rows"),
    (graph, "build_graph"),
    (ingest, "iter_follow_edges"),
    (diffusion, "gather_candidates"),
    (diffusion, "SpreadCandidates"),
    (diffusion, "build_batch"),
    (diffusion, "build_variant"),
    (diffusion, "DiffusionGraph"),
    (graph.DirectedGraph, "in_edges_bulk"),
    (graph.DirectedGraph, "out_edges_bulk"),
    (graph.DirectedGraph, "_reverse_index"),
    (experiment, "_read_cached"),
    (experiment, "_unusable"),
    (graph, "_power_phase"),
    (graph, "_PhaseResult"),
    (deletion, "plan_netmelt"),
    (deletion, "plan_betweenness"),
    (deletion, "plan_edge_degree"),
    (deletion, "plan_random"),
    (deletion.DeletionPlan, "prefix"),
    (experiment, "scatter_report"),
    (estimator, "run_estimation"),
]


def test_all_names_the_public_surface():
    assert len(cascadecut.__all__) == len(set(cascadecut.__all__)) == 42
    assert set(cascadecut.__all__) == PUBLIC


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_each_public_name_resolves(name):
    assert getattr(cascadecut, name) is not None


@pytest.mark.parametrize("owner, name", REMOVED, ids=[f"{o.__name__}.{n}" for o, n in REMOVED])
def test_removed_names_stay_gone(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(cascadecut, name)


def test_cascade_table_is_no_sequence_of_logs():
    # A table is compared by identity and has no list view; tests read its
    # cascades through oracles.logs_of.
    assert not issubclass(ingest.CascadeTable, Sequence)
    assert ingest.CascadeTable.__eq__ is object.__eq__ and ingest.CascadeTable.__hash__ is object.__hash__


def top_level_definitions(module) -> set[str]:
    """Names a module's own source binds at top level: defs, classes and assignments."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("module", sorted(cascadecut._EXPORTS))
def test_each_table_entry_names_the_defining_module(module):
    # One declaration per name, and none pointing at a re-export.
    home = importlib.import_module(f"cascadecut.{module}")
    defined = top_level_definitions(home)
    for name in cascadecut._EXPORTS[module]:
        obj = getattr(cascadecut, name)
        assert obj is getattr(home, name) and name in defined, name
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == home.__name__, name


def test_the_definition_scan_skips_imports():
    assert {"CascadecutError", "InputError"} <= top_level_definitions(errors)
    assert "DirectedGraph" not in top_level_definitions(deletion)
    assert "DirectedGraph" in top_level_definitions(graph)
