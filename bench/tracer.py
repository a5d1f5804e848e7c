"""Traced sweep: run the real ``cascadecut sweep`` with spans around each layer.

Usage: ``python3 bench/tracer.py RESULT.json sweep --edges ... --out ...``
with ``src`` on ``PYTHONPATH``.

Spans are taken from outside the program: the module attributes that
``run_sweep`` calls through are replaced by timing wrappers, then the CLI
entry point runs unchanged.  Each span records (name, start, end, parent);
a span's self time is its duration minus its children's.  After the sweep
the captured objects give the per-layer counters, and a few kernels are
timed through their public calls.  An attribute that no longer exists is
reported as missing rather than failing the run.  A sweep that fails
exits with its own code and writes no result.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# (module or class the caller looks the name up in, attribute, span name,
# what to keep from each call for the counters).  The span name's first
# part is the layer the callee belongs to.  Only small or already-live
# objects are kept, so tracing does not change what the sweep holds alive.
WRAPS = (
    ("cli", "run_sweep", "experiment.run_sweep", None),
    ("experiment", "load_dataset", "experiment.load_dataset", None),
    ("experiment", "load_follow_edges", "ingest.load_follow_edges", None),
    ("experiment", "load_cascades", "ingest.load_cascades", None),
    ("experiment", "filter_cascades", "ingest.filter_cascades", lambda a, k, r: (len(a[0]), r)),
    ("experiment", "build_graph", "graph.build_graph", lambda a, k, r: r),
    ("experiment", "build_variant", "diffusion.build", lambda a, k, r: (a[2], r)),
    ("experiment", "_materialise_plan", "experiment.materialise_plan", None),
    ("experiment", "plan_strategy", "deletion.plan_strategy", lambda a, k, r: (a[1], r)),
    ("experiment", "load_plan", "deletion.load_plan", None),
    ("experiment", "save_plan", "deletion.save_plan", None),
    ("deletion", "leading_eigenpair", "graph.leading_eigenpair", lambda a, k, r: r),
    ("deletion", "betweenness_scores", "graph.betweenness_scores",
     lambda a, k, r: (a[0], k.get("threads", a[1] if len(a) > 1 else 1))),
    ("experiment", "deleted_diffusion_edges", "estimator.deleted_diffusion_edges", None),
    ("experiment", "estimate_rows", "estimator.estimate_rows", lambda a, k, r: len(r)),
    ("experiment.EstimateReport", "from_rows", "estimator.from_rows", None),
    ("experiment", "write_report_csv", "estimator.write_report_csv", None),
    ("experiment", "_write_csv", "experiment.write_csv", None),
)
LAYERS = ("ingest", "graph", "diffusion", "deletion", "estimator", "experiment")
GRAPH_SCORING = ("graph.leading_eigenpair", "graph.betweenness_scores")
PROBE_NODES = 400

# Every per-layer metric with its unit.  Each one is measured on every
# workload: the strategy-specific graph kernels are summed into
# graph.scoring_s, and the eigensolver, Brandes and thread figures come from
# probes that run on each workload's network after the sweep.
UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.self_s": "s",
    "ingest.load_follow_edges_s": "s",
    "ingest.load_cascades_s": "s",
    "ingest.edge_lines": "count",
    "ingest.event_lines": "count",
    "ingest.cascades_kept_ratio": "ratio",
    "graph.build_graph_s": "s",
    "graph.nodes": "count",
    "graph.edges": "count",
    "graph.scoring_s": "s",
    "graph.eigen_iterations": "count",
    "graph.eigen_residual": "norm",
    "graph.eigen_iter_ms": "ms",
    "graph.brandes_source_ms": "ms",
    "graph.betweenness_t1_s": "s",
    "graph.betweenness_nproc_s": "s",
    "graph.thread_speedup": "x",
    "graph.out_edges_bulk_us": "us",
    "graph.reachable_from_ms": "ms",
    "graph.matvec_bytes_computed": "bytes",
    "diffusion.build_s": "s",
    "diffusion.build_us_per_cascade": "us",
    "diffusion.edges": "count",
    "diffusion.seeds": "count",
    "diffusion.missing_users": "count",
    "deletion.plan_s": "s",
    "deletion.save_plan_s": "s",
    "deletion.plan_edges": "count",
    "deletion.zero_score_edges": "count",
    "deletion.useful_ratio": "ratio",
    "estimator.deleted_diffusion_edges_s": "s",
    "estimator.estimate_rows_s": "s",
    "estimator.ms_per_budget_point": "ms",
    "estimator.us_per_estimate": "us",
    "estimator.estimates": "count",
    "estimator.write_report_csv_s": "s",
    "experiment.run_sweep_s": "s",
    "experiment.output_bytes": "bytes",
    "tracing.overhead_s": "s",
    "tracing.spans": "count",
}


class Tracer:
    """In-memory span recorder; spans nest per thread."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.calls: dict[str, list[tuple[int, object]]] = defaultdict(list)
        self._local = threading.local()

    def wrap(self, owner, attr: str, name: str, keep) -> bool:
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        spans, calls, local = self.spans, self.calls, self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            index = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if keep is not None:
                try:
                    calls[name].append((index, keep(args, kwargs, result)))
                except (IndexError, KeyError, TypeError, AttributeError):
                    calls[name].append((index, None))  # call shape changed: counters unavailable
            return result

        setattr(owner, attr, staticmethod(traced) if isinstance(owner, type) else traced)
        return True

    def durations(self) -> tuple[list[float], list[float]]:
        """(duration, self time) per span."""
        total = [end - start for _, start, end, _ in self.spans]
        self_time = list(total)
        for (_, _, _, parent), dur in zip(self.spans, total):
            if parent is not None:
                self_time[parent] -= dur
        return total, self_time


def _resolve(modules: dict, dotted: str):
    head, *rest = dotted.split(".")
    obj = modules[head]
    for part in rest:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main(argv: list[str]) -> int:
    result_path, sweep_argv = Path(argv[0]), argv[1:]
    import numpy as np
    from cascadecut import cli, deletion, experiment, graph
    from cascadecut.errors import CascadecutError

    modules = {"cli": cli, "experiment": experiment, "deletion": deletion}
    tracer = Tracer()
    missing = [name for owner, attr, name, keep in WRAPS
               if (target := _resolve(modules, owner)) is None or not tracer.wrap(target, attr, name, keep)]
    rc = cli.main(sweep_argv)
    if rc != 0:
        return rc
    extras_start = time.perf_counter()

    total, self_time = tracer.durations()
    by_name: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for (name, *_), dur, own in zip(tracer.spans, total, self_time):
        by_name[name] += dur
        layer_self[name.split(".")[0]] += own
    calls = tracer.calls
    metrics: dict[str, float] = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    for name in ("ingest.load_follow_edges", "ingest.load_cascades", "graph.build_graph",
                 "diffusion.build", "deletion.save_plan", "estimator.deleted_diffusion_edges",
                 "estimator.estimate_rows", "estimator.write_report_csv", "experiment.run_sweep"):
        metrics[f"{name}_s"] = by_name[name]
    metrics["graph.scoring_s"] = sum(by_name[name] for name in GRAPH_SCORING)
    unavailable: list[str] = []

    def record(name: str, compute) -> None:
        # Counters read the program's objects; a later change to their shape
        # makes the counter unavailable instead of failing the traced run.
        try:
            metrics[name] = float(compute())
        except (AttributeError, TypeError, ValueError, KeyError, IndexError, ZeroDivisionError,
                CascadecutError):
            metrics[name] = 0.0
            unavailable.append(name)

    def kept(name: str) -> list:
        return [value for _, value in calls[name]]

    # ingest
    opts = dict(zip(sweep_argv[1::2], sweep_argv[2::2]))
    record("ingest.edge_lines", lambda: Path(opts["--edges"]).read_bytes().count(b"\n"))
    record("ingest.event_lines", lambda: Path(opts["--cascades"]).read_bytes().count(b"\n"))
    parsed, kept_logs = (kept("ingest.filter_cascades") or [(0, [])])[0] or (0, [])
    record("ingest.cascades_kept_ratio", lambda: len(kept_logs) / parsed)

    # graph
    network = (kept("graph.build_graph") or [None])[0]
    record("graph.nodes", lambda: network.node_count)
    record("graph.edges", lambda: network.edge_count)

    def eigen_probe():
        start = time.perf_counter()
        pair = graph.leading_eigenpair(network)
        elapsed = time.perf_counter() - start
        metrics["graph.eigen_iterations"] = pair.iterations
        metrics["graph.eigen_residual"] = pair.residual
        return 1e3 * elapsed / pair.iterations

    def brandes_probe():
        # Exact betweenness on the subgraph induced by the PROBE_NODES
        # highest-degree nodes, once on one thread and once on nproc.
        degree = network.in_degrees + network.out_degrees
        top = np.sort(np.argsort(-degree, kind="stable")[:PROBE_NODES])
        inside = np.zeros(network.node_count, dtype=bool)
        inside[top] = True
        src, dst = network.edge_src_indices, network.edge_dst_indices
        both = inside[src] & inside[dst]
        ids = network.external_ids
        probe = graph.build_graph([(ids[a], ids[b]) for a, b in zip(src[both].tolist(), dst[both].tolist())],
                                  nodes=[ids[i] for i in top.tolist()])
        t1 = _median_time(lambda: graph.betweenness_scores(probe, threads=1), 1)
        tn = _median_time(lambda: graph.betweenness_scores(probe, threads=os.cpu_count()), 1)
        metrics.update({"graph.betweenness_t1_s": t1, "graph.betweenness_nproc_s": tn,
                        "graph.thread_speedup": t1 / tn})
        return 1e3 * t1 / probe.node_count

    record("graph.eigen_iter_ms", eigen_probe)
    record("graph.brandes_source_ms", brandes_probe)

    def frontier_gather():
        size = min(1000, network.node_count)
        frontier = np.sort(np.random.default_rng(0).choice(network.node_count, size, replace=False))
        return 1e6 * _median_time(lambda: network.out_edges_bulk(frontier), 200)

    def bfs():
        pick = np.random.default_rng(1).choice(network.node_count, 10, replace=False)
        seeds = [network.id_of(int(i)) for i in pick]
        return 1e3 * _median_time(lambda: graph.reachable_from(network, seeds), 10)

    def matvec_bytes():
        # One power-iteration matvec, np.bincount(src, weights=x[dst]): both
        # int64 index arrays read, the gathered float64 weights written and
        # read once, the float64 result vector written.
        return 8 * (4 * network.edge_count + network.node_count)

    record("graph.out_edges_bulk_us", frontier_gather)
    record("graph.reachable_from_ms", bfs)
    record("graph.matvec_bytes_computed", matvec_bytes)

    # diffusion
    builds = calls["diffusion.build"]
    record("diffusion.edges", lambda: sum(len(dg.edges) for _, (_, dg) in builds))
    graphs = [dg for _, (_, dg) in builds]
    record("diffusion.build_us_per_cascade", lambda: 1e6 * metrics["diffusion.build_s"] / len(builds))
    record("diffusion.seeds", lambda: sum(len(dg.seeds) for dg in graphs[:len(kept_logs)]))
    record("diffusion.missing_users",
           lambda: sum(not network.has_node(user) for log in kept_logs for user, _ in log.events))

    # deletion: plan self time excludes the graph spans beneath it
    plans = calls["deletion.plan_strategy"]
    metrics["deletion.plan_s"] = sum(self_time[index] for index, _ in plans)
    record("deletion.plan_edges", lambda: sum(len(plan.ranked_edges) for _, (_, plan) in plans))
    record("deletion.zero_score_edges",
           lambda: sum(score == 0.0 for _, (s, plan) in plans if s != "random" for score in plan.scores))

    def useful_ratio():
        # Follow edge (u, v) blocks diffusion edge (v, u).
        blockable = {(child, parent) for dg in graphs for parent, child in dg.edges}
        ranked = [edge for _, (_, plan) in plans for edge in plan.ranked_edges]
        return sum(edge in blockable for edge in ranked) / len(ranked)

    record("deletion.useful_ratio", useful_ratio)

    # estimator
    row_counts = kept("estimator.estimate_rows")
    record("estimator.estimates", lambda: sum(row_counts))
    record("estimator.ms_per_budget_point", lambda: 1e3 * layer_self["estimator"] / len(row_counts))
    record("estimator.us_per_estimate",
           lambda: 1e6 * metrics["estimator.estimate_rows_s"] / metrics["estimator.estimates"])

    # experiment
    record("experiment.output_bytes", lambda: sum(p.stat().st_size for p in Path(opts["--out"]).iterdir()))
    metrics["tracing.spans"] = float(len(tracer.spans))

    result_path.with_suffix(".spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    # The parent subtracts the time spent here after the sweep from the
    # process wall time to get the traced sweep's own wall time.
    result = {"missing": missing, "unavailable": unavailable, "metrics": metrics,
              "extras_s": time.perf_counter() - extras_start}
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
