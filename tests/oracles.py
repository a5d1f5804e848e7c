"""Brute-force reference implementations used to check the real algorithms.

Everything here is deliberately naive (dictionary DFS, per-pair path
counting, dense eigensolvers, double loops over user pairs) and shares no
code with the package, so agreement is meaningful.  The exceptions are
:func:`per_budget_sweep`, the sweep computed one budget point at a time
through the package's direct single-budget path,
:func:`reference_build_graph`, the earlier list-based graph build, which
hands its arrays to the package's ``DirectedGraph``,
:func:`list_load_cascades`, the earlier list loader over the package's line
scanner, and :func:`list_estimate_budgets`, the earlier bottleneck pass over
a list of per-cascade graphs.
"""

from __future__ import annotations

import csv
import random
from collections import defaultdict
from pathlib import Path

import numpy as np

from cascadecut.deletion import plan_strategy
from cascadecut.diffusion import build_variant
from cascadecut.estimator import (
    NEVER_DELETED,
    CascadeResult,
    EstimateReport,
    apply_deletion,
    estimate_size,
    write_report_csv,
)
from cascadecut.errors import InputError
from cascadecut.experiment import SUMMARY_HEADER, budget_for, load_dataset
from cascadecut.graph import DirectedGraph
from cascadecut.ingest import CascadeLog, _scan, _timestamp


def adjacency(edges):
    adj = defaultdict(list)
    for src, dst in edges:
        adj[src].append(dst)
    return adj


def closure_from(edges, sources):
    """Reachable set via repeated single-source DFS."""
    adj = adjacency(edges)
    reached = set()
    for source in sources:
        stack = [source]
        while stack:
            node = stack.pop()
            if node in reached:
                continue
            reached.add(node)
            stack.extend(w for w in adj[node] if w not in reached)
    return reached


def bfs_levels(adj, source):
    """(distance map, shortest-path count map) from one source."""
    dist = {source: 0}
    count = {source: 1.0}
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
                if dist[w] == dist[v] + 1:
                    count[w] = count.get(w, 0.0) + count[v]
        frontier = nxt
    return dist, count


def path_count_betweenness(nodes, edges):
    """Edge betweenness by explicit per-pair path counting.

    For each ordered pair (s, t), counts shortest s->t paths through every
    edge with a forward count DP from s and a backward count DP to t.
    """
    adj = adjacency(edges)
    scores = {edge: 0.0 for edge in edges}
    for s in nodes:
        dist, fwd = bfs_levels(adj, s)
        for t in dist:
            if t == s:
                continue
            dt = dist[t]
            back = {t: 1.0}
            for v in sorted((v for v in dist if dist[v] < dt), key=lambda v: -dist[v]):
                total = 0.0
                for w in adj[v]:
                    if w in dist and dist[w] == dist[v] + 1:
                        total += back.get(w, 0.0)
                back[v] = total
            assert abs(back[s] - fwd[t]) < 1e-6, "path-count DP out of balance"
            for u, v in edges:
                if u in dist and v in dist and dist[v] == dist[u] + 1:
                    through = fwd[u] * back.get(v, 0.0)
                    if through:
                        scores[(u, v)] += through / fwd[t]
    return scores


def all_pairs_distance_sum(nodes, edges):
    """Sum of shortest-path lengths over ordered reachable pairs (s != t)."""
    adj = adjacency(edges)
    total = 0
    for s in nodes:
        dist, _ = bfs_levels(adj, s)
        total += sum(d for t, d in dist.items() if t != s)
    return total


def dense_spectral_radius(nodes, edges):
    """Largest-magnitude adjacency eigenvalue from a dense QR eigensolver."""
    order = sorted(nodes)
    index = {node: i for i, node in enumerate(order)}
    matrix = np.zeros((len(order), len(order)))
    for src, dst in edges:
        matrix[index[src], index[dst]] = 1.0
    if not len(order):
        return 0.0
    return float(np.abs(np.linalg.eigvals(matrix)).max())


def spread_rule_edges(follow_edges, tau):
    """Diffusion edges by the direct double loop over participant pairs.

    (u, v) is an edge when v follows u and u's timestamp is strictly
    smaller than v's.
    """
    follows = set(follow_edges)
    users = list(tau)
    result = set()
    for u in users:
        for v in users:
            if u != v and (v, u) in follows and tau[u] < tau[v]:
                result.add((u, v))
    return result


def single_parent_edges(follow_edges, tau, latest):
    """Per-user argmin/argmax scan over qualifying parents."""
    result = set()
    candidates = spread_rule_edges(follow_edges, tau)
    by_child = defaultdict(list)
    for parent, child in candidates:
        by_child[child].append(parent)
    for child, parents in by_child.items():
        if latest:
            best = min(parents, key=lambda p: (-tau[p], p))
        else:
            best = min(parents, key=lambda p: (tau[p], p))
        result.add((best, child))
    return result


def indegree_zero(nodes, edges):
    with_incoming = {dst for _, dst in edges}
    return set(nodes) - with_incoming


def random_digraph(rng: random.Random, n, p, prefix="u"):
    """(node ids, edge list) of a G(n, p) digraph without self-loops."""
    nodes = [f"{prefix}{i:03d}" for i in range(n)]
    edges = [(a, b) for a in nodes for b in nodes if a != b and rng.random() < p]
    return nodes, edges


def per_budget_sweep(config, out_dir: Path) -> None:
    """Write a sweep's report and summary files one budget point at a time.

    For every (strategy, variant, budget): take the plan prefix, cut each
    cascade with ``apply_deletion`` and count with ``estimate_size``.  File
    names and formats follow ``run_sweep``; plan files are not written.
    """
    network, logs = load_dataset(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    budgets = [budget_for(f, network.edge_count) for f in config.budget_fractions]
    summary = []
    for strategy in config.strategies:
        plan = plan_strategy(network, strategy, max(budgets), rng_seed=config.rng_seed)
        for variant in config.variants:
            graphs = [build_variant(network, log, variant) for log in logs]
            for fraction, k in zip(config.budget_fractions, budgets):
                sub = plan.prefix(k)
                rows = [
                    CascadeResult(
                        dg.cascade_id,
                        len(dg.nodes),
                        estimate_size(apply_deletion(dg, sub), dg.seeds),
                        len(dg.seeds),
                    )
                    for dg in graphs
                ]
                report = EstimateReport.from_rows(strategy, variant, k, rows)
                write_report_csv(report, out_dir / f"report_{strategy}_{variant}_{fraction:g}.csv")
                summary.append(
                    (strategy, variant, k, f"{fraction:g}", report.total_estimated, report.total_original)
                )
    with open(out_dir / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER)
        writer.writerows(summary)


def reference_build_graph(edges, nodes=()):
    """The list-based graph build that streaming ``build_graph`` replaced.

    Materialises the edges, collects the id set, indexes each endpoint
    through a dict and deduplicates with ``np.unique``.
    """
    edge_list = list(edges)
    id_set = set(nodes)
    for src, dst in edge_list:
        id_set.add(src)
        id_set.add(dst)
    for ext in id_set:
        if not isinstance(ext, str):
            raise InputError(f"node ids must be strings, got {ext!r}")
    external_ids = tuple(sorted(id_set))
    n = len(external_ids)
    index = {ext: i for i, ext in enumerate(external_ids)}
    if edge_list and n:
        src = np.fromiter((index[s] for s, _ in edge_list), dtype=np.int64, count=len(edge_list))
        dst = np.fromiter((index[d] for _, d in edge_list), dtype=np.int64, count=len(edge_list))
        keep = src != dst
        codes = np.unique(src[keep] * np.int64(n) + dst[keep])
        src, dst = codes // n, codes % n
    else:
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
    return DirectedGraph(external_ids, src, dst)


def list_load_cascades(stream, strict=False):
    """The list loader that the cascade table replaced: one ``CascadeLog`` per
    cascade id, in first-appearance order, read through the line scanner."""
    grouped = {}
    for lineno, (cascade_id, user, ts_text) in _scan(stream, 3, "event", strict):
        grouped.setdefault(cascade_id, []).append((user, _timestamp(lineno, ts_text)))
    return [CascadeLog.from_events(cid, events) for cid, events in grouped.items()]


def list_estimate_budgets(graphs, ranks, budgets):
    """The bottleneck pass over a list of ``DiffusionGraph`` that the batch replaced.

    Concatenates the graphs' edge arrays, numbers the (cascade, child) slots
    with ``np.unique`` and relaxes max-min offers to the fixed point.
    """
    if any(k < 0 for k in budgets):
        raise InputError("deletion budget k must be >= 0")

    def concat(arrays):
        return np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)

    cascade = np.repeat(np.arange(len(graphs)), [dg.child_ids.size for dg in graphs])
    parent = concat([dg.parent_ids for dg in graphs])
    child = concat([dg.child_ids for dg in graphs])
    rank = ranks[concat([dg.follow_edge_pos for dg in graphs])]

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
