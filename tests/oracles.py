"""Brute-force reference implementations used to check the real algorithms.

Everything here is deliberately naive (dictionary DFS, per-pair path
counting, dense eigensolvers, double loops over user pairs) and shares no
code with the package, so agreement is meaningful.  The exceptions are
:func:`per_budget_sweep`, the sweep computed one budget point at a time
through the package's direct single-budget path,
:func:`reference_build_graph`, the earlier list-based graph build, which
hands its arrays to the package's ``DirectedGraph``,
:func:`list_load_cascades`, the earlier list loader over the package's line
scanner, :func:`list_estimate_budgets`, the earlier bottleneck pass over
a list of per-cascade graphs, the earlier list shuffle of the random plan
(:func:`shuffled_prefix`), the earlier string-pair plans
(:func:`string_plan`, :func:`string_plan_ranks`, :func:`string_save_plan`),
which score with the package's eigensolver and betweenness, and the
earlier ingest and index builds (:func:`lexsort_cascade_table` over the
package's string interning, :func:`eager_reverse_index`,
:func:`dict_edge_positions`).
"""

from __future__ import annotations

import csv
import random
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from cascadecut.deletion import RANDOM, plan_strategy
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
from cascadecut.graph import DirectedGraph, betweenness_scores, leading_eigenpair, sorted_codes
from cascadecut.ingest import CascadeLog, CascadeTable, _scan, _timestamp


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


def lexsort_cascade_table(cascade_ids, cascade, users, time):
    """The cascade-table builder that the one-sort builder replaced.

    Interns the user strings through ``sorted_codes``, orders the events
    with a 3-key ``lexsort`` by (cascade, user, time) and keeps each
    (cascade, user) pair's first event.
    """
    user_ids, user = sorted_codes(users)
    order = np.lexsort((time, user, cascade))
    cascade, user = cascade[order], user[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (cascade[1:] != cascade[:-1]) | (user[1:] != user[:-1])
    return CascadeTable(cascade_ids, user_ids, cascade[first], user[first], time[order[first]])


def text_rank(values):
    """Distinct ids of integer ``values`` sorted by their text, and each value's index."""
    ids = sorted(set(map(str, values)))
    index = {ext: i for i, ext in enumerate(ids)}
    return ids, [index[str(v)] for v in values]


def eager_reverse_index(network):
    """The reverse CSR that graphs built eagerly: (indptr, sources, edge positions) by (dst, src)."""
    src, dst = network.edge_src_indices, network.edge_dst_indices
    perm = np.lexsort((src, dst))
    indptr = np.zeros(network.node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=network.node_count), out=indptr[1:])
    return indptr, src[perm], perm


def dict_edge_positions(network, pairs):
    """Edge positions through the two dict passes that the vectorised lookup replaced."""
    index = {ext: i for i, ext in enumerate(network.external_ids)}
    position = {edge: pos for pos, edge in enumerate(zip(network.edge_src_indices.tolist(),
                                                          network.edge_dst_indices.tolist()))}
    return [position.get((index.get(src, -1), index.get(dst, -1)), -1) for src, dst in pairs]


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


def shuffled_prefix(size, k, rng_seed):
    """The earlier random plan: the first k of a shuffled ``list(range(size))``."""
    order = list(range(size))
    random.Random(rng_seed).shuffle(order)
    return order[:k]


class StringPlan(NamedTuple):
    """The earlier plan: ranked (src, dst) external-id pairs and their scores."""

    strategy: str
    k: int
    ranked_edges: tuple[tuple[str, str], ...]
    scores: tuple[float, ...]
    rng_seed: int | None = None


def string_plan(network, strategy, k, rng_seed=0):
    """The earlier plan builders: one string pair and one float per ranked edge.

    Ties are broken by ``np.lexsort((dst, src, -scores))``; the random plan
    is the prefix of one ``random.Random(rng_seed)`` shuffle.
    """
    ids = network.external_ids
    src, dst = network.edge_src_indices, network.edge_dst_indices
    cut = min(k, network.edge_count)
    if strategy == RANDOM:
        ranked = tuple((ids[src[i]], ids[dst[i]]) for i in shuffled_prefix(network.edge_count, cut, rng_seed))
        return StringPlan(strategy, k, ranked, (0.0,) * cut, rng_seed)
    if cut == 0:
        return StringPlan(strategy, k, (), ())
    if strategy == "netmelt":
        pair = leading_eigenpair(network)
        scores = pair.left_vector[src] * pair.right_vector[dst]
    elif strategy == "betweenness":
        scores = betweenness_scores(network)
    else:
        scores = np.array([float(network.in_degree(a) * network.out_degree(b)) for a, b in network.edges()])
    top = np.lexsort((dst, src, -scores))[:cut].tolist()
    ranked = tuple((ids[src[i]], ids[dst[i]]) for i in top)
    return StringPlan(strategy, k, ranked, tuple(float(scores[i]) for i in top))


def string_plan_ranks(network, plan):
    """(ranks, warning) the earlier way: a dict lookup per ranked string pair.

    ``warning`` is the text of the one WARNING for unknown edges, or None.
    """
    position = {edge: i for i, edge in enumerate(network.edges())}
    ranks = np.full(network.edge_count, NEVER_DELETED, dtype=np.int64)
    unknown = 0
    for rank, edge in enumerate(plan.ranked_edges):
        if edge not in position:
            unknown += 1
        elif ranks[position[edge]] == NEVER_DELETED:
            ranks[position[edge]] = rank
    warning = None
    if unknown:
        warning = (
            f"{plan.strategy} plan: {unknown} of {len(plan.ranked_edges)} edge(s) "
            "not in the follow network; they delete nothing"
        )
    return ranks, warning


def string_save_plan(plan, path):
    """The earlier plan writer, from the string pairs."""
    seed_text = "" if plan.rng_seed is None else str(plan.rng_seed)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{plan.strategy},{plan.k},{seed_text}\n")
        for (src, dst), score in zip(plan.ranked_edges, plan.scores):
            fh.write(f"{src}\t{dst}\t{score!r}\n")
