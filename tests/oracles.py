"""Brute-force reference implementations used to check the real algorithms.

Everything here is deliberately naive (dictionary DFS, per-pair path
counting, dense eigensolvers, double loops over user pairs) and shares no
code with the package, so agreement is meaningful.  :func:`size_after`
cuts a cascade's string edges by set difference and counts with
:func:`closure_from`, and :func:`per_budget_sweep` computes a sweep one
budget point at a time with it and writes its files with its own
``csv.writer``; both read their graphs through :func:`build_variant` and
their plans through the package's ``ranked_edges``.  :func:`serial_sweep`
is the earlier ``run_sweep``, which read the cascades before it planned,
over the package's planner, plan cache, estimator and writers.
:func:`build_variant` is the tests' string view of a batch (one :class:`DiffusionGraph` per
cascade, read off :func:`batch_of`, the package's ``build_batches`` for
one variant), and :func:`graph_dot` the earlier DOT renderer of one such
graph.  The other
exceptions are :func:`reference_build_graph`, the earlier list-based graph
build, which hands the arrays of :func:`reference_edge_arrays` to the
package's ``DirectedGraph``,
:func:`list_load_cascades`, the earlier list loader over
:func:`whole_file_scan`, :func:`list_load_higgs_activity`,
:func:`list_estimate_budgets`, the earlier bottleneck pass over
per-cascade arrays, each from its own :func:`batch_of`, the earlier list
shuffle of the random plan (:func:`shuffled_prefix`), the earlier
string-pair plans (:func:`string_plan`, :func:`string_plan_ranks`,
:func:`string_save_plan`), which score with the package's eigensolver and
betweenness, and the earlier ingest and index builds
(:func:`lexsort_cascade_table` over the package's string interning,
:func:`eager_reverse_index`, :func:`dict_edge_positions`), the earlier
Brandes pass that read in-edges through that reverse index
(:func:`two_gather_betweenness`), and the earlier
join of participants with their follow edges (:func:`unfiltered_candidates`)
over the package's cascade table and edge gather.  The earlier bulk
readers' two passes per block live on as :func:`regular_block` (the
regularity check), :func:`plain_decimal` (the test of a decimal id that
the integer paths take), :func:`block_ints` (the ``np.fromstring`` parse) and
:func:`split_events` (the ``str.split`` of an event block); with them,
:func:`two_pass_read_network` is the earlier bulk edge reader, over the
package's block cutter and id ranking.  :func:`string_fingerprint` is the
network digest computed from the id strings, and :func:`line_load_plan` the
earlier per-line plan reader, its edges resolved by :func:`dict_edge_positions`.
:func:`space_cut_decimals` is the earlier tokenizer of ``decimal_values``:
tokens joined by spaces and cut at them, over the package's digit parser.
:func:`two_phase_power` is the earlier power iteration, a plain phase and a
shifted restart run by one phase function; :func:`lexsort_single_parent`
the earlier tree-variant parent choice by a three-key ``lexsort``.
:func:`graph_edges` and :func:`load_follow_edges` are the id-pair views of
a network and of an edge file that tests compare with; the oracles read a
network's edge sources through :func:`slot_sources`, off its out-edge
slices, not through ``edge_sources``.
:func:`whole_file_scan` is the earlier line scanner, which read files
line by line in Python; with ``reference_build_graph``,
:func:`list_load_cascades` and :func:`list_load_higgs_activity` (the
earlier activity record loop) it is the oracle of the loaders' byte pass.
:class:`CascadeLog` is the string-level cascade record (earliest event per
user, in (time, user) order) that cascade tables are checked against:
:func:`table_of` builds a table from logs without the package's ingest,
:func:`logs_of` reads a table back, and :func:`string_variant` builds one
cascade's diffusion graph from its string events by the pairwise rule.
:func:`prefix` is the earlier ``DeletionPlan.prefix``: a plan cut to a
smaller budget.  :func:`run_estimation` is the earlier
``estimator.run_estimation``, one whole plan's report made of the sweep's
own calls.
"""

from __future__ import annotations

import csv
import logging
import math
import random
from hashlib import blake2b
from itertools import chain
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from cascadecut.deletion import (
    RANDOM, STRATEGIES, DeletionPlan, cached_plan, plan_paths, plan_strategy, save_plan_cache,
)
from cascadecut.diffusion import NON_TREE, TREE_LAST, build_batches
from cascadecut.estimator import (
    NEVER_DELETED, EstimateReport, estimate_budgets, plan_ranks, write_csv, write_report_csv,
)
from cascadecut.errors import ConvergenceError, InputError, ParseError
from cascadecut.experiment import SUMMARY_HEADER, budget_for, load_dataset
from cascadecut.graph import MAX_DIGITS, DirectedGraph, betweenness_scores, leading_eigenpair
from cascadecut.ingest import (
    CascadeTable,
    _blocks,
    _decimals,
    _rank_ids,
    _timestamp,
    decimal_values,
    edge_keys,
    graph_from_keys,
    sorted_codes,
)

# The package's logger, so that the frozen scanner's records read like the package's.
ingest_logger = logging.getLogger("cascadecut.ingest")


@dataclass(frozen=True)
class CascadeLog:
    """Events of one cascade as strings: the string-level record that cascade
    tables are checked against.

    Holds at most one event per user (earliest timestamp wins) and keeps
    events sorted by (timestamp, user id).
    """

    cascade_id: str
    events: tuple[tuple[str, int], ...]

    @classmethod
    def from_events(cls, cascade_id, events):
        """Canonicalise raw (user, timestamp) pairs into a CascadeLog."""
        earliest = {}
        for user, ts in events:
            if user not in earliest or ts < earliest[user]:
                earliest[user] = ts
        return cls(cascade_id, tuple(sorted(earliest.items(), key=lambda item: (item[1], item[0]))))

    @property
    def size(self):
        return len(self.events)

    def users(self):
        return [user for user, _ in self.events]


def table_of(logs):
    """The cascade table of ``logs``, in order, built from their strings
    through the ``CascadeTable`` constructor: the user ids sorted, held as
    int64 values when every one is a plain decimal (1 to 18 ASCII digits,
    no leading zero) as ``load_cascades`` holds them, and the events in
    (cascade, user) order.  Empty logs and repeated cascade ids are kept."""
    logs = list(logs)
    users = sorted({user for log in logs for user, _ in log.events})
    index = {user: i for i, user in enumerate(users)}
    rows = sorted((c, index[user], ts) for c, log in enumerate(logs) for user, ts in log.events)
    cascade, user, time = (np.array([row[i] for row in rows], dtype=np.int64) for i in range(3))
    plain = all(map(plain_decimal, users))
    user_ids = np.array([int(u) for u in users], dtype=np.int64) if users and plain else tuple(users)
    return CascadeTable(tuple(log.cascade_id for log in logs), user_ids, cascade, user, time)


def logs_of(table):
    """Each cascade of ``table`` as a CascadeLog, its events as the table holds
    them (one per user is not enforced) in (timestamp, user id) order."""
    users = table.users
    events = [[] for _ in table.cascade_ids]
    for cascade, user, ts in zip(table.cascade.tolist(), table.user.tolist(), table.time.tolist()):
        events[cascade].append((users[user], ts))
    return [
        CascadeLog(cascade_id, tuple(sorted(mine, key=lambda event: (event[1], event[0]))))
        for cascade_id, mine in zip(table.cascade_ids, events)
    ]


def batch_of(network, table, variant):
    """One variant's ``DiffusionBatch``: the package's ``build_batches`` for it alone."""
    return build_batches(network, table, [variant])[variant]


@dataclass(frozen=True)
class DiffusionGraph:
    """One cascade's spread graph in external ids: edge (u, v) means it
    spread from u to v.  The string view that tests compare with; the
    package reads its ``DiffusionBatch`` arrays instead.
    """

    cascade_id: str
    variant: str
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]
    seeds: frozenset[str]


def build_variant(network, table, variant):
    """Each cascade's diffusion graph with string nodes, edges and seeds, in table order.

    Nodes are the cascade's users from the table's id table, edges its
    batch edges in the network's ids, and seeds the nodes no edge reaches.
    """
    batch = batch_of(network, table, variant)
    ids, users = network.external_ids, table.users
    bounds = np.arange(len(table) + 1)
    events = np.searchsorted(table.cascade, bounds).tolist()
    spread = np.searchsorted(batch.owner[batch.child_slot], bounds).tolist()
    parent, child = batch.node[batch.parent_slot].tolist(), batch.node[batch.child_slot].tolist()
    user = table.user.tolist()
    graphs = []
    for i, cascade_id in enumerate(table.cascade_ids):
        lo, hi = spread[i], spread[i + 1]
        nodes = frozenset(users[u] for u in user[events[i] : events[i + 1]])
        edges = frozenset((ids[p], ids[c]) for p, c in zip(parent[lo:hi], child[lo:hi]))
        seeds = nodes - {ids[c] for c in child[lo:hi]}
        graphs.append(DiffusionGraph(cascade_id, variant, nodes, edges, seeds))
    return graphs


def graph_dot(dg):
    """The earlier DOT renderer of one string view: seed nodes filled light
    green, ids as DOT quoted strings with ``\\`` and ``"`` escaped."""
    lines = [f"digraph {_dot_id(dg.cascade_id)} {{"]
    for node in sorted(dg.nodes):
        if node in dg.seeds:
            lines.append(f"  {_dot_id(node)} [style=filled, fillcolor=lightgreen];")
        else:
            lines.append(f"  {_dot_id(node)};")
    for src, dst in sorted(dg.edges):
        lines.append(f"  {_dot_id(src)} -> {_dot_id(dst)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_id(text):
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def slot_sources(network):
    """Each canonical edge's source, read off every node's out-edge slice
    through ``out_edge_slots`` rather than ``edge_sources``."""
    slot, pos = network.out_edge_slots(np.arange(network.node_count))
    sources = np.empty(network.edge_count, dtype=np.int64)
    sources[pos] = slot
    return sources


def graph_edges(network):
    """The network's edges as (src, dst) id pairs, in canonical order."""
    ids = network.external_ids
    return [(ids[s], ids[d]) for s, d in zip(slot_sources(network).tolist(), network.edge_dst_indices.tolist())]


def whole_file_scan(stream, width, kind, strict):
    """The earlier line scanner, which read every file that had one
    irregular block from its first line: yield (line number, fields) for
    each record line with ``width`` fields.

    Blank lines and ``#`` comments are skipped.  Lines with another field
    count are skipped and counted, with one WARNING naming the first once the
    stream is exhausted; with ``strict`` the first raises ``ParseError``.
    """
    records = 0
    malformed = 0
    first_bad = ""
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != width:
            if strict:
                raise ParseError(f"line {lineno}: expected {width} fields, got {len(fields)}: {line!r}")
            malformed += 1
            if not first_bad:
                first_bad = f"line {lineno}: {line!r}"
            continue
        records += 1
        yield lineno, fields
    if malformed:
        ingest_logger.warning("skipped %d malformed %s line(s); first: %s", malformed, kind, first_bad)
    ingest_logger.info("read %d %s record(s) with the line scanner", records, kind)


def load_follow_edges(stream, strict=False):
    """Follower->followee pairs of an edge file, in file order, duplicates
    kept, read by the whole-file scanner."""
    return [(src, dst) for _, (src, dst) in whole_file_scan(stream, 2, "edge", strict)]


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


def string_variant(follow_edges, log, variant):
    """One cascade's diffusion graph from its string events: every user a
    node, the edges of :func:`spread_rule_edges` (or of
    :func:`single_parent_edges` for a tree variant), and as seeds the users
    no edge reaches."""
    tau = dict(log.events)
    if variant == NON_TREE:
        edges = spread_rule_edges(follow_edges, tau)
    else:
        edges = single_parent_edges(follow_edges, tau, latest=variant == TREE_LAST)
    nodes = frozenset(tau)
    return DiffusionGraph(log.cascade_id, variant, nodes, frozenset(edges), frozenset(indegree_zero(nodes, edges)))


def random_digraph(rng: random.Random, n, p, prefix="u"):
    """(node ids, edge list) of a G(n, p) digraph without self-loops."""
    nodes = [f"{prefix}{i:03d}" for i in range(n)]
    edges = [(a, b) for a in nodes for b in nodes if a != b and rng.random() < p]
    return nodes, edges


def cut_edges(dg, plan):
    """The diffusion graph's edges left after the plan: follow edge (u, v) blocks (v, u)."""
    return dg.edges - {(v, u) for u, v in filter(None, plan.ranked_edges)}


def prefix(plan, k):
    """The same ranking truncated to budget ``k``, as a plan of its own."""
    return replace(plan, k=k, edge_pos=plan.edge_pos[:k], scores=plan.scores[:k])


def run_estimation(network, table, plan, variant):
    """The report of one variant's cascades of ``table`` with every edge the plan lists deleted."""
    (batch,) = build_batches(network, table, [variant]).values()
    (estimated,) = estimate_budgets(batch, plan_ranks(network, plan), [plan.edge_pos.size])
    return EstimateReport(plan.strategy, variant, plan.k, batch.cascade_ids, batch.sizes, estimated, batch.seed_counts)


def size_after(dg, plan, seeds=None):
    """Users reachable from ``seeds`` (the graph's own by default) after the plan's cut."""
    seeds = dg.seeds if seeds is None else set(seeds)
    unknown = seeds - dg.nodes
    if unknown:
        raise InputError(f"seed users not in the diffusion graph: {sorted(unknown)[:5]}")
    return len(closure_from(cut_edges(dg, plan), seeds))


def per_budget_sweep(config, out_dir: Path) -> None:
    """Write a sweep's report and summary files one budget point at a time.

    For every (strategy, variant, budget): take the plan prefix and count
    each cascade with :func:`size_after`.  File names and formats follow
    ``run_sweep``: report rows in cascade-id order (Python ``str`` order),
    quoted as ``csv.writer`` quotes; plan files are not written.
    """
    network, table = load_dataset(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    budgets = [budget_for(f, network.edge_count) for f in config.budget_fractions]
    summary = []
    for strategy in config.strategies:
        plan = plan_strategy(network, strategy, max(budgets), rng_seed=config.rng_seed)
        for variant in config.variants:
            graphs = sorted(build_variant(network, table, variant), key=lambda dg: dg.cascade_id)
            for fraction, k in zip(config.budget_fractions, budgets):
                sub = prefix(plan, k)
                rows = [
                    (strategy, variant, k, dg.cascade_id, len(dg.nodes), size_after(dg, sub), len(dg.seeds))
                    for dg in graphs
                ]
                _write_rows(
                    out_dir / f"report_{strategy}_{variant}_{fraction:g}.csv",
                    ("strategy", "variant", "k", "cascade_id", "original_size", "estimated_size", "seed_count"),
                    rows,
                )
                summary.append(
                    (strategy, variant, k, f"{fraction:g}", sum(r[5] for r in rows), sum(r[4] for r in rows))
                )
    _write_rows(
        out_dir / "summary.csv",
        ("strategy", "variant", "k", "fraction", "total_estimated", "total_original"),
        summary,
    )


def serial_sweep(config) -> list[Path]:
    """The earlier ``run_sweep``, one step after another on one thread.

    It reads both inputs and creates the output directory before the first
    plan, then for each strategy in turn reuses or computes and caches the
    plan and writes its reports, and last the summary.  A plan error is
    raised as the planner raised it.
    """
    network, table = load_dataset(config)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    batches = build_batches(network, table, config.variants)
    budgets = [budget_for(f, network.edge_count) for f in config.budget_fractions]
    written, summary = [], []
    for strategy in config.strategies:
        cache, _ = plan_paths(config.out_dir, strategy)
        plan = None
        if cache.exists():
            plan, _ = cached_plan(cache, network, strategy, config.rng_seed, min(max(budgets), network.edge_count))
        if plan is None:
            plan = plan_strategy(network, strategy, max(budgets), rng_seed=config.rng_seed)
            save_plan_cache(plan, cache)
        written.append(cache)
        ranks = plan_ranks(network, plan)
        for variant, batch in batches.items():
            estimated = estimate_budgets(batch, ranks, budgets)
            for fraction, k, sizes in zip(config.budget_fractions, budgets, estimated):
                report = EstimateReport(strategy, variant, k, batch.cascade_ids, batch.sizes, sizes, batch.seed_counts)
                path = config.out_dir / f"report_{strategy}_{variant}_{fraction:g}.csv"
                write_report_csv(report, path)
                written.append(path)
                summary.append((strategy, variant, k, f"{fraction:g}", report.total_estimated, report.total_original))
    write_csv(config.out_dir / "summary.csv", SUMMARY_HEADER, summary)
    return [*written, config.out_dir / "summary.csv"]


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def reference_build_graph(edges, nodes=()):
    """The list-based graph build that the package's network readers
    replaced: the graph of :func:`reference_edge_arrays`."""
    return DirectedGraph(*reference_edge_arrays(edges, nodes))


def reference_edge_arrays(edges, nodes=()):
    """(sorted external ids, sources, destinations) of the list-based build.

    Materialises the edges, collects the id set (with ``nodes``, the only
    way the tests build isolated nodes), indexes each endpoint through a
    dict and deduplicates with ``np.unique``.
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
    return external_ids, src, dst


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
    src, dst = slot_sources(network), network.edge_dst_indices
    perm = np.lexsort((src, dst))
    indptr = np.zeros(network.node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=network.node_count), out=indptr[1:])
    return indptr, src[perm], perm


def two_gather_betweenness(network):
    """The earlier Brandes pass: each BFS level gathers its out-edges, and
    the back-propagation gathers each layer's in-edges from
    :func:`eager_reverse_index`, sums by ``np.add.at``; the edge
    betweenness in canonical edge order."""
    n = network.node_count
    src, dst = slot_sources(network), network.edge_dst_indices
    fwd_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=fwd_indptr[1:])
    rev_indptr, rev_sources, rev_pos = eager_reverse_index(network)

    def gather(indptr, nodes):
        """(each node repeated per its slice entry, the entries' positions)."""
        spans = [np.arange(indptr[u], indptr[u + 1]) for u in nodes.tolist()]
        return np.repeat(nodes, np.diff(indptr)[nodes]), np.concatenate([np.empty(0, dtype=np.int64), *spans])

    scores = np.zeros(network.edge_count)
    for source in range(n):
        depth = np.full(n, -1, dtype=np.int64)
        sigma, delta = np.zeros(n), np.zeros(n)
        depth[source], sigma[source] = 0, 1.0
        frontier = np.array([source], dtype=np.int64)
        layers, level = [frontier], 0
        while True:
            srcs, pos = gather(fwd_indptr, frontier)
            dsts = dst[pos]
            if dsts.size == 0:
                break
            new_nodes = np.unique(dsts[depth[dsts] == -1])
            depth[new_nodes] = level + 1
            on_dag = depth[dsts] == level + 1
            if on_dag.any():
                np.add.at(sigma, dsts[on_dag], sigma[srcs[on_dag]])
            if new_nodes.size == 0:
                break
            layers.append(new_nodes)
            frontier = new_nodes
            level += 1
        for layer in layers[:0:-1]:
            targets, at = gather(rev_indptr, layer)
            preds, edge_pos = rev_sources[at], rev_pos[at]
            on_dag = depth[preds] == depth[targets] - 1
            if on_dag.any():
                v, w, pos = preds[on_dag], targets[on_dag], edge_pos[on_dag]
                contrib = sigma[v] / sigma[w] * (1.0 + delta[w])
                np.add.at(scores, pos, contrib)
                np.add.at(delta, v, contrib)
    return scores


def dict_edge_positions(network, pairs):
    """Edge positions through the two dict passes that the vectorised lookup replaced."""
    index = {ext: i for i, ext in enumerate(network.external_ids)}
    position = {edge: pos for pos, edge in enumerate(zip(slot_sources(network).tolist(),
                                                          network.edge_dst_indices.tolist()))}
    return [position.get((index.get(src, -1), index.get(dst, -1)), -1) for src, dst in pairs]


def list_load_cascades(stream, strict=False):
    """The list loader that the cascade table replaced: one ``CascadeLog`` per
    cascade id, in sorted id order, read by the whole-file scanner."""
    grouped = {}
    for lineno, (cascade_id, user, ts_text) in whole_file_scan(stream, 3, "event", strict):
        grouped.setdefault(cascade_id, []).append((user, _timestamp(lineno, ts_text)))
    return [CascadeLog.from_events(cid, events) for cid, events in sorted(grouped.items())]


def list_load_higgs_activity(stream, cascade_id="higgs", interactions=frozenset({"RT"}), strict=False):
    """The earlier activity record loop over the whole-file scanner: one
    ``CascadeLog`` of the acting users of the rows of a picked kind (any
    kind when ``interactions`` is empty), or none when no row is picked.  A
    row of another kind is dropped before its timestamp is read."""
    events = [
        (user, _timestamp(lineno, ts_text))
        for lineno, (user, _, ts_text, kind) in whole_file_scan(stream, 4, "activity", strict)
        if not interactions or kind in interactions
    ]
    return [CascadeLog.from_events(cascade_id, events)] if events else []


def list_estimate_budgets(network, logs, variant, ranks, budgets):
    """The bottleneck pass over a list of per-cascade graphs that the batch replaced.

    Builds each log's arrays with its own :func:`batch_of` over a one-cascade
    table (see :func:`table_of`), concatenates the dense ids of their edge
    ends, numbers the (cascade, child) slots with ``np.unique`` rather than
    the batch's participant slots, and relaxes max-min offers to the fixed
    point.  Returns the estimated sizes as an
    int64 array, one row per budget and one column per log.
    """
    if any(k < 0 for k in budgets):
        raise InputError("deletion budget k must be >= 0")
    graphs = build_variant(network, table_of(logs), variant)
    batches = [batch_of(network, table_of([log]), variant) for log in logs]

    def concat(arrays):
        return np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)

    cascade = np.repeat(np.arange(len(graphs)), [b.child_slot.size for b in batches])
    parent = concat([b.node[b.parent_slot] for b in batches])
    child = concat([b.node[b.child_slot] for b in batches])
    rank = ranks[concat([b.follow_edge_pos for b in batches])]

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
        out.append([size - cut for size, cut in zip(sizes, lost)])
    return np.array(out, dtype=np.int64).reshape(len(budgets), len(graphs))


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
    src, dst = slot_sources(network), network.edge_dst_indices
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
        edges = graph_edges(network)
        in_degree, out_degree = Counter(b for _, b in edges), Counter(a for a, _ in edges)
        scores = np.array([float(in_degree[a] * out_degree[b]) for a, b in edges])
    top = np.lexsort((dst, src, -scores))[:cut].tolist()
    ranked = tuple((ids[src[i]], ids[dst[i]]) for i in top)
    return StringPlan(strategy, k, ranked, tuple(float(scores[i]) for i in top))


def string_plan_ranks(network, plan):
    """(ranks, warning) the earlier way: a dict lookup per ranked string pair.

    ``warning`` is the text of the one WARNING for unknown edges, or None.
    """
    position = {edge: i for i, edge in enumerate(graph_edges(network))}
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


def unfiltered_candidates(network, table):
    """The join that the participant filter replaced, and its gathered edge count.

    Gathers every participant's follow edges in one pass and looks up each
    edge's parent key ``cascade * n + parent`` by binary search among the
    sorted participant keys of ``table``, with no filter in front.
    """
    node = network.indices_of(table.users)[table.user]
    present = node >= 0
    n = np.int64(network.node_count)
    key = table.cascade[present] * n + node[present]
    tau = table.time[present]
    owner, idx = np.divmod(key, n)
    slot, edge_pos = network.out_edge_slots(idx)
    parent_key = owner[slot] * n + network.edge_dst_indices[edge_pos]
    at = np.searchsorted(key, parent_key)
    qualifies = key.take(at, mode="clip") == parent_key
    qualifies &= tau.take(at, mode="clip") < tau[slot]
    found = (owner, idx, tau, slot[qualifies], at[qualifies], edge_pos[qualifies])
    return found, slot.size


def regular_block(block, width):
    """The earlier regularity check: whether ``block`` is printable ASCII, tab
    and newline without ``#``, with ``width`` fields on every non-blank
    line."""
    if not block.isascii():
        return False
    data = np.frombuffer(f"\n{block}\n".encode("ascii"), dtype=np.uint8)
    token = (data > ord(" ")) & (data < 0x7F) & (data != ord("#"))
    line_end = data == ord("\n")
    if not (token | line_end | (data == ord(" ")) | (data == ord("\t"))).all():
        return False
    starts = np.zeros_like(token)
    np.greater(token[1:], token[:-1], out=starts[1:])
    marks = np.flatnonzero(starts | line_end)
    is_end = line_end[marks]
    fields = np.diff(np.flatnonzero(is_end)) - 1
    return bool(((fields == 0) | (fields == width)).all())


def plain_decimal(token):
    """Whether ``token`` is 1 to 18 ASCII digits without a leading zero."""
    return token.isascii() and token.isdigit() and len(token) <= MAX_DIGITS and str(int(token)) == token


def block_ints(block):
    """The earlier parse of a regular edge block: ``np.fromstring``."""
    # fromstring reads a text of blanks alone as one 0.
    return np.fromstring("" if block.isspace() else block, dtype=np.int64, sep=" ")


def split_events(blocks):
    """The earlier parse of regular event blocks: (cascade ids, users,
    timestamps) by ``str.split``, or None when a timestamp is not an int64."""
    tokens = list(chain.from_iterable(map(str.split, blocks)))
    stamps = tokens[2::3]
    times = decimal_values(stamps)
    if times is None:
        try:
            times = np.array(stamps, dtype=np.int64)
        except (ValueError, OverflowError):
            return None
    return tokens[0::3], tokens[1::3], times


def two_pass_read_network(stream):
    """The earlier bulk edge reader: check every block, then parse each with
    ``np.fromstring``; None when a block is not regular or an id is not a
    plain decimal."""
    blocks = list(_blocks(stream))
    if not all(regular_block(block, 2) and all(map(plain_decimal, block.split())) for block in blocks):
        return None
    values = np.concatenate([np.empty(0, dtype=np.int64), *map(block_ints, blocks)])
    ids, codes = _rank_ids(values)
    return graph_from_keys(tuple(map(str, ids.tolist())), edge_keys(codes, ids.size))


def string_fingerprint(network):
    """The network digest from its id strings: counts, lengths, the UTF-8 text
    of the joined ids, the edge sources (from :func:`slot_sources`) and
    destinations."""
    ids = network.external_ids
    text = "".join(ids).encode("utf-8", "surrogatepass")
    digest = blake2b(np.array([len(ids), len(text), network.edge_count], dtype=np.int64), digest_size=32)
    digest.update(np.fromiter(map(len, ids), dtype=np.int64, count=len(ids)))
    digest.update(text)
    digest.update(slot_sources(network))
    digest.update(network.edge_dst_indices)
    return digest.hexdigest()


def line_load_plan(path, network):
    """The earlier plan reader: one split, float and score check per line,
    edges resolved through :func:`dict_edge_positions`.  The package no
    longer reads plan text; tests read ``save_plan``'s files back with it."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        parts = header.split(",")
        if len(parts) != 3:
            raise ParseError(f"{path}: line 1: bad plan header {header!r}")
        strategy, k_text, seed_text = parts
        if strategy not in STRATEGIES:
            raise ParseError(f"{path}: line 1: unknown strategy {strategy!r} in plan header")
        try:
            k = int(k_text)
            if k < 0:
                raise ValueError
        except ValueError:
            raise ParseError(f"{path}: line 1: bad budget {k_text!r} in plan header") from None
        try:
            seed = int(seed_text) if seed_text else None
        except ValueError:
            raise ParseError(f"{path}: line 1: bad seed {seed_text!r} in plan header") from None
        edges, scores = [], []
        previous = math.inf
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(f"{path}: line {lineno}: expected 3 fields, got {len(fields)}")
            if len(edges) == k:
                raise ParseError(f"{path}: line {lineno}: more plan edges than the header's budget {k}")
            try:
                score = float(fields[2])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: bad score {fields[2]!r}") from None
            if not score <= previous:
                if math.isnan(score):
                    raise ParseError(f"{path}: line {lineno}: score is NaN")
                raise ParseError(f"{path}: line {lineno}: score {score!r} rises above the previous {previous!r}")
            previous = score
            scores.append(score)
            edges.append((fields[0], fields[1]))
    pos = np.array(dict_edge_positions(network, edges), dtype=np.int64)
    return DeletionPlan(strategy, k, network, pos, np.array(scores, dtype=np.float64), rng_seed=seed)


def space_cut_decimals(tokens):
    """The earlier ``decimal_values``: the tokens joined by spaces and cut at
    them, their values when every one is a plain decimal, else None."""
    if not tokens:
        return np.empty(0, dtype=np.int64)
    try:
        text = " ".join(tokens)
    except TypeError:
        return None
    if not text.isascii():
        return None
    data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    # The separators are the only spaces, so they bound the tokens.
    cuts = np.flatnonzero(data == ord(" "))
    if cuts.size != len(tokens) - 1:
        return None
    starts = np.r_[0, cuts + 1]
    return _decimals(data, starts, np.r_[cuts, data.size] - starts, leading_zeros=False)


STALL_WINDOW = 100


class PhaseResult(NamedTuple):
    converged: bool
    value: float
    vector: np.ndarray
    iterations: int
    residual: float
    best_residual: float


def two_phase_power(matvec, n, tolerance, max_iterations):
    """The earlier power iteration: (eigenvalue, unit vector, iterations, residual).

    The plain phase gets half the budget and stops when it stalls; a
    second call of the phase function restarts from the start vector with
    a diagonal shift for the rest of the budget.
    """
    plain_budget = max(1, max_iterations // 2)
    result = power_phase(matvec, n, tolerance, plain_budget, shift=0.0, stall_window=STALL_WINDOW)
    if result.converged:
        return result.value, result.vector, result.iterations, result.residual
    remaining = max_iterations - result.iterations
    if remaining > 0:
        shift = max(1.0, result.value) / 2.0
        damped = power_phase(matvec, n, tolerance, remaining, shift=shift, stall_window=None)
        total = result.iterations + damped.iterations
        if damped.converged:
            return damped.value, damped.vector, total, damped.residual
        best = min(result.best_residual, damped.best_residual)
    else:
        total = result.iterations
        best = result.best_residual
    raise ConvergenceError(
        f"power iteration did not reach tolerance {tolerance:g} within "
        f"{max_iterations} iterations (best residual {best:.3e})",
        best_residual=best,
        iterations=total,
    )


def power_phase(matvec, n, tolerance, budget, shift, stall_window):
    """One phase of :func:`two_phase_power` from the uniform start vector."""
    x = np.full(n, 1.0 / math.sqrt(n))
    best = math.inf
    value = 0.0
    last_improvement = 0
    for step in range(1, budget + 1):
        y = matvec(x)
        if shift:
            y = y + shift * x
        norm_y = math.sqrt(np.add.reduce(y * y))
        if norm_y == 0.0:
            return PhaseResult(True, 0.0, x, step, 0.0, 0.0)
        value = float(np.add.reduce(x * y)) - shift
        r = y - (value + shift) * x
        residual = math.sqrt(np.add.reduce(r * r))
        if residual <= tolerance:
            return PhaseResult(True, value, x, step, residual, residual)
        if residual < best * (1.0 - 1e-3):
            best = residual
            last_improvement = step
        if stall_window is not None and step - last_improvement >= stall_window:
            return PhaseResult(False, value, x, step, residual, best)
        x = y / norm_y
    return PhaseResult(False, value, x, budget, math.inf, best)


def lexsort_single_parent(parents, children, parent_tau, keep_last):
    """The earlier tree-variant parent choice: indices of the candidate kept
    per child, by (child, time or negated time, parent) ``lexsort``."""
    order = np.lexsort((parents, -parent_tau if keep_last else parent_tau, children))
    sorted_children = children[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = sorted_children[1:] != sorted_children[:-1]
    return order[first]
