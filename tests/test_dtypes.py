"""Array dtypes: index arrays are ``graph.INDEX``, value arrays int64, and
the bytes that carry index arrays out of the process are pinned.

Index arrays hold dense node ids, follow-edge positions, participant slots
and cascade or user codes; value arrays hold decimal ids, times, sizes,
counts and plan ranks.  The fingerprint hashes the edge arrays and a plan
cache stores ``edge_pos``, so a change of index width that reaches either
changes the literals below.
"""

from __future__ import annotations

import hashlib
import io
import random
import zipfile

import numpy as np
import pytest

from cascadecut import (
    NETMELT,
    STRATEGIES,
    VARIANTS,
    build_batches,
    estimate_budgets,
    filter_cascades,
    load_cascades,
    load_higgs_activity,
    plan_ranks,
    plan_strategy,
    read_network,
    save_plan_cache,
)
from cascadecut.deletion import cached_plan, plan_paths
from cascadecut.graph import INDEX
from conftest import EIGHT_NODE_FOLLOW_EDGES, decimal_instance, network_of, random_logs
from oracles import random_digraph


def assert_dtype(dtype, **arrays):
    for name, array in arrays.items():
        assert array.dtype == dtype, f"{name} is {array.dtype}, not {np.dtype(dtype)}"


def instance(seed: int, ids: str, reader: str):
    """A seeded network and cascade table read from text, with string or
    decimal ids, from a list of lines (one block) or a file (read in
    blocks).  Some cascade users are absent from the network."""
    rng = random.Random(seed)
    _, edges = random_digraph(rng, rng.randint(2, 20), 0.25)
    logs = random_logs(rng, network_of(edges), rng.randint(1, 6))
    if ids == "decimal":
        edges, logs = decimal_instance(rng, edges, logs)
    edge_lines = [f"{a}\t{b}\n" for a, b in edges]
    event_lines = [f"{log.cascade_id}\t{user}\t{t}\n" for log in logs for user, t in log.events]
    if reader == "file":
        edge_lines, event_lines = io.StringIO("".join(edge_lines)), io.StringIO("".join(event_lines))
    return read_network(edge_lines), load_cascades(event_lines)


INSTANCES = [(seed, ids, reader) for seed in range(6) for ids in ("string", "decimal") for reader in ("lines", "file")]


class TestIndexDtype:
    """Every index array is ``INDEX`` and every value array int64."""

    @pytest.mark.parametrize("seed, ids, reader", INSTANCES)
    def test_graph_and_table_indices(self, seed, ids, reader):
        network, table = instance(seed, ids, reader)
        nodes = np.array(random.Random(seed).choices(range(network.node_count), k=network.node_count + 2))
        slot, pos = network.out_edge_slots(nodes)
        empty_slot, empty_pos = network.out_edge_slots(nodes[:0])
        queries = list(table.users) + list(network.external_ids)[:3] + ["absent"]
        kept = filter_cascades(table, 2)
        activity = load_higgs_activity([f"{user}\t0\t{t}\tRT\n" for user, t in zip(table.users, table.time.tolist())])
        assert_dtype(
            INDEX,
            edge_sources=network.edge_sources(),
            edge_dst_indices=network.edge_dst_indices,
            slot=slot,
            pos=pos,
            empty_slot=empty_slot,
            empty_pos=empty_pos,
            indices_of=network.indices_of(queries),
            cascade=table.cascade,
            user=table.user,
            kept_cascade=kept.cascade,
            kept_user=kept.user,
            activity_cascade=activity.cascade,
            activity_user=activity.user,
        )
        if ids == "decimal":
            assert_dtype(INDEX, indices_of_values=network.indices_of(table.user_ids))
            assert_dtype(np.int64, node_ids=network._values, user_ids=table.user_ids)
        assert_dtype(np.int64, time=table.time, sizes=table.sizes)

    @pytest.mark.parametrize("seed, ids, reader", INSTANCES)
    def test_batch_plan_and_estimate_arrays(self, tmp_path, seed, ids, reader):
        network, table = instance(seed, ids, reader)
        batches = build_batches(network, table, VARIANTS)
        for variant, batch in batches.items():
            assert_dtype(
                INDEX,
                **{
                    f"{variant} {name}": getattr(batch, name)
                    for name in ("owner", "node", "child_slot", "parent_slot", "follow_edge_pos")
                },
            )
            assert_dtype(np.int64, **{f"{variant} {name}": getattr(batch, name) for name in ("sizes", "seed_counts")})
        k = network.edge_count // 2 + 1
        for strategy in STRATEGIES:
            if strategy == NETMELT and not network.edge_count:
                continue
            plan = plan_strategy(network, strategy, k, rng_seed=seed)
            path, _ = plan_paths(tmp_path, strategy)
            save_plan_cache(plan, path)
            cached, why = cached_plan(path, network, strategy, seed, plan.edge_pos.size)
            assert why is None
            assert_dtype(INDEX, **{f"{strategy} edge_pos": plan.edge_pos, f"cached {strategy}": cached.edge_pos})
            ranks = plan_ranks(network, plan)
            assert_dtype(np.int64, **{f"{strategy} plan_ranks": ranks})
            for variant, batch in batches.items():
                sizes = estimate_budgets(batch, ranks, [0, 1, k])
                assert_dtype(np.int64, **{f"{strategy} {variant} estimate_budgets": sizes})


class TestPinnedFormats:
    """The A1 eight-node network's fingerprint, which every plan cache
    header carries, and each strategy's plan cache at k = 4 (random at
    seed 0), as literals.

    A cache is pinned by the digest of its members' names and bytes, in
    archive order: the ``.npy`` bytes numpy writes.  The zip container
    around them is left out: the Python version's ``zipfile`` writes its
    records, not this package.
    """

    FINGERPRINT = "52d74755c32a73864f205760ad460f225295b43fa9ff5ccfef08cdc25bfb91bd"
    PLAN_DIGESTS = {
        "netmelt": "fbec086c38671a1eca4f0adac98fd2bc53dc63219a15d1087c3a674d73cc3fd9",
        "betweenness": "dc6f67faf02541a4b56af5c73ee9140b468cd20c8126a48c862941c7b0c3e46e",
        "edge-degree": "694355248cb9851bc219e4c56d9c2ca2b77d586e69c6d350a69ff76a5fc583a3",
        "random": "a8c46a25d5f46665679136e85c7124f808750eec6ec93068b391317fa82a3787",
    }

    def test_a1_fingerprint(self):
        assert network_of(EIGHT_NODE_FOLLOW_EDGES).fingerprint == self.FINGERPRINT

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a1_plan_cache(self, tmp_path, strategy):
        path, _ = plan_paths(tmp_path, strategy)
        save_plan_cache(plan_strategy(network_of(EIGHT_NODE_FOLLOW_EDGES), strategy, 4, rng_seed=0), path)
        digest = hashlib.sha256()
        with zipfile.ZipFile(path) as archive:
            for info in archive.infolist():
                digest.update(info.filename.encode())
                digest.update(archive.read(info))
        assert digest.hexdigest() == self.PLAN_DIGESTS[strategy]
