"""Deletion strategy tests."""

from __future__ import annotations

import inspect
import io
import json
import random
from collections import Counter

import numpy as np
import pytest

from cascadecut import (
    BETWEENNESS,
    DeletionPlan,
    EDGE_DEGREE,
    InputError,
    NETMELT,
    ParseError,
    RANDOM,
    STRATEGIES,
    plan_ranks,
    plan_strategy,
    read_network,
    read_plan_cache,
    save_plan,
    save_plan_cache,
)
from cascadecut import deletion
from cascadecut.deletion import CACHE_FORMAT, MAX_RANDOM_EDGES, _accepted, _ranked_plan, _shuffled_prefix
from cascadecut.experiment import ExperimentConfig, _materialise_plan
from conftest import network_of
from oracles import (
    StringPlan,
    dense_spectral_radius,
    graph_edges,
    line_load_plan,
    prefix,
    random_digraph,
    reference_build_graph,
    shuffled_prefix,
    string_plan,
    string_plan_ranks,
    string_save_plan,
)


class TestPlanNetmelt:
    def test_pendant_edge_scores_zero(self):
        g = network_of([("a", "b"), ("b", "a"), ("b", "c")])
        plan = plan_strategy(g, NETMELT, 3)
        scores = dict(zip(plan.ranked_edges, plan.scores))
        assert scores[("b", "c")] == pytest.approx(0.0, abs=1e-9)
        assert plan.ranked_edges[0] in {("a", "b"), ("b", "a")}

    def test_zero_budget(self):
        g = network_of([("a", "b"), ("b", "a")])
        plan = plan_strategy(g, NETMELT, 0)
        assert plan.ranked_edges == ()
        assert plan.k == 0

    def test_edgeless_network_rejected(self):
        with pytest.raises(InputError):
            plan_strategy(reference_build_graph([], nodes=["a"]), NETMELT, 1)

    def test_the_solver_runs_with_the_settings_the_cache_records(self, monkeypatch):
        g = network_of([("a", "b"), ("b", "a"), ("b", "c")])
        with pytest.raises(TypeError):
            plan_strategy(g, NETMELT, 1, tolerance=1e-3)
        solve, runs = deletion.leading_eigenpair, []

        def spy(*args, **kwargs):
            bound = inspect.signature(solve).bind(*args, **kwargs)
            bound.apply_defaults()
            runs.append((bound.arguments["tolerance"], bound.arguments["max_iterations"]))
            return solve(*args, **kwargs)

        monkeypatch.setattr(deletion, "leading_eigenpair", spy)
        plan = plan_strategy(g, NETMELT, 2)
        header = deletion.cache_header(plan.strategy, plan.k, None, g)
        assert runs == [(header["tolerance"], header["max_iterations"])]
        assert header["tolerance"] is not None and header["max_iterations"] is not None

    @pytest.mark.parametrize("k, error", [(-1, "budget k must be >= 0"), (0, "at least one edge")])
    def test_budget_is_checked_before_the_edgeless_network(self, k, error):
        with pytest.raises(InputError, match=error):
            plan_strategy(reference_build_graph([], nodes=["a"]), NETMELT, k)

    def test_single_deletion_close_to_exhaustive_optimum(self):
        rng = random.Random(101)
        hits = 0
        trials = 12
        for _ in range(trials):
            nodes, edges = random_digraph(rng, rng.randint(8, 16), rng.uniform(0.25, 0.4))
            g = reference_build_graph(edges, nodes=nodes)
            plan = plan_strategy(g, NETMELT, 1)
            chosen = plan.ranked_edges[0]
            after = {
                edge: dense_spectral_radius(nodes, [e for e in edges if e != edge])
                for edge in edges
            }
            third_best = sorted(after.values())[min(2, len(after) - 1)]
            if after[chosen] <= third_best + 1e-9:
                hits += 1
        assert hits >= 0.9 * trials

    def test_score_ordering_invariant_under_relabeling(self):
        rng = random.Random(103)
        nodes, edges = random_digraph(rng, 12, 0.3)
        fresh = [f"w{i:02d}" for i in range(len(nodes))]
        rng.shuffle(fresh)
        rename = dict(zip(nodes, fresh))
        original = plan_strategy(reference_build_graph(edges, nodes=nodes), NETMELT, len(edges))
        relabeled = plan_strategy(
            reference_build_graph([(rename[a], rename[b]) for a, b in edges], nodes=fresh), NETMELT, len(edges)
        )
        mapped = {
            (rename[a], rename[b]): s for (a, b), s in zip(original.ranked_edges, original.scores)
        }
        for edge, score in zip(relabeled.ranked_edges, relabeled.scores):
            assert score == pytest.approx(mapped[edge], abs=1e-8)


class TestPlanBetweenness:
    def test_path_middle_edge_first(self):
        g = network_of([("a", "b"), ("b", "c"), ("c", "d")])
        plan = plan_strategy(g, BETWEENNESS, 1)
        assert plan.ranked_edges == (("b", "c"),)
        assert plan.scores == (pytest.approx(4.0),)

    def test_budget_beyond_edge_count_ranks_everything(self):
        g = network_of([("a", "b"), ("b", "c"), ("c", "d")])
        plan = plan_strategy(g, BETWEENNESS, 99)
        assert len(plan.ranked_edges) == 3
        assert plan.k == 99
        assert set(plan.ranked_edges) == set(graph_edges(g))

    def test_ranking_matches_score_oracle(self):
        from oracles import path_count_betweenness

        rng = random.Random(107)
        for _ in range(8):
            nodes, edges = random_digraph(rng, rng.randint(5, 20), 0.2)
            if not edges:
                continue
            g = reference_build_graph(edges, nodes=nodes)
            plan = plan_strategy(g, BETWEENNESS, len(edges))
            expected = path_count_betweenness(nodes, edges)
            for edge, score in zip(plan.ranked_edges, plan.scores):
                assert score == pytest.approx(expected[edge], abs=1e-9)
            assert list(plan.scores) == sorted(plan.scores, reverse=True)


def degree_product(g):
    """in_degree(src) * out_degree(dst) of every edge, counted over the id pairs."""
    edges = graph_edges(g)
    in_degree, out_degree = Counter(dst for _, dst in edges), Counter(src for src, _ in edges)
    return {(src, dst): in_degree[src] * out_degree[dst] for src, dst in edges}


class TestPlanEdgeDegree:
    def test_star_scores_all_zero(self):
        leaves = [f"l{i}" for i in range(5)]
        g = network_of([(leaf, "c") for leaf in leaves])
        plan = plan_strategy(g, EDGE_DEGREE, 99)
        assert set(plan.scores) == {0.0}

    def test_hand_counted_triangle(self):
        g = network_of([("a", "b"), ("b", "c"), ("c", "b")])
        plan = plan_strategy(g, EDGE_DEGREE, 1)
        assert plan.ranked_edges == (("b", "c"),)
        assert plan.scores == (pytest.approx(2.0),)

    def test_matches_product_scan(self, eight_node_network):
        g = eight_node_network
        plan = plan_strategy(g, EDGE_DEGREE, g.edge_count)
        product = degree_product(g)
        for edge, score in zip(plan.ranked_edges, plan.scores):
            assert score == product[edge]

    def test_random_graphs_match_product_scan(self):
        rng = random.Random(109)
        for _ in range(10):
            nodes, edges = random_digraph(rng, rng.randint(4, 20), 0.25)
            if not edges:
                continue
            g = reference_build_graph(edges, nodes=nodes)
            plan = plan_strategy(g, EDGE_DEGREE, len(edges))
            product = degree_product(g)
            for edge, score in zip(plan.ranked_edges, plan.scores):
                assert score == product[edge]

    @pytest.mark.parametrize("seed", range(12))
    def test_ties_ranked_as_the_lexsort_ranks_them(self, seed):
        # Sparse random graphs give edge-degree scores with many ties; the
        # plan must order them as np.lexsort((dst, src, -scores)) does.
        rng = random.Random(seed)
        nodes, edges = random_digraph(rng, rng.randint(5, 60), rng.uniform(0.02, 0.3))
        g = reference_build_graph(edges, nodes=nodes)
        if g.edge_count == 0:
            return
        plan = plan_strategy(g, EDGE_DEGREE, g.edge_count)
        by_edge = dict(zip(plan.ranked_edges, plan.scores))
        scores = np.array([by_edge[edge] for edge in graph_edges(g)])
        assert len(set(scores.tolist())) < scores.size
        src, dst = g.edge_sources(), g.edge_dst_indices
        ids = g.external_ids
        want = tuple((ids[src[i]], ids[dst[i]]) for i in np.lexsort((dst, src, -scores)).tolist())
        assert plan.ranked_edges == want
        cut = rng.randint(0, g.edge_count)
        assert plan_strategy(g, EDGE_DEGREE, cut).ranked_edges == want[:cut]


class TestPlanRandom:
    def _ten_edge_graph(self):
        return network_of([(f"a{i}", f"b{i}") for i in range(10)])

    def test_full_budget_is_a_permutation(self):
        g = self._ten_edge_graph()
        plan = plan_strategy(g, RANDOM, g.edge_count, rng_seed=5)
        assert sorted(plan.ranked_edges) == sorted(graph_edges(g))

    def test_same_seed_same_plan(self):
        g = self._ten_edge_graph()
        assert plan_strategy(g, RANDOM, 4, rng_seed=42) == plan_strategy(g, RANDOM, 4, rng_seed=42)

    def test_selection_frequency_is_uniform(self):
        g = self._ten_edge_graph()
        counts = Counter(plan_strategy(g, RANDOM, 1, rng_seed=seed).ranked_edges[0] for seed in range(10_000))
        for edge in graph_edges(g):
            assert abs(counts[edge] / 10_000 - 0.1) <= 0.01


class TestShuffleOracle:
    """The list-free shuffle against ``random.Random(seed).shuffle`` of a list."""

    SEEDS = (0, 1, -3, 2**40 + 5)

    @staticmethod
    def _sizes():
        rng = random.Random(8081)
        small = [0, 1, 2, 3, 4, 5]
        near_powers = [2**b + d for b in (2, 3, 4, 5, 7, 10, 12, 16) for d in (-1, 1)]
        return small + near_powers + [rng.randint(6, 70_000) for _ in range(12)]

    def test_matches_the_list_shuffle(self):
        rng = random.Random(8087)
        for size in self._sizes():
            for seed in (*self.SEEDS, rng.randint(-(2**63), 2**63)):
                want = shuffled_prefix(size, size, seed)
                for k in sorted({0, 1, size // 2, size, size + 3}):
                    got = _shuffled_prefix(size, k, random.Random(seed))
                    assert got.dtype == np.int64
                    assert got.tolist() == want[:k], (size, seed, k)

    def test_plan_random_is_the_shuffled_prefix(self):
        g = network_of([(f"a{i}", f"b{i % 7}") for i in range(40)])
        for seed in self.SEEDS:
            if seed < 0:  # see test_negative_seed_is_rejected
                continue
            plan = plan_strategy(g, RANDOM, 25, rng_seed=seed)
            assert plan.edge_pos.tolist() == shuffled_prefix(g.edge_count, 25, seed)

    def test_negative_seed_is_rejected(self):
        # random.Random(-5) seeds from abs(-5), so -5 would give seed 5's
        # plan while the plan and its cache header record another seed.
        g = network_of([(f"a{i}", f"b{i % 7}") for i in range(50)])
        assert shuffled_prefix(g.edge_count, 10, -5) == shuffled_prefix(g.edge_count, 10, 5)
        for seed in (-5, -1):
            with pytest.raises(InputError, match=f"rng seed must be >= 0, not {seed}"):
                plan_strategy(g, RANDOM, 10, rng_seed=seed)
        assert plan_strategy(g, RANDOM, 10, rng_seed=0).rng_seed == 0

    def test_fixed_point_resolves_candidates_in_the_undecided_band(self):
        # Bound 100 drops by one per acceptance.  Each pair of equal
        # candidates sits just below the bound: the first is accepted and
        # then lowers the bound onto the second, so every acceptance depends
        # on all before it.
        r = np.repeat(np.arange(99, 79, -1), 2)
        want, bound = [], 100
        for value in r.tolist():
            want.append(value < bound)
            bound -= value < bound
        got = _accepted(r, 100, steps=len(r))
        assert got.tolist() == want
        # Neither one pass nor two give the answer, so several were needed.
        one = r < 100
        two = r < 100 - (np.cumsum(one) - one)
        assert not np.array_equal(one, got) and not np.array_equal(two, got)

    def test_acceptances_beyond_the_steps_meet_the_following_bound(self):
        r = np.array([9, 9, 8, 7, 7, 3])
        # Two steps at bounds 10 and 9; later candidates meet bound 8.
        assert _accepted(r, 10, steps=2).tolist() == [True, False, True, True, True, True]

    def test_more_edges_than_one_word_draws_are_rejected(self):
        class Huge:
            edge_count = MAX_RANDOM_EDGES + 1

        with pytest.raises(InputError, match="at most 4294967295 edges"):
            plan_strategy(Huge(), RANDOM, 1, rng_seed=0)
        # The budget is checked first, then the seed, then the edge count.
        with pytest.raises(InputError, match="rng seed must be >= 0"):
            plan_strategy(Huge(), RANDOM, 1, rng_seed=-1)
        with pytest.raises(InputError, match="budget k must be >= 0"):
            plan_strategy(Huge(), RANDOM, -1, rng_seed=-1)


class TestPlanCache:
    def test_round_trip_with_header(self, tmp_path):
        g = network_of(random_digraph(random.Random(37), 12, 0.3)[1])
        for strategy in STRATEGIES:
            plan = plan_strategy(g, strategy, g.edge_count // 2, rng_seed=9)
            path = tmp_path / f"{strategy}.npz"
            save_plan_cache(plan, path)
            header, edge_pos, scores = read_plan_cache(path)
            assert np.array_equal(edge_pos, plan.edge_pos)
            assert scores.tobytes() == plan.scores.tobytes()
            assert header["format"] == CACHE_FORMAT
            assert header["fingerprint"] == g.fingerprint
            assert (header["strategy"], header["k"]) == (strategy, plan.k)
            assert header["rng_seed"] == (9 if strategy == "random" else None)
            assert (header["tolerance"] is None) == (strategy != "netmelt")
            assert (header["max_iterations"] is None) == (strategy != "netmelt")
            assert header["version"]

    @pytest.mark.parametrize(
        "content", [b"", b"not a zip archive\n", b"PK\x03\x04 truncated"], ids=["empty", "text", "zip-magic-only"]
    )
    def test_unreadable_file_is_parse_error(self, tmp_path, content):
        path = tmp_path / "plan.npz"
        path.write_bytes(content)
        with pytest.raises(ParseError, match="not a plan cache"):
            read_plan_cache(path)

    def test_archive_without_plan_entries_is_parse_error(self, tmp_path):
        path = tmp_path / "plan.npz"
        np.savez(path, edge_pos=np.arange(3))
        with pytest.raises(ParseError, match="not a plan cache"):
            read_plan_cache(path)
        np.save(tmp_path / "plain.npy", np.arange(3))
        with pytest.raises(ParseError, match="not an .npz archive"):
            read_plan_cache(tmp_path / "plain.npy")

    @pytest.mark.parametrize(
        "header, edge_pos, message",
        [
            ('["a list"]', np.arange(2), "not a JSON object"),
            ('{"k": -1}', np.arange(2), "bad budget -1"),
            ('{"k": true}', np.arange(2), "bad budget True"),
            ('{"k": 2}', np.arange(2, dtype=np.int32), "not int64 and float64"),
        ],
    )
    def test_malformed_contents_are_parse_errors(self, tmp_path, header, edge_pos, message):
        path = tmp_path / "plan.npz"
        np.savez(path, header=np.array(header), edge_pos=edge_pos, scores=np.zeros(2))
        with pytest.raises(ParseError, match=message):
            read_plan_cache(path)

    def test_bytes_depend_only_on_the_plan_and_network(self, tmp_path):
        g = network_of(random_digraph(random.Random(41), 10, 0.3)[1])
        plan = plan_strategy(g, NETMELT, 5)
        save_plan_cache(plan, tmp_path / "a.npz")
        (tmp_path / "elsewhere").mkdir()
        save_plan_cache(plan_strategy(network_of(graph_edges(g)), NETMELT, 5), tmp_path / "elsewhere" / "b.npz")
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "elsewhere" / "b.npz").read_bytes()


def rewrite_cache(path, **edits):
    """Rewrite the plan cache at ``path`` with header entries replaced."""
    header, edge_pos, scores = read_plan_cache(path)
    np.savez(path, header=np.array(json.dumps({**header, **edits})), edge_pos=edge_pos, scores=scores)


class TestCachedPlan:
    """``deletion.cached_plan``, the one rule for reusing a sweep's plan cache."""

    def cache(self, tmp_path, strategy):
        g = network_of(random_digraph(random.Random(43), 10, 0.3)[1])
        plan = plan_strategy(g, strategy, g.edge_count, rng_seed=4)
        path, _ = deletion.plan_paths(tmp_path, strategy)
        save_plan_cache(plan, path)
        return g, plan, path

    @pytest.mark.parametrize("strategy", ["netmelt", "edge-degree", "random"])
    def test_a_matching_cache_is_the_plan(self, tmp_path, strategy):
        g, plan, path = self.cache(tmp_path, strategy)
        cached, why = deletion.cached_plan(path, g, strategy, 4, g.edge_count)
        assert why is None and cached == plan and cached.network is g

    @pytest.mark.parametrize(
        "strategy, edit, reason",
        [
            ("random", {"format": 2}, "has format 2, not 1"),
            ("random", {"fingerprint": "0" * 64}, "has fingerprint '" + "0" * 64 + "', not {fingerprint!r}"),
            ("random", {"strategy": "edge-degree"}, "has strategy 'edge-degree', not 'random'"),
            ("random", {"rng_seed": 5}, "has rng_seed 5, not 4"),
            ("netmelt", {"tolerance": 1e-6}, "has tolerance 1e-06, not 1e-09"),
            ("netmelt", {"max_iterations": 5}, "has max_iterations 5, not 10000"),
            ("edge-degree", {"rng_seed": 4}, "has rng_seed 4, not None"),
            ("netmelt", {"tolerance": None}, "has tolerance None, not 1e-09"),
            ("random", {"format": 2, "fingerprint": "0"}, "has format 2, not 1"),
            ("edge-degree", {"k": 1}, "does not fit this network (edge_pos holds {edges} positions, "
                                      "more than min(k, |E|) = 1)"),
        ],
        ids=["format", "fingerprint", "strategy", "seed", "tolerance", "max-iterations", "seed-of-edge-degree",
             "no-tolerance", "format-first", "longer-than-k"],
    )
    def test_each_compared_entry_alone_gives_its_reason(self, tmp_path, strategy, edit, reason):
        g, _, path = self.cache(tmp_path, strategy)
        rewrite_cache(path, **edit)
        want = reason.format(fingerprint=g.fingerprint, edges=g.edge_count)
        assert deletion.cached_plan(path, g, strategy, 4, 1) == (None, want)

    def test_names_the_cache_and_its_export(self, tmp_path):
        assert deletion.plan_paths(tmp_path, "edge-degree") == (
            tmp_path / "plan_edge-degree.npz", tmp_path / "plan_edge-degree.tsv"
        )


class TestPlanContracts:
    def _plans(self, g, k, seed=0):
        return [
            plan_strategy(g, NETMELT, k),
            plan_strategy(g, BETWEENNESS, k),
            plan_strategy(g, EDGE_DEGREE, k),
            plan_strategy(g, RANDOM, k, rng_seed=seed),
        ]

    def test_prefix_consistency(self):
        rng = random.Random(113)
        nodes, edges = random_digraph(rng, 12, 0.3)
        g = reference_build_graph(edges, nodes=nodes)
        for small, large in zip(self._plans(g, 4), self._plans(g, 11)):
            assert large.ranked_edges[:4] == small.ranked_edges
            assert prefix(large, 4).ranked_edges == small.ranked_edges

    def test_only_existing_edges_no_duplicates(self):
        rng = random.Random(127)
        nodes, edges = random_digraph(rng, 14, 0.3)
        g = reference_build_graph(edges, nodes=nodes)
        edge_set = set(graph_edges(g))
        for plan in self._plans(g, g.edge_count):
            assert len(plan.ranked_edges) == len(set(plan.ranked_edges)) == g.edge_count
            assert set(plan.ranked_edges) <= edge_set

    def test_scores_non_increasing(self):
        rng = random.Random(131)
        nodes, edges = random_digraph(rng, 14, 0.3)
        g = reference_build_graph(edges, nodes=nodes)
        for plan in self._plans(g, g.edge_count):
            assert list(plan.scores) == sorted(plan.scores, reverse=True)

    def test_budget_never_exceeds_edge_count(self):
        g = network_of([("a", "b"), ("b", "a")])
        for plan in self._plans(g, 50):
            assert len(plan.ranked_edges) == 2
            assert plan.k == 50

    def test_negative_budget_rejected(self):
        g = network_of([("a", "b")])
        with pytest.raises(InputError):
            plan_strategy(g, EDGE_DEGREE, -1)

    def test_unknown_strategy_rejected(self):
        g = network_of([("a", "b")])
        with pytest.raises(InputError):
            plan_strategy(g, "bogus", 1)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_strategy_rejects_a_negative_budget(self, strategy):
        with pytest.raises(InputError, match="budget k must be >= 0"):
            plan_strategy(network_of([("a", "b")]), strategy, -1, rng_seed=-1)

    @pytest.mark.parametrize(
        "strategy, scorer",
        [(NETMELT, "leading_eigenpair"), (BETWEENNESS, "betweenness_scores"), (EDGE_DEGREE, None), (RANDOM, None)],
    )
    def test_scoring_functions_are_looked_up_on_each_call(self, monkeypatch, strategy, scorer):
        # A wrapper put in the module's place after import, as a profiler
        # puts one, is the function the planner calls.
        g = network_of([("a", "b"), ("b", "a"), ("b", "c")])
        want = plan_strategy(g, strategy, 2)
        calls = Counter()
        for name in ("leading_eigenpair", "betweenness_scores"):
            def counting(*args, _name=name, _score=getattr(deletion, name), **kwargs):
                calls[_name] += 1
                return _score(*args, **kwargs)

            monkeypatch.setattr(deletion, name, counting)
        assert plan_strategy(g, strategy, 2) == want
        assert calls == ({scorer: 1} if scorer else {})


class TestPlanSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = random.Random(137)
        nodes, edges = random_digraph(rng, 10, 0.3)
        g = reference_build_graph(edges, nodes=nodes)
        for strategy in STRATEGIES:
            plan = plan_strategy(g, strategy, 6, rng_seed=9)
            path = tmp_path / f"{strategy}.tsv"
            save_plan(plan, path)
            assert line_load_plan(path, g) == plan

    def test_file_format(self, tmp_path):
        g = network_of([("a", "b"), ("b", "a")])
        plan = plan_strategy(g, RANDOM, 2, rng_seed=3)
        path = tmp_path / "plan.tsv"
        save_plan(plan, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "random,2,3"
        assert all(len(line.split("\t")) == 3 for line in lines[1:])

    def test_header_without_seed(self, tmp_path):
        g = network_of([("a", "b"), ("b", "c")])
        plan = plan_strategy(g, EDGE_DEGREE, 1)
        path = tmp_path / "plan.tsv"
        save_plan(plan, path)
        assert path.read_text().splitlines()[0] == "edge-degree,1,"
        assert line_load_plan(path, g).rng_seed is None


def _string_view(plan):
    """The plan as the string writer's input: id pairs and Python floats."""
    return StringPlan(plan.strategy, plan.k, plan.ranked_edges, tuple(plan.scores.tolist()), plan.rng_seed)


class TestChunkedPlanWriter:
    """``save_plan`` writes its text ``_SAVE_CHUNK`` plan edges at a time; the
    earlier one-pass writer over the string pairs is the oracle."""

    @staticmethod
    def graphs(rng, min_edges=1):
        """A graph with string ids and one with int64 ids, each with at least ``min_edges`` edges."""
        nodes, edges = [], []
        while len(edges) < min_edges:
            nodes, edges = random_digraph(rng, rng.randint(2, 14), 0.3)
        numeric = network_of([])
        while numeric.edge_count < min_edges:
            ids = [str(rng.choice([rng.randint(0, 50), rng.randint(1, 10**18 - 1)])) for _ in range(10)]
            numeric = read_network(io.StringIO("".join(f"{rng.choice(ids)}\t{rng.choice(ids)}\n" for _ in range(30))))
        assert isinstance(numeric._values, np.ndarray)
        return [reference_build_graph(edges, nodes=nodes), numeric]

    @pytest.mark.parametrize("chunk", [1, 2, 3, None])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_same_bytes_as_the_string_writer(self, tmp_path, monkeypatch, strategy, chunk):
        if chunk is not None:
            monkeypatch.setattr(deletion, "_SAVE_CHUNK", chunk)
        rng = random.Random(f"{strategy} {chunk}")
        for g in self.graphs(rng):
            e = g.edge_count
            for k in sorted({0, 1, 2, 3, e // 2, e, e + 4}):
                plan = plan_strategy(g, strategy, k, rng_seed=rng.randint(0, 9))
                save_plan(plan, tmp_path / "got.tsv")
                string_save_plan(_string_view(plan), tmp_path / "want.tsv")
                assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()

    @pytest.mark.parametrize("chunk", [1, 2, 3, None])
    def test_signed_zero_subnormal_and_integral_scores(self, tmp_path, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(deletion, "_SAVE_CHUNK", chunk)
        scores = [1e300, 1e16, 2.0**53, 123456789.0, 3.0, 0.1, 5e-324, 0.0, -0.0, 0.0, -0.0, -5e-324, -1.0, -1e22]
        for g in self.graphs(random.Random(chunk), min_edges=len(scores)):
            plan = DeletionPlan(EDGE_DEGREE, len(scores), g, np.arange(len(scores)), scores)
            save_plan(plan, tmp_path / "got.tsv")
            string_save_plan(_string_view(plan), tmp_path / "want.tsv")
            text = (tmp_path / "got.tsv").read_bytes()
            assert text == (tmp_path / "want.tsv").read_bytes()
            assert [line.rsplit(b"\t", 1)[1] for line in text.splitlines()[1:]] == [repr(x).encode() for x in scores]


CACHE_QUIRKS = (
    None, None, None, "minus one", "past the edges", "repeated edge", "nan score", "rising score", "short",
    "other fingerprint", "other strategy", "other seed", "other format", "bad budget", "int32 positions",
    "truncated", "empty file",
)


def quirky_cache(rng, path, network, quirk):
    """Rewrite the plan cache at ``path`` with one ``quirk``; return the
    words the sweep's "recomputing" message must hold for it."""
    if quirk in ("truncated", "empty file"):
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2] if quirk == "truncated" else b"")
        return "cannot be read"
    header, edge_pos, scores = read_plan_cache(path)
    edge_pos, scores = edge_pos.copy(), scores.copy()
    size = edge_pos.size
    at = rng.randrange(size)
    if quirk in ("minus one", "past the edges"):
        edge_pos[at] = -1 if quirk == "minus one" else network.edge_count
        reason = "does not fit this network (edge_pos must hold edge positions of the network)"
    elif quirk == "repeated edge":
        edge_pos[at] = edge_pos[rng.choice([i for i in range(size) if i != at])]
        reason = f"does not name {size} distinct edges of this network"
    elif quirk == "nan score":
        scores[at] = np.nan
        reason = "does not fit this network (scores must not be NaN)"
    elif quirk == "rising score":
        at = max(at, 1)
        scores[at] = np.nextafter(scores[at - 1], np.inf)
        reason = "does not fit this network (scores must be non-increasing along the ranking)"
    elif quirk == "short":
        edge_pos, scores = edge_pos[:-1], scores[:-1]
        reason = f"ranks {size - 1} of the {size} edge(s) needed"
    elif quirk == "int32 positions":
        edge_pos = edge_pos.astype(np.int32)
        reason = "not int64 and float64"
    else:
        key, value = {
            "other fingerprint": ("fingerprint", "0" * len(header["fingerprint"])),
            "other strategy": ("strategy", next(s for s in STRATEGIES if s != header["strategy"])),
            "other seed": ("rng_seed", (header["rng_seed"] or 0) + 1),
            "other format": ("format", CACHE_FORMAT + 1),
            "bad budget": ("k", -1),
        }[quirk]
        reason = f"has {key} {value!r}, not {header[key]!r}" if key != "k" else "bad budget -1"
        header[key] = value
    np.savez(path, header=np.array(json.dumps(header)), edge_pos=edge_pos, scores=scores)
    return reason


PLAN_QUIRKS = (
    None, None, None, "no final newline", "blank line", "two fields", "four fields", "extra line",
    "bad score", "empty score", "nan score", "rising score", "unknown edge", "empty id", "leading zero",
    "non-ascii id", "trailing tab", "crlf", "space by tab", "spaces for tabs", "blank ends", "extra lines",
    "blank before unknown",
)


def quirky_plan(rng, lines, quirk):
    """Plan body ``lines`` (without line ends) with one ``quirk`` at a random line."""
    lines = list(lines)
    at = rng.randrange(len(lines)) if lines else 0
    row = lines[at].split("\t") if lines else ["1", "2", "0.5"]
    if quirk == "blank line":
        lines.insert(at, "")
    elif quirk == "two fields":
        lines.insert(at, "\t".join(row[:2]))
    elif quirk == "four fields":
        lines.insert(at, "\t".join(row + ["x"]))
    elif quirk == "extra line":
        lines.append(f"{row[0]}\t{row[1]}\t-1.0")
    elif quirk in ("bad score", "empty score", "nan score", "rising score"):
        if quirk == "rising score" and len(lines) > 1:
            at = max(at, 1)
        score = {"bad score": "high", "empty score": "", "nan score": "nan", "rising score": "1e300"}[quirk]
        lines[at:at + 1] = [f"{row[0]}\t{row[1]}\t{score}"]
    elif quirk in ("unknown edge", "empty id", "leading zero", "non-ascii id"):
        src = {"unknown edge": "424242", "empty id": "", "leading zero": "0" + row[0], "non-ascii id": "ü"}[quirk]
        lines[at:at + 1] = [f"{src}\t{row[1]}\t{row[2]}"]
    elif quirk == "trailing tab":
        lines[at:at + 1] = [lines[at] + "\t"] if lines else ["1\t2\t0\t"]
    elif quirk == "space by tab":
        line = "\t".join(row)
        cut = line.index("\t") + rng.choice([0, 1])
        lines[at:at + 1] = [line[:cut] + " " + line[cut:]]
    elif quirk == "spaces for tabs":
        lines[at:at + 1] = [" ".join(row)]
    elif quirk == "blank ends":
        lines = ["", *lines, ""]
    elif quirk == "extra lines":
        lines += [f"{row[0]}\t{row[1]}\t-1.0"] * rng.randint(2, 40)
    elif quirk == "blank before unknown":
        lines[at:at + 1] = ["", f"424242\t{row[1]}\t{row[2]}"]
    end = "\r\n" if quirk == "crlf" else "\n"
    return end.join(lines) + ("" if quirk == "no final newline" else end)


def _sweep_plan(tmp_path, caplog, network, strategy, k, seed):
    """The sweep's plan for ``network`` at budget ``k``, with ``tmp_path`` as
    its output directory, and the messages it logged.  The plan step writes
    nothing, and says whether it computed the plan or reused the cache."""
    config = ExperimentConfig(tmp_path / "edges.tsv", tmp_path / "cascades.tsv", tmp_path, strategies=(strategy,),
                              rng_seed=seed)
    caplog.clear()
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    with caplog.at_level("INFO", logger="cascadecut.experiment"):
        plan, path, computed = _materialise_plan(config, network, strategy, k)
    assert path == tmp_path / f"plan_{strategy}.npz"
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before
    messages = [record.getMessage() for record in caplog.records]
    assert computed == (f"reusing cached {strategy} plan from {path}" not in messages)
    return plan, messages


class TestBulkPlanReader:
    """The sweep's one plan input is the ``.npz`` cache, read array by array;
    the line reader over ``save_plan``'s text export is the oracle."""

    @pytest.mark.parametrize("seed", range(92))
    def test_same_plan_or_same_error(self, tmp_path, caplog, seed):
        # A cache with one quirk is recomputed, naming the quirk; either
        # way the sweep's plan is the one the export holds.
        rng = random.Random(seed)
        quirk = CACHE_QUIRKS[seed % len(CACHE_QUIRKS)]
        g = network_of([])
        while g.edge_count < 2:
            if seed % 2:
                nodes, edges = random_digraph(rng, rng.randint(2, 12), 0.3)
                g = reference_build_graph(edges, nodes=nodes)
            else:
                ids = [str(rng.choice([rng.randint(0, 50), rng.randint(1, 10**18 - 1)])) for _ in range(12)]
                g = read_network(io.StringIO("".join(f"{rng.choice(ids)}\t{rng.choice(ids)}\n" for _ in range(30))))
        strategy = rng.choice(["edge-degree", "random", "netmelt"])
        k = min(rng.randint(2, g.edge_count + 2), g.edge_count)  # a sweep's budget, which budget_for caps at |E|
        plan = plan_strategy(g, strategy, k, rng_seed=seed)
        save_plan(plan, tmp_path / "export.tsv")
        want = line_load_plan(tmp_path / "export.tsv", g)
        cache = tmp_path / f"plan_{strategy}.npz"
        save_plan_cache(plan, cache)
        reason = quirky_cache(rng, cache, g, quirk) if quirk else None
        got, messages = _sweep_plan(tmp_path, caplog, g, strategy, k, seed)
        assert got == want
        assert got.edge_pos.tolist() == want.edge_pos.tolist()
        if quirk is None:
            assert messages == [f"reusing cached {strategy} plan from {cache}"]
        else:
            [message] = messages
            assert message.startswith(f"cached plan at {cache} ") and message.endswith("; recomputing")
            assert reason in message

    @pytest.mark.parametrize("seed", range(48))
    def test_quirks_in_random_blocks(self, tmp_path, caplog, seed):
        # Quirks at random lines of a text plan, several that a line reader
        # takes and then any one, beside a matching cache or none: the sweep
        # never reads the text, and names it only when it computes the plan.
        rng = random.Random(seed)
        ids = [str(rng.choice([rng.randint(0, 50), rng.randint(1, 10**18 - 1)])) for _ in range(12)]
        text = "".join(f"{rng.choice(ids)}\t{rng.choice(ids)}\n" for _ in range(60))
        g = read_network(io.StringIO(text + "u\tv\n" if seed % 2 else text))
        strategy = rng.choice(["edge-degree", "random", "netmelt"])
        k = g.edge_count
        plan = plan_strategy(g, strategy, k, rng_seed=seed)
        path = tmp_path / f"plan_{strategy}.tsv"
        save_plan(plan, path)
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        for quirk in rng.choices(["blank line", "unknown edge", "non-ascii id", "leading zero"], k=rng.randint(1, 4)):
            lines = quirky_plan(rng, lines, quirk).split("\n")[:-1]
        body = quirky_plan(rng, lines, rng.choice(PLAN_QUIRKS))
        path.write_bytes((header + "\n" + body).encode("utf-8"))
        before = path.read_bytes()
        cache = tmp_path / f"plan_{strategy}.npz"
        cached = seed % 4 < 2
        if cached:
            save_plan_cache(plan, cache)
        got, messages = _sweep_plan(tmp_path, caplog, g, strategy, k, seed)
        assert got == plan
        assert got.edge_pos.tolist() == plan.edge_pos.tolist()
        assert path.read_bytes() == before
        assert messages == [
            f"reusing cached {strategy} plan from {cache}" if cached
            else f"{path} is not this sweep's {strategy} plan; it was left untouched"
        ]


class TestDeletionPlan:
    def test_arrays_are_int64_and_float64_and_read_only(self):
        g = network_of([("a", "b"), ("b", "c")])
        plan = DeletionPlan("netmelt", 2, g, [1, 0], [2, 1])
        assert plan.edge_pos.dtype == np.int64 and plan.scores.dtype == np.float64
        with pytest.raises(ValueError):
            plan.edge_pos[0] = 0
        assert plan.ranked_edges == (("b", "c"), ("a", "b"))

    def test_nan_score_rejected(self):
        g = network_of([("a", "b"), ("b", "c")])
        with pytest.raises(InputError, match="NaN"):
            DeletionPlan("netmelt", 2, g, [1, 0], [1.0, float("nan")])

    @pytest.mark.parametrize("pos, scores", [([0, 2], [1, 0]), ([-2], [0]), ([0, 1], [0]), ([0, 1], [0, 1]), ([0, -1], [1, 0])])
    def test_bad_arrays_rejected(self, pos, scores):
        g = network_of([("a", "b"), ("b", "c")])
        with pytest.raises(InputError):
            DeletionPlan("random", 2, g, pos, scores)

    def test_equality_over_strategy_k_seed_and_arrays(self):
        g = network_of([("a", "b"), ("b", "c")])
        plan = DeletionPlan("random", 2, g, [1, 0], [0, 0], rng_seed=3)
        other_network = network_of([("x", "y"), ("y", "z")])
        assert plan == DeletionPlan("random", 2, other_network, [1, 0], [0, 0], rng_seed=3)
        assert plan != DeletionPlan("random", 2, g, [0, 1], [0, 0], rng_seed=3)
        assert plan != DeletionPlan("random", 2, g, [1, 0], [0, 0], rng_seed=4)
        assert plan != DeletionPlan("random", 3, g, [1, 0], [0, 0], rng_seed=3)
        assert plan != DeletionPlan("random", 2, g, [1, 0], [1, 0], rng_seed=3)
        assert plan != DeletionPlan("random", 2, g, [1], [0], rng_seed=3)

    @pytest.mark.parametrize("k, pos", [(1, [0, 1, 2]), (2, [0, 1, 2]), (5, [0, 1, 2, 0])])
    def test_more_positions_than_min_k_and_edges_rejected(self, k, pos):
        g = network_of([("a", "b"), ("b", "c"), ("c", "a")])
        most = min(k, g.edge_count)
        DeletionPlan("netmelt", k, g, pos[:most], np.arange(most, 0, -1.0))
        with pytest.raises(InputError, match=rf"edge_pos holds {len(pos)} positions, more than min\(k, \|E\|\) = {most}$"):
            DeletionPlan("netmelt", k, g, pos, np.arange(len(pos), 0, -1.0))

    def test_prefix_slices_the_arrays(self):
        g = network_of([("a", "b"), ("b", "c"), ("c", "a")])
        plan = DeletionPlan("edge-degree", 5, g, [2, 0, 1], [3, 2, 1])
        assert prefix(plan, 2) == DeletionPlan("edge-degree", 2, g, [2, 0], [3, 2])
        assert prefix(plan, 9).edge_pos.tolist() == [2, 0, 1]
        with pytest.raises(InputError):
            prefix(plan, -1)


def _oracle_graphs():
    """Seeded random graphs, the sparse ones with many tied edge-degree scores."""
    rng = random.Random(4111)
    graphs = []
    while len(graphs) < 14:
        nodes, edges = random_digraph(rng, rng.randint(2, 36), rng.uniform(0.02, 0.35))
        if edges:
            graphs.append(reference_build_graph(edges, nodes=nodes))
    return graphs


class TestMatchesStringOracle:
    def test_graphs_have_many_tied_edge_degree_scores(self):
        tied = 0
        for g in _oracle_graphs():
            scores = plan_strategy(g, EDGE_DEGREE, g.edge_count).scores
            tied += np.unique(scores).size <= scores.size // 2
        assert tied >= 3

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_plans_ranks_and_files_match(self, tmp_path, strategy):
        for index, g in enumerate(_oracle_graphs()):
            e = g.edge_count
            for k in sorted({0, 1, e // 2, e, e + 5}):
                plan = plan_strategy(g, strategy, k, rng_seed=index)
                want = string_plan(g, strategy, k, rng_seed=index)
                assert plan.ranked_edges == want.ranked_edges
                assert plan.scores.tobytes() == np.array(want.scores, dtype=np.float64).tobytes()
                assert (plan.strategy, plan.k, plan.rng_seed) == (want.strategy, want.k, want.rng_seed)
                assert np.array_equal(plan_ranks(g, plan), string_plan_ranks(g, want)[0])
                got_path, want_path = tmp_path / "got.tsv", tmp_path / "want.tsv"
                save_plan(plan, got_path)
                string_save_plan(want, want_path)
                assert got_path.read_bytes() == want_path.read_bytes()
                assert line_load_plan(got_path, g) == plan

    def test_repeated_edges_rank_as_the_oracle(self):
        rng = random.Random(4127)
        for g in _oracle_graphs():
            edges = graph_edges(g)
            # A plan holds at most |E| positions, so repeats take the place of other edges.
            ranked = rng.sample(range(len(edges)), rng.randint(1, max(1, len(edges) - 1)))
            room = len(edges) - len(ranked)
            ranked += rng.choices(ranked, k=rng.randint(min(1, room), min(3, room)))
            rng.shuffle(ranked)
            scores = sorted((rng.choice([0.0, 0.5, 1.0, rng.random()]) for _ in ranked), reverse=True)
            plan = DeletionPlan("edge-degree", len(ranked) + rng.randint(0, 2), g, ranked, scores)
            want = StringPlan(plan.strategy, plan.k, tuple(edges[p] for p in ranked), tuple(scores))
            assert plan.ranked_edges == want.ranked_edges
            assert np.array_equal(plan_ranks(g, plan), string_plan_ranks(g, want)[0])


class TestTopK:
    """The partition-based top k against the stable full sort."""

    def test_tie_heavy_edge_degree_scores(self):
        for g in _oracle_graphs():
            scores = (g.in_degrees[g.edge_sources()] * g.out_degrees[g.edge_dst_indices]).astype(float)
            e = g.edge_count
            want = np.argsort(-scores, kind="stable")
            for k in sorted({0, 1, e // 2, e - 1, e}):
                plan = _ranked_plan(g, EDGE_DEGREE, k, lambda _: scores)
                assert plan.edge_pos.tolist() == want[:k].tolist()
                assert plan.scores.tobytes() == scores[want[:k]].tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_few_distinct_scores_and_signed_zeros(self, seed):
        rng = random.Random(seed)
        nodes, edges = random_digraph(rng, 30, 0.3)
        g = reference_build_graph(edges, nodes=nodes)
        e = g.edge_count
        scores = np.array([rng.choice([0.0, -0.0, 1.0, 2.5, 2.5, 1e-300]) for _ in range(e)])
        want = np.argsort(-scores, kind="stable")
        for k in sorted({0, 1, e // 3, e // 2, e - 1, e}):
            assert _ranked_plan(g, EDGE_DEGREE, k, lambda _: scores).edge_pos.tolist() == want[:k].tolist()
