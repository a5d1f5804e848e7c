"""Deletion strategy tests."""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

from cascadecut import (
    DeletionPlan,
    InputError,
    ParseError,
    STRATEGIES,
    build_graph,
    load_plan,
    plan_betweenness,
    plan_edge_degree,
    plan_netmelt,
    plan_random,
    plan_ranks,
    plan_strategy,
    read_plan_cache,
    save_plan,
    save_plan_cache,
)
from cascadecut.deletion import CACHE_FORMAT, EDGE_DEGREE, MAX_RANDOM_EDGES, _accepted, _ranked_plan, _shuffled_prefix
from oracles import (
    StringPlan,
    dense_spectral_radius,
    random_digraph,
    shuffled_prefix,
    string_plan,
    string_plan_ranks,
    string_save_plan,
)


class TestPlanNetmelt:
    def test_pendant_edge_scores_zero(self):
        g = build_graph([("a", "b"), ("b", "a"), ("b", "c")])
        plan = plan_netmelt(g, 3)
        scores = dict(zip(plan.ranked_edges, plan.scores))
        assert scores[("b", "c")] == pytest.approx(0.0, abs=1e-9)
        assert plan.ranked_edges[0] in {("a", "b"), ("b", "a")}

    def test_zero_budget(self):
        g = build_graph([("a", "b"), ("b", "a")])
        plan = plan_netmelt(g, 0)
        assert plan.ranked_edges == ()
        assert plan.k == 0

    def test_edgeless_network_rejected(self):
        with pytest.raises(InputError):
            plan_netmelt(build_graph([], nodes=["a"]), 1)

    def test_single_deletion_close_to_exhaustive_optimum(self):
        rng = random.Random(101)
        hits = 0
        trials = 12
        for _ in range(trials):
            nodes, edges = random_digraph(rng, rng.randint(8, 16), rng.uniform(0.25, 0.4))
            g = build_graph(edges, nodes=nodes)
            plan = plan_netmelt(g, 1)
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
        original = plan_netmelt(build_graph(edges, nodes=nodes), len(edges))
        relabeled = plan_netmelt(
            build_graph([(rename[a], rename[b]) for a, b in edges], nodes=fresh), len(edges)
        )
        mapped = {
            (rename[a], rename[b]): s for (a, b), s in zip(original.ranked_edges, original.scores)
        }
        for edge, score in zip(relabeled.ranked_edges, relabeled.scores):
            assert score == pytest.approx(mapped[edge], abs=1e-8)


class TestPlanBetweenness:
    def test_path_middle_edge_first(self):
        g = build_graph([("a", "b"), ("b", "c"), ("c", "d")])
        plan = plan_betweenness(g, 1)
        assert plan.ranked_edges == (("b", "c"),)
        assert plan.scores == (pytest.approx(4.0),)

    def test_budget_beyond_edge_count_ranks_everything(self):
        g = build_graph([("a", "b"), ("b", "c"), ("c", "d")])
        plan = plan_betweenness(g, 99)
        assert len(plan.ranked_edges) == 3
        assert plan.k == 99
        assert set(plan.ranked_edges) == set(g.edges())

    def test_ranking_matches_score_oracle(self):
        from oracles import path_count_betweenness

        rng = random.Random(107)
        for _ in range(8):
            nodes, edges = random_digraph(rng, rng.randint(5, 20), 0.2)
            if not edges:
                continue
            g = build_graph(edges, nodes=nodes)
            plan = plan_betweenness(g, len(edges))
            expected = path_count_betweenness(nodes, edges)
            for edge, score in zip(plan.ranked_edges, plan.scores):
                assert score == pytest.approx(expected[edge], abs=1e-9)
            assert list(plan.scores) == sorted(plan.scores, reverse=True)


class TestPlanEdgeDegree:
    def test_star_scores_all_zero(self):
        leaves = [f"l{i}" for i in range(5)]
        g = build_graph([(leaf, "c") for leaf in leaves])
        plan = plan_edge_degree(g, 99)
        assert set(plan.scores) == {0.0}

    def test_hand_counted_triangle(self):
        g = build_graph([("a", "b"), ("b", "c"), ("c", "b")])
        plan = plan_edge_degree(g, 1)
        assert plan.ranked_edges == (("b", "c"),)
        assert plan.scores == (pytest.approx(2.0),)

    def test_matches_product_scan(self, eight_node_network):
        g = eight_node_network
        plan = plan_edge_degree(g, g.edge_count)
        for (src, dst), score in zip(plan.ranked_edges, plan.scores):
            assert score == g.in_degree(src) * g.out_degree(dst)

    def test_random_graphs_match_product_scan(self):
        rng = random.Random(109)
        for _ in range(10):
            nodes, edges = random_digraph(rng, rng.randint(4, 20), 0.25)
            if not edges:
                continue
            g = build_graph(edges, nodes=nodes)
            plan = plan_edge_degree(g, len(edges))
            for (src, dst), score in zip(plan.ranked_edges, plan.scores):
                assert score == g.in_degree(src) * g.out_degree(dst)

    @pytest.mark.parametrize("seed", range(12))
    def test_ties_ranked_as_the_lexsort_ranks_them(self, seed):
        # Sparse random graphs give edge-degree scores with many ties; the
        # plan must order them as np.lexsort((dst, src, -scores)) does.
        rng = random.Random(seed)
        nodes, edges = random_digraph(rng, rng.randint(5, 60), rng.uniform(0.02, 0.3))
        g = build_graph(edges, nodes=nodes)
        if g.edge_count == 0:
            return
        plan = plan_edge_degree(g, g.edge_count)
        by_edge = dict(zip(plan.ranked_edges, plan.scores))
        scores = np.array([by_edge[edge] for edge in g.edges()])
        assert len(set(scores.tolist())) < scores.size
        src, dst = g.edge_src_indices, g.edge_dst_indices
        ids = g.external_ids
        want = tuple((ids[src[i]], ids[dst[i]]) for i in np.lexsort((dst, src, -scores)).tolist())
        assert plan.ranked_edges == want
        cut = rng.randint(0, g.edge_count)
        assert plan_edge_degree(g, cut).ranked_edges == want[:cut]


class TestPlanRandom:
    def _ten_edge_graph(self):
        return build_graph([(f"a{i}", f"b{i}") for i in range(10)])

    def test_full_budget_is_a_permutation(self):
        g = self._ten_edge_graph()
        plan = plan_random(g, g.edge_count, rng_seed=5)
        assert sorted(plan.ranked_edges) == sorted(g.edges())

    def test_same_seed_same_plan(self):
        g = self._ten_edge_graph()
        assert plan_random(g, 4, rng_seed=42) == plan_random(g, 4, rng_seed=42)

    def test_selection_frequency_is_uniform(self):
        g = self._ten_edge_graph()
        counts = Counter(plan_random(g, 1, rng_seed=seed).ranked_edges[0] for seed in range(10_000))
        for edge in g.edges():
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
        g = build_graph([(f"a{i}", f"b{i % 7}") for i in range(40)])
        for seed in self.SEEDS:
            plan = plan_random(g, 25, rng_seed=seed)
            assert plan.edge_pos.tolist() == shuffled_prefix(g.edge_count, 25, seed)

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
            plan_random(Huge(), 1, rng_seed=0)


class TestPlanCache:
    def test_round_trip_with_header(self, tmp_path):
        g = build_graph(random_digraph(random.Random(37), 12, 0.3)[1])
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
        g = build_graph(random_digraph(random.Random(41), 10, 0.3)[1])
        plan = plan_netmelt(g, 5)
        save_plan_cache(plan, tmp_path / "a.npz")
        (tmp_path / "elsewhere").mkdir()
        save_plan_cache(plan_netmelt(build_graph(g.edges()), 5), tmp_path / "elsewhere" / "b.npz")
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "elsewhere" / "b.npz").read_bytes()


class TestPlanContracts:
    def _plans(self, g, k, seed=0):
        return [
            plan_netmelt(g, k),
            plan_betweenness(g, k),
            plan_edge_degree(g, k),
            plan_random(g, k, rng_seed=seed),
        ]

    def test_prefix_consistency(self):
        rng = random.Random(113)
        nodes, edges = random_digraph(rng, 12, 0.3)
        g = build_graph(edges, nodes=nodes)
        for small, large in zip(self._plans(g, 4), self._plans(g, 11)):
            assert large.ranked_edges[:4] == small.ranked_edges
            assert large.prefix(4).ranked_edges == small.ranked_edges

    def test_only_existing_edges_no_duplicates(self):
        rng = random.Random(127)
        nodes, edges = random_digraph(rng, 14, 0.3)
        g = build_graph(edges, nodes=nodes)
        edge_set = set(g.edges())
        for plan in self._plans(g, g.edge_count):
            assert len(plan.ranked_edges) == len(set(plan.ranked_edges)) == g.edge_count
            assert set(plan.ranked_edges) <= edge_set

    def test_scores_non_increasing(self):
        rng = random.Random(131)
        nodes, edges = random_digraph(rng, 14, 0.3)
        g = build_graph(edges, nodes=nodes)
        for plan in self._plans(g, g.edge_count):
            assert list(plan.scores) == sorted(plan.scores, reverse=True)

    def test_budget_never_exceeds_edge_count(self):
        g = build_graph([("a", "b"), ("b", "a")])
        for plan in self._plans(g, 50):
            assert len(plan.ranked_edges) == 2
            assert plan.k == 50

    def test_negative_budget_rejected(self):
        g = build_graph([("a", "b")])
        with pytest.raises(InputError):
            plan_edge_degree(g, -1)

    def test_unknown_strategy_rejected(self):
        g = build_graph([("a", "b")])
        with pytest.raises(InputError):
            plan_strategy(g, "bogus", 1)


class TestPlanSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = random.Random(137)
        nodes, edges = random_digraph(rng, 10, 0.3)
        g = build_graph(edges, nodes=nodes)
        for strategy in STRATEGIES:
            plan = plan_strategy(g, strategy, 6, rng_seed=9)
            path = tmp_path / f"{strategy}.tsv"
            save_plan(plan, path)
            assert load_plan(path, g) == plan

    def test_file_format(self, tmp_path):
        g = build_graph([("a", "b"), ("b", "a")])
        plan = plan_random(g, 2, rng_seed=3)
        path = tmp_path / "plan.tsv"
        save_plan(plan, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "random,2,3"
        assert all(len(line.split("\t")) == 3 for line in lines[1:])

    def test_header_without_seed(self, tmp_path):
        g = build_graph([("a", "b"), ("b", "c")])
        plan = plan_edge_degree(g, 1)
        path = tmp_path / "plan.tsv"
        save_plan(plan, path)
        assert path.read_text().splitlines()[0] == "edge-degree,1,"
        assert load_plan(path, g).rng_seed is None

    def test_bad_seed_in_header_is_parse_error(self, tmp_path):
        path = tmp_path / "plan_random.tsv"
        path.write_text("random,2,abc\na\tb\t0.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"plan_random\.tsv.*bad seed 'abc'"):
            load_plan(path, build_graph([("a", "b")]))

    def test_netmelt_method_recorded(self):
        g = build_graph([("a", "b"), ("b", "a")])
        assert plan_netmelt(g, 1).method == "one-shot-eigenscore"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("netmelt,-1,\n", r"line 1: bad budget '-1'"),
            ("netmelt,1,\na\tb\t0.5\nb\ta\t0.25\n", r"line 3: more plan edges than the header's budget 1"),
            ("netmelt,2,\na\tb\tnan\n", r"line 2: score is NaN"),
            ("netmelt,2,\na\tb\t0.25\n\nb\ta\t0.5\n", r"line 4: score 0.5 rises above the previous 0.25"),
        ],
        ids=["negative-k", "more-lines-than-k", "nan-score", "rising-score"],
    )
    def test_bad_plan_file_is_parse_error_naming_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "plan_netmelt.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=r"plan_netmelt\.tsv: " + message):
            load_plan(path, build_graph([("a", "b"), ("b", "a")]))

    def test_loaded_edges_outside_the_network_are_minus_one(self, tmp_path):
        g = build_graph([("a", "b"), ("b", "c")])
        path = tmp_path / "plan.tsv"
        path.write_text("edge-degree,3,\nb\tc\t2.0\nc\tb\t1.0\nz\ta\t1.0\n", encoding="utf-8")
        plan = load_plan(path, g)
        assert plan.edge_pos.tolist() == [1, -1, -1]
        assert plan.ranked_edges == (("b", "c"), None, None)
        with pytest.raises(InputError, match="not in its network"):
            save_plan(plan, tmp_path / "again.tsv")


class TestDeletionPlan:
    def test_arrays_are_int64_and_float64_and_read_only(self):
        g = build_graph([("a", "b"), ("b", "c")])
        plan = DeletionPlan("netmelt", 2, g, [1, 0], [2, 1])
        assert plan.edge_pos.dtype == np.int64 and plan.scores.dtype == np.float64
        with pytest.raises(ValueError):
            plan.edge_pos[0] = 0
        assert plan.ranked_edges == (("b", "c"), ("a", "b"))

    def test_nan_score_rejected(self):
        g = build_graph([("a", "b"), ("b", "c")])
        with pytest.raises(InputError, match="NaN"):
            DeletionPlan("netmelt", 2, g, [1, 0], [1.0, float("nan")])

    @pytest.mark.parametrize("pos, scores", [([0, 2], [1, 0]), ([-2], [0]), ([0, 1], [0]), ([0, 1], [0, 1])])
    def test_bad_arrays_rejected(self, pos, scores):
        g = build_graph([("a", "b"), ("b", "c")])
        with pytest.raises(InputError):
            DeletionPlan("random", 2, g, pos, scores)

    def test_equality_over_strategy_k_seed_and_arrays(self):
        g = build_graph([("a", "b"), ("b", "c")])
        plan = DeletionPlan("random", 2, g, [1, 0], [0, 0], rng_seed=3)
        other_network = build_graph([("x", "y"), ("y", "z")])
        assert plan == DeletionPlan("random", 2, other_network, [1, 0], [0, 0], rng_seed=3)
        assert plan != DeletionPlan("random", 2, g, [0, 1], [0, 0], rng_seed=3)
        assert plan != DeletionPlan("random", 2, g, [1, 0], [0, 0], rng_seed=4)
        assert plan != DeletionPlan("random", 3, g, [1, 0], [0, 0], rng_seed=3)
        assert plan != DeletionPlan("random", 2, g, [1, 0], [1, 0], rng_seed=3)
        assert plan != DeletionPlan("random", 2, g, [1], [0], rng_seed=3)

    def test_prefix_slices_the_arrays(self):
        g = build_graph([("a", "b"), ("b", "c"), ("c", "a")])
        plan = DeletionPlan("edge-degree", 5, g, [2, 0, 1], [3, 2, 1])
        assert plan.prefix(2) == DeletionPlan("edge-degree", 2, g, [2, 0], [3, 2])
        assert plan.prefix(9).edge_pos.tolist() == [2, 0, 1]
        with pytest.raises(InputError):
            plan.prefix(-1)


def _oracle_graphs():
    """Seeded random graphs, the sparse ones with many tied edge-degree scores."""
    rng = random.Random(4111)
    graphs = []
    while len(graphs) < 14:
        nodes, edges = random_digraph(rng, rng.randint(2, 36), rng.uniform(0.02, 0.35))
        if edges:
            graphs.append(build_graph(edges, nodes=nodes))
    return graphs


class TestMatchesStringOracle:
    def test_graphs_have_many_tied_edge_degree_scores(self):
        tied = 0
        for g in _oracle_graphs():
            scores = plan_edge_degree(g, g.edge_count).scores
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
                assert load_plan(got_path, g) == plan

    def test_loaded_unknown_and_duplicate_edges_rank_as_the_oracle(self, tmp_path, caplog):
        rng = random.Random(4127)
        for g in _oracle_graphs():
            edges = list(g.edges())
            ranked = rng.sample(edges, rng.randint(1, len(edges)))
            ranked += rng.choices(ranked, k=rng.randint(1, 3))
            ranked.insert(rng.randint(0, len(ranked)), ("zz-unknown", edges[0][1]))
            ranked.insert(rng.randint(0, len(ranked)), (edges[0][1], edges[0][0]))
            ranked.append(("zz-a", "zz-b"))
            rng.shuffle(ranked)
            scores = sorted((rng.choice([0.0, 0.5, 1.0, rng.random()]) for _ in ranked), reverse=True)
            want = StringPlan("edge-degree", len(ranked) + rng.randint(0, 2), tuple(ranked), tuple(scores))
            path = tmp_path / "plan.tsv"
            string_save_plan(want, path)
            caplog.clear()
            with caplog.at_level("WARNING", logger="cascadecut.estimator"):
                ranks = plan_ranks(g, load_plan(path, g))
            want_ranks, warning = string_plan_ranks(g, want)
            assert np.array_equal(ranks, want_ranks)
            assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [warning]


class TestTopK:
    """The partition-based top k against the stable full sort."""

    def test_tie_heavy_edge_degree_scores(self):
        for g in _oracle_graphs():
            scores = (g.in_degrees[g.edge_src_indices] * g.out_degrees[g.edge_dst_indices]).astype(float)
            e = g.edge_count
            want = np.argsort(-scores, kind="stable")
            for k in sorted({0, 1, e // 2, e - 1, e}):
                plan = _ranked_plan(g, EDGE_DEGREE, k, scores)
                assert plan.edge_pos.tolist() == want[:k].tolist()
                assert plan.scores.tobytes() == scores[want[:k]].tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_few_distinct_scores_and_signed_zeros(self, seed):
        rng = random.Random(seed)
        nodes, edges = random_digraph(rng, 30, 0.3)
        g = build_graph(edges, nodes=nodes)
        e = g.edge_count
        scores = np.array([rng.choice([0.0, -0.0, 1.0, 2.5, 2.5, 1e-300]) for _ in range(e)])
        want = np.argsort(-scores, kind="stable")
        for k in sorted({0, 1, e // 3, e // 2, e - 1, e}):
            assert _ranked_plan(g, EDGE_DEGREE, k, scores).edge_pos.tolist() == want[:k].tolist()
