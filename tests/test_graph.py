"""Graph construction, betweenness, and eigenpair tests."""

from __future__ import annotations

import io
import random
import weakref

import numpy as np
import pytest

from cascadecut import (
    BETWEENNESS,
    ConvergenceError,
    InputError,
    ParseError,
    betweenness_scores,
    leading_eigenpair,
    plan_strategy,
    read_network,
)
from cascadecut import graph, ingest
from conftest import EIGHT_NODE_FOLLOW_EDGES, assert_same_graph, network_of
from oracles import (
    all_pairs_distance_sum,
    dense_spectral_radius,
    dict_edge_positions,
    graph_edges,
    path_count_betweenness,
    plain_decimal,
    random_digraph,
    reference_build_graph,
    reference_edge_arrays,
    string_fingerprint,
    two_gather_betweenness,
    two_phase_power,
)


class TestFingerprint:
    def test_equal_graphs_have_equal_fingerprints(self):
        edges = list(EIGHT_NODE_FOLLOW_EDGES)
        shuffled = edges[::-1] + edges[:2]
        assert network_of(edges).fingerprint == network_of(shuffled).fingerprint
        assert len(network_of(edges).fingerprint) == 64

    @pytest.mark.parametrize(
        "a, b",
        [
            ([("a", "bc")], [("ab", "c")]),  # same joined text, other ids
            ([("a", "b")], [("a", "c")]),
            ([("a", "b")], [("b", "a")]),
            ([("a", "b"), ("b", "c")], [("a", "b"), ("a", "c")]),  # one edge moved, same ids
            ([("a", "b")], [("a", "b"), ("b", "a")]),
        ],
    )
    def test_other_ids_or_edges_change_it(self, a, b):
        assert network_of(a).fingerprint != network_of(b).fingerprint

    def test_isolated_nodes_change_it(self):
        assert network_of([("a", "b")]).fingerprint != reference_build_graph([("a", "b")], nodes=["c"]).fingerprint

    def test_non_ascii_and_surrogate_ids(self):
        assert network_of([("é", "\ud800")]).fingerprint != network_of([("é", "\udc00")]).fingerprint


def integer_graph(pairs):
    """The graph of decimal id pairs read from a file, which keeps its ids as integers."""
    g = read_network(io.StringIO("".join(f"{a}\t{b}\n" for a, b in pairs)))
    assert g._values is not None and g._ids is None
    return g


class TestFingerprintFromIntegers:
    """The digest of ids held as integers against the string formula."""

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_the_string_formula(self, seed):
        rng = random.Random(seed)
        ids, edges = numeric_digraph(rng, rng.randint(1, 30), 0.2)
        edges = edges or [(ids[0], ids[0])]  # a self-loop alone leaves no edge
        g = integer_graph(edges)
        digest = g.fingerprint
        assert g._ids is None  # hashed from the digits
        assert digest == string_fingerprint(g) == network_of(edges).fingerprint

    def test_non_decimal_and_empty_graphs(self):
        for g in (network_of([("a", "b"), ("é", "7")]), network_of([]), read_network(io.StringIO(""))):
            assert g.fingerprint == string_fingerprint(g)
        assert read_network(io.StringIO("")).fingerprint == network_of([]).fingerprint

    def test_digit_text(self):
        values = np.array([0, 7, 10, 999999999999999999, 123456789012345678, 5], dtype=np.int64)
        digits = graph.digit_counts(values)
        assert digits.tolist() == [1, 1, 2, 18, 18, 1]
        assert graph._digit_text(values, digits).tobytes() == "".join(map(str, values.tolist())).encode()


class TestBuildGraph:
    def test_empty_input(self):
        g = network_of([])
        assert g.node_count == 0
        assert g.edge_count == 0

    def test_duplicates_and_self_loops_dropped(self):
        g = network_of([("a", "b"), ("a", "b"), ("b", "b")])
        assert g.node_count == 2
        assert graph_edges(g) == [("a", "b")]

    def test_eight_node_example(self, eight_node_network):
        assert eight_node_network.node_count == 8
        assert eight_node_network.edge_count == 8
        assert set(graph_edges(eight_node_network)) == set(EIGHT_NODE_FOLLOW_EDGES)

    def test_ids_sorted_by_external_id(self):
        g = network_of([("z", "a"), ("m", "z")])
        assert g.external_ids == ("a", "m", "z")

    def test_build_is_input_order_independent(self):
        rng = random.Random(7)
        _, edges = random_digraph(rng, 12, 0.3)
        shuffled = edges[:]
        rng.shuffle(shuffled)
        g1, g2 = network_of(edges), network_of(shuffled + edges[:3])
        assert g1.external_ids == g2.external_ids
        assert graph_edges(g1) == graph_edges(g2)

    def test_degree_sums_match_edge_count(self):
        rng = random.Random(11)
        _, edges = random_digraph(rng, 20, 0.2)
        g = network_of(edges)
        assert int(g.out_degrees.sum()) == g.edge_count
        assert int(g.in_degrees.sum()) == g.edge_count

    def test_out_edge_slots_describe_the_same_edges(self):
        rng = random.Random(13)
        _, edges = random_digraph(rng, 15, 0.25)
        g = network_of(edges)
        ids = g.external_ids
        nodes = np.array(rng.sample(range(g.node_count), g.node_count) + [0, 0], dtype=np.int64)
        slot, pos = g.out_edge_slots(nodes)
        src, dst = g.edge_sources(), g.edge_dst_indices
        assert src[pos].tolist() == nodes[slot].tolist()
        want = [(s, d) for u in nodes.tolist() for s, d in graph_edges(g) if s == ids[u]]
        assert [(ids[s], ids[d]) for s, d in zip(src[pos].tolist(), dst[pos].tolist())] == want
        assert g.out_edge_slots(np.empty(0, dtype=np.int64))[1].tolist() == []

    def test_isolated_nodes_via_nodes_argument(self):
        g = reference_build_graph([("a", "b")], nodes=["c", "a"])
        assert g.external_ids == ("a", "b", "c")
        assert g.out_degrees.tolist() == [1, 0, 0]
        assert g.in_degrees.tolist() == [0, 1, 0]

    def test_edge_positions(self):
        rng = random.Random(17)
        nodes, edges = random_digraph(rng, 15, 0.25)
        g = network_of(edges)
        canonical = graph_edges(g)
        absent = [(a, b) for a in nodes for b in nodes if (a, b) not in set(edges)][:20]
        queries = rng.sample(edges, len(edges)) + absent + [("zz", nodes[0]), (nodes[0], "zz")]
        expected = [canonical.index(q) if q in canonical else -1 for q in queries]
        assert edge_positions(g, queries).tolist() == expected
        assert edge_positions(reference_build_graph([], nodes=["a"]), [("a", "a")]).tolist() == [-1]
        assert edge_positions(g, []).tolist() == []


def edge_positions(g, pairs):
    """Canonical position of each (src, dst) id pair, -1 where there is none:
    the ends through the bulk id lookup, then a binary search of the edge
    codes ``src * n + dst``, which canonical (src, dst) order keeps sorted."""
    src = g.indices_of([src for src, _ in pairs])
    dst = g.indices_of([dst for _, dst in pairs])
    codes = g.edge_sources() * g.node_count + g.edge_dst_indices
    if not codes.size:
        return np.full(len(pairs), -1, dtype=np.int64)
    wanted = src * g.node_count + dst
    at = np.minimum(np.searchsorted(codes, wanted), codes.size - 1)
    return np.where((src >= 0) & (dst >= 0) & (codes[at] == wanted), at, -1)


def numeric_digraph(rng, n, p):
    """A random digraph over decimal ids whose text order differs from numeric order."""
    ids = sorted({str(rng.choice([rng.randint(0, 120), rng.randint(1, 10**18 - 1)])) for _ in range(n)})
    return ids, [(a, b) for a in ids for b in ids if a != b and rng.random() < p]


class TestLazyIndexes:
    """Id lookups and edge positions against eager builds."""

    def test_id_tables(self):
        rng = random.Random(5)
        ids, edges = numeric_digraph(rng, 20, 0.2)
        g = reference_build_graph(edges, nodes=ids)
        want = [ids.index("9") if "9" in ids else -1, 3, -1, 0]
        assert g.indices_of(iter(["9", ids[3], "404", ids[0]])).tolist() == want
        assert g.indices_of(("9", ids[3], "nope", ids[0])).tolist() == want
        empty = network_of([])
        assert empty.indices_of(["1", "2"]).tolist() == [-1, -1]

    @pytest.mark.parametrize("seed", range(16))
    def test_edge_positions_match_the_dict_oracle(self, seed):
        rng = random.Random(seed)
        numeric = seed % 2 == 0
        nodes, edges = (numeric_digraph if numeric else random_digraph)(rng, rng.randint(2, 25), 0.25)
        if seed % 4 == 1:
            nodes = nodes + ["n\0", "n"]  # NUL inside an id
            edges = edges + [("n\0", nodes[0]), ("n", "n\0")]
        g = reference_build_graph(edges, nodes=nodes)
        present = rng.sample(edges, len(edges)) if edges else []
        absent = [(a, b) for a in nodes for b in nodes if (a, b) not in set(edges)]
        queries = present + rng.sample(absent, min(len(absent), 10))
        queries += [(b, a) for a, b in rng.sample(present, min(len(present), 5))]  # reversed
        queries += rng.choices(present, k=3) if present else []  # repeated
        queries += [(nodes[0], "404"), ("zz", nodes[-1])]
        if numeric and seed % 4 == 2:
            queries += [("007", nodes[0]), (nodes[0], "+5"), ("-3", "1_0")]  # not plain decimals
        rng.shuffle(queries)
        got = edge_positions(g, queries)
        assert got.dtype == np.int64
        assert got.tolist() == dict_edge_positions(g, queries)


# Ids that are no plain decimal, though some hold one's digits.
ODD_IDS = ["007", "-1", "+5", "1234567890123456789", "7\0", "n\0", "\ud800", "u\ud800", "x", ""]


def lookup_graphs(rng):
    """Graphs that hold decimal ids as integers and as strings, one over
    plain decimals mixed with :data:`ODD_IDS`, and empty ones of both kinds."""
    values = rng.sample(range(1, 60), rng.randint(2, 12)) + [rng.randint(10**17, 10**18 - 1)]
    ids = sorted(map(str, values))
    edges = [(a, b) for a in ids for b in ids if a != b and rng.random() < 0.3] or [(ids[0], ids[1])]
    mixed = ids[: len(ids) // 2] + rng.sample([i for i in ODD_IDS if i], 5) + ["7"]
    return [
        integer_graph(edges),
        reference_build_graph(edges, nodes=ids),
        reference_build_graph([], nodes=mixed),
        integer_graph([]),
        reference_build_graph([]),
    ]


class TestIntegerIdLookup:
    """Lookups in graphs that hold their ids as integers or as strings, against the dict oracle."""

    @pytest.mark.parametrize("seed", range(12))
    def test_indices_match_the_dict_oracle(self, seed):
        rng = random.Random(seed)
        for g in lookup_graphs(rng):
            index = {ext: i for i, ext in enumerate(g.external_ids)}
            pool = list(g.external_ids) + ODD_IDS + ["0", "7", "8", "60", str(10**18 - 1), "u1"]
            for k in (0, rng.randint(1, 40)):
                queries = rng.choices(pool, k=k)  # repeated, unsorted and absent ids
                want = [index.get(ext, -1) for ext in queries]
                for form in (list, tuple, iter):
                    got = g.indices_of(form(queries))
                    assert got.dtype == np.int64
                    assert got.tolist() == want
                decimal = [ext for ext in queries if plain_decimal(ext)]
                got = g.indices_of(np.array(list(map(int, decimal)), dtype=np.int64))
                assert got.tolist() == [index.get(ext, -1) for ext in decimal]
            # A float 7.0 would otherwise be ranked as the decimal 7.
            for floats in (np.array([7.5]), np.array([7.0])):
                with pytest.raises(InputError, match="float64"):
                    g.indices_of(floats)

    @pytest.mark.parametrize("seed", range(24))
    def test_edge_positions_and_indices(self, seed):
        rng = random.Random(seed)
        lo, step = rng.choice([0, 1, 9, 10 ** rng.randint(1, 15)]), rng.choice([1, 2, 1000])
        if seed % 4 == 3:
            values = rng.sample(range(10**17, 10**18), 12)
        else:
            values = [lo + step * i for i in rng.sample(range(40), rng.randint(2, 30))]
        ids = list(map(str, values))
        edges = [(a, b) for a in ids for b in ids if a != b and rng.random() < 0.3] or [(ids[0], ids[1])]
        g = integer_graph(edges)
        present = rng.sample(edges, len(edges))
        unknown = [str(max(values) + 1), str(min(values) + 1), "x", "007", "-1", "1234567890123456789"]
        absent = [(rng.choice(ids + unknown), rng.choice(ids + unknown)) for _ in range(20)]
        queries = present + absent + [(b, a) for a, b in present[:5]]
        rng.shuffle(queries)
        got = edge_positions(g, queries)
        assert got.dtype == np.int64
        assert got.tolist() == dict_edge_positions(g, queries)
        index = {ext: i for i, ext in enumerate(g.external_ids)}
        lookups = ids + unknown[:2]
        want = [index.get(ext, -1) for ext in lookups]
        assert g.indices_of(np.array(list(map(int, lookups)), dtype=np.int64)).tolist() == want
        assert g.indices_of(lookups).tolist() == want
        assert g.indices_of(np.empty(0, dtype=np.int64)).tolist() == []

    def test_integer_queries_of_a_string_graph(self):
        g = network_of([("7", "x"), ("10", "7")])
        assert g.indices_of(np.array([10, 7, 8], dtype=np.int64)).tolist() == [0, 1, -1]

    @pytest.mark.parametrize("queries", [[1, 2], [7], [b"1"], ["1", None], [None], ["x", 2.0]])
    def test_query_lists_holding_a_non_string_are_input_errors(self, queries):
        for g in (read_network(["1\t2"]), integer_graph([("1", "2")]), network_of([("x", "y")]), read_network([])):
            with pytest.raises(InputError, match="strings or int64 values"):
                g.indices_of(queries)


# Ids drawn from this pool collide often (duplicates, self-loops) and mix
# ASCII with non-ASCII text, whose code-point order the dense ids must keep.
ID_POOL = [f"u{i}" for i in range(12)] + ["ü", "é1", "用户", "z", "Z", "u1\u0301", "0"]


class TestStreamingBuildMatchesReference:
    """``read_network`` of edge lines against the list-based build."""

    @pytest.mark.parametrize("seed", range(25))
    def test_random_pair_lists(self, seed):
        rng = random.Random(seed)
        pool = rng.sample(ID_POOL, rng.randint(1, len(ID_POOL)))
        edges = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 60))]
        edges += rng.sample(edges, min(len(edges), 5))  # explicit repeats
        want = reference_build_graph(edges)
        got = network_of(edges)
        assert_same_graph(got, want)
        assert got.fingerprint == want.fingerprint

    @pytest.mark.parametrize("seed", range(25))
    def test_decimal_ids_of_mixed_length(self, seed):
        rng = random.Random(seed)
        pool = [str(rng.randint(0, 10 ** rng.randint(1, 18) - 1)) for _ in range(rng.randint(1, 30))]
        if seed % 3 == 0:
            pool += rng.sample(ID_POOL, 3) + ["007", "-5", "1234567890123456789"]  # not plain decimals
        edges = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 80))]
        want = reference_build_graph(edges)
        lines = "".join(f"{a}\t{b}\n" for a, b in edges)
        # A list of edge lines is read as one block, a file in blocks.
        for got in (network_of(edges), read_network(io.StringIO(lines))):
            assert_same_graph(got, want)
            assert got.fingerprint == want.fingerprint

    def test_self_loops_only(self):
        edges = [("a", "a"), ("b", "b"), ("a", "a")]
        assert_same_graph(network_of(edges), reference_build_graph(edges))

    def test_odd_field_count_rejected(self):
        with pytest.raises(ParseError, match="expected 2 fields, got 1"):
            read_network(["a\tb", "c"], strict=True)


# (ids, sources, destinations) that are not canonical edge arrays.
NOT_CANONICAL = {
    "sources decrease": (("a", "b", "c"), [1, 0], [2, 1]),
    "destinations decrease": (("a", "b", "c"), [0, 0], [2, 1]),
    "duplicate edge": (("a", "b"), [0, 0], [1, 1]),
    "self-loop": (("a", "b"), [0], [0]),
    "source out of range": (("a", "b"), [5], [0]),
    "destination out of range": (("a", "b"), [0], [5]),
    "negative id": (("a", "b"), [-1], [0]),
    "edges over no nodes": ((), [0], [1]),
    "unequal lengths": (("a", "b"), [0, 1], [1]),
    "2-d arrays": (("a", "b"), [[0]], [[1]]),
    "float64 arrays": (("a", "b"), np.array([0.0]), np.array([1.0])),
    "float32 arrays": (("a", "b"), np.array([0], dtype=np.float32), np.array([1], dtype=np.float32)),
    "bool arrays": (("a", "b"), np.array([False]), np.array([True])),
    "repeated id": (("a", "a", "b"), [0, 1], [2, 2]),
    "ids out of order": (("b", "a"), [0], [1]),
    "int64 ids out of text order": (np.array([9, 10]), [0], [1]),
    "negative int64 id": (np.array([-1, 5]), [0], [1]),
    "19-digit int64 id": (np.array([1, 10**18]), [0], [1]),
}


class TestCanonicalEdgeArrays:
    """The constructor rejects ids and edge arrays that are not canonical;
    edge lists are made ``INDEX`` arrays, and arrays are passed as given."""

    @pytest.mark.parametrize("ids, src, dst", NOT_CANONICAL.values(), ids=NOT_CANONICAL)
    def test_rejected(self, ids, src, dst):
        src, dst = (arr if isinstance(arr, np.ndarray) else np.array(arr, dtype=graph.INDEX) for arr in (src, dst))
        with pytest.raises(InputError):
            graph.DirectedGraph(ids, src, dst)

    def test_ids_in_text_order_build(self):
        edge = np.array([0], dtype=graph.INDEX)
        for ids in (("a", "b"), np.array([10, 9]), np.array([0, 1, 10, 100, 2, 10**18 - 1])):
            assert graph.DirectedGraph(ids, edge, edge + 1).node_count == len(ids)

    def test_graphs_without_edges_still_build(self):
        empty = np.empty(0, dtype=graph.INDEX)
        for g in (read_network([]), reference_build_graph([], nodes=["b", "a"]),
                  graph.DirectedGraph(("a", "b"), empty, empty.copy())):
            assert g.edge_count == 0 and g.edge_sources().tolist() == []
            assert g.out_degrees.tolist() == [0] * g.node_count


SOURCE_SHAPES = ("no edges", "sinks", "last node holds edges")


class TestEdgeSources:
    """``edge_sources`` against the sources the list-based build computes."""

    @staticmethod
    def edges(rng, ids, shape):
        pool = [f"u{i}" for i in range(rng.randint(3, 15))]
        if ids == "decimal":
            pool = list(map(str, rng.sample(range(1, 10**6), len(pool))))
        pool.sort()
        if shape == "no edges":
            return []
        # Sources from the first half of the ids only, so the last half, the
        # last node among them, has no out-edge.
        sources = pool[: len(pool) // 2] if shape == "sinks" else pool
        edges = [(rng.choice(sources), rng.choice(pool)) for _ in range(rng.randint(1, 40))]
        edges = [(a, b) for a, b in edges if a != b] or [(pool[0], pool[-1])]
        if shape == "last node holds edges":
            edges.append((pool[-1], pool[0]))
        return edges

    @pytest.mark.parametrize("shape", SOURCE_SHAPES)
    @pytest.mark.parametrize("reader", ("lines", "file"))
    @pytest.mark.parametrize("ids", ("string", "decimal"))
    @pytest.mark.parametrize("seed", range(4))
    def test_match_the_reference_arrays(self, seed, ids, reader, shape):
        rng = random.Random(seed)
        edges = self.edges(rng, ids, shape)
        lines = [f"{a}\t{b}\n" for a, b in edges]
        # A list of edge lines is read as one block, a file in blocks.
        g = read_network(lines if reader == "lines" else io.StringIO("".join(lines)))
        external_ids, src, dst = reference_edge_arrays(edges)
        assert g.external_ids == external_ids
        sources = g.edge_sources()
        assert sources.dtype == graph.INDEX and sources.tolist() == src.tolist()
        assert g.edge_dst_indices.tolist() == dst.tolist()
        if shape == "sinks":
            assert g.out_degrees[-1] == 0
        elif shape == "last node holds edges":
            assert g.out_degrees[-1] > 0

    def test_each_call_builds_a_new_array(self):
        g = network_of(EIGHT_NODE_FOLLOW_EDGES)
        first = g.edge_sources()
        first[:] = 0
        assert g.edge_sources().tolist() == reference_edge_arrays(EIGHT_NODE_FOLLOW_EDGES)[1].tolist()

    def test_the_graph_keeps_no_reference_to_the_sources(self):
        external_ids, src, dst = reference_edge_arrays(EIGHT_NODE_FOLLOW_EDGES)
        want = src.tolist()
        passed = weakref.ref(src)
        g = graph.DirectedGraph(external_ids, src, dst)
        del src
        assert passed() is None
        assert g.edge_sources().tolist() == want


def edge_betweenness(g):
    """Betweenness keyed by (src, dst) id pair."""
    return dict(zip(graph_edges(g), betweenness_scores(g).tolist()))


class TestTokenizer:
    """``_token_bounds`` and ``_token_strings`` against ``str.split``."""

    @pytest.mark.parametrize("seed", range(40))
    def test_columns_are_the_split_fields(self, seed):
        rng = random.Random(seed)
        width = rng.randint(1, 4)
        pool = ["1", "22", "007", "u3", "~$%&", "x" * 20, "9" * 19, "b#c", "\u00fcber", "\x00\x7f"]
        blanks = [" ", "\t", " \t", "  ", "\r", "\x1f", "\u00a0", "\u3000 "]
        lines = []
        for _ in range(rng.randint(0, 30)):
            fields = [rng.choice(pool) for _ in range(width)]
            lines.append(rng.choice(["", " "]) + "".join(f + rng.choice(blanks) for f in fields))
            if rng.random() < 0.2:
                lines.append(rng.choice(["", " ", "\t ", "\f"]))
        block = "\n".join(lines) + rng.choice(["", "\n"])
        data, starts, ends, breaks, line_ends = ingest._token_bounds(block)
        fields = block.split()
        assert line_ends == block.count("\n")
        assert ingest._token_strings(data, starts, ends) == fields
        gaps = zip(ends[:-1].tolist(), starts[1:].tolist())
        assert breaks.tolist() == [ord("\n") in data[end:start] for end, start in gaps]
        for column in range(width):
            assert ingest._token_strings(data, starts[column::width], ends[column::width]) == fields[column::width]

    def test_every_code_point_splits_as_str_split(self):
        # One block with every code point inside the first of two tokens:
        # split()'s blanks split the token, and any other character stays in
        # it.  The tokens are compared a range of code points at a time,
        # which keeps the lists of strings small.
        def lines(codes):
            return "".join(f"1{chr(code)}2 u\n" for code in codes)

        block = lines(range(0x110000))
        data, starts, ends, _, line_ends = ingest._token_bounds(block)
        assert line_ends == block.count("\n")
        at = 0
        for first in range(0, 0x110000, 0x10000):
            fields = lines(range(first, first + 0x10000)).split()
            assert ingest._token_strings(data, starts[at : at + len(fields)], ends[at : at + len(fields)]) == fields
            at += len(fields)
        assert at == starts.size


def brandes_instance(seed):
    """A seeded graph of 1 to 120 nodes at density 0.01 to 0.5 for the
    betweenness oracle: a G(n, p) digraph, which has cycles, or on odd seeds
    a layered DAG whose consecutive layers are densely joined, so that many
    shortest paths have equal length.  Ids are strings or decimals.  Graphs
    built from a node list keep their isolated nodes; on seeds 2 mod 3 a
    graph with edges is read from text and holds its ids as integers."""
    rng = random.Random(seed)
    n = rng.randint(1, 3) if seed % 8 == 0 else rng.choice([rng.randint(4, 30), rng.randint(31, 120)])
    p = rng.choice([0.01, 0.03, 0.1, 0.25, 0.5])
    if seed % 3 == 0:
        nodes = [f"u{i:03d}" for i in range(n)]
    else:
        nodes = list(map(str, rng.sample(range(1, 10**6), n)))
    if seed % 2:
        width = rng.randint(1, 8)
        joined = rng.uniform(0.5, 1.0)
        layer = [i // width for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(n) if layer[j] > layer[i]]
        edges = [(nodes[i], nodes[j]) for i, j in pairs if rng.random() < (joined if layer[j] == layer[i] + 1 else p)]
    else:
        edges = [(a, b) for a in nodes for b in nodes if a != b and rng.random() < p]
    if seed % 3 == 2 and edges:
        return integer_graph(edges)
    return reference_build_graph(edges, nodes=nodes)


class TestEdgeBetweenness:
    def test_directed_path(self):
        g = network_of([("a", "b"), ("b", "c")])
        assert edge_betweenness(g) == {("a", "b"): 2.0, ("b", "c"): 2.0}

    def test_directed_cycle_symmetry(self):
        g = network_of([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        scores = set(edge_betweenness(g).values())
        assert scores == {6.0}

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError):
            betweenness_scores(network_of([]))

    def test_random_digraphs_match_path_counting_oracle(self):
        rng = random.Random(29)
        for _ in range(12):
            nodes, edges = random_digraph(rng, rng.randint(4, 24), rng.uniform(0.08, 0.3))
            if not edges:
                continue
            g = reference_build_graph(edges, nodes=nodes)
            expected = path_count_betweenness(nodes, edges)
            actual = edge_betweenness(g)
            assert actual.keys() == expected.keys()
            for edge, score in expected.items():
                assert actual[edge] == pytest.approx(score, abs=1e-9)

    @pytest.mark.parametrize("seed", range(64))
    def test_equals_the_two_gather_oracle_bytewise(self, seed):
        g = brandes_instance(seed)
        scores = betweenness_scores(g)
        want = two_gather_betweenness(g)
        assert scores.dtype == want.dtype and scores.tobytes() == want.tobytes()
        src, dst = g.edge_sources(), g.edge_dst_indices
        for k in sorted({1, g.edge_count // 3, g.edge_count}):
            plan = plan_strategy(g, BETWEENNESS, k)
            top = np.lexsort((dst, src, -want))[:k]
            assert plan.edge_pos.tolist() == top.tolist()
            assert plan.scores.tobytes() == want[top].tobytes()

    def test_total_equals_sum_of_path_lengths(self):
        rng = random.Random(31)
        for _ in range(8):
            nodes, edges = random_digraph(rng, rng.randint(4, 20), 0.2)
            if not edges:
                continue
            g = reference_build_graph(edges, nodes=nodes)
            total = sum(edge_betweenness(g).values())
            assert total == pytest.approx(all_pairs_distance_sum(nodes, edges), abs=1e-6)


def power_graph(seed):
    """A seeded graph for the eigensolver oracle: a single edge, the
    defective spectrum below or two coupled cycles, a 2- or 3-cycle with
    pendant edges, a DAG, or a G(n, p) digraph."""
    rng = random.Random(seed)
    kind = seed % 8
    if kind == 0:
        return network_of([("a", "b")])
    if kind == 1 and seed % 16 == 1:
        return network_of([("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "c")])
    if kind == 1:
        lengths = [rng.randint(2, 5) for _ in range(2)]
        edges = [(f"r{r}n{i}", f"r{r}n{(i + 1) % size}") for r, size in enumerate(lengths) for i in range(size)]
        return network_of([*edges, ("r0n0", "r1n0")])
    if kind in (2, 3):
        cycle = [f"c{i}" for i in range(kind)]
        edges = list(zip(cycle, cycle[1:] + cycle[:1]))
        for i in range(rng.randint(1, 4)):
            end, leaf = rng.choice(cycle), f"p{i}"
            edges.append((end, leaf) if rng.random() < 0.5 else (leaf, end))
        return network_of(edges)
    if kind == 4:
        n = rng.randint(2, 12)
        dag = [(f"v{i}", f"v{j}") for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        return network_of(dag or [("v0", "v1")])
    while True:
        _, edges = random_digraph(rng, rng.randint(2, 30), rng.uniform(0.05, 0.4))
        if edges:
            return network_of(edges)


def eigen_outcome(g, max_iterations):
    """``leading_eigenpair``'s result, or its error's text and fields, with
    floats as hex and vectors as bytes."""
    try:
        pair = leading_eigenpair(g, max_iterations=max_iterations)
    except ConvergenceError as exc:
        return "error", str(exc), exc.best_residual.hex(), exc.iterations
    vectors = pair.left_vector.tobytes(), pair.right_vector.tobytes()
    return "pair", pair.eigenvalue.hex(), *vectors, pair.iterations, pair.residual.hex()


class TestLeadingEigenpair:
    @pytest.mark.parametrize("seed", range(64))
    def test_one_loop_equals_the_two_phase_oracle(self, seed, monkeypatch):
        g = power_graph(seed)
        for max_iterations in (10_000, 2_000, 7, 2, 1):
            got = eigen_outcome(g, max_iterations)
            with monkeypatch.context() as patched:
                patched.setattr(graph, "_power", two_phase_power)
                assert got == eigen_outcome(g, max_iterations)

    def test_oracle_graphs_take_every_path(self):
        outcomes = [eigen_outcome(power_graph(seed), m) for seed in range(16) for m in (2_000, 7, 1)]
        assert {"error", "pair"} == {outcome[0] for outcome in outcomes}
        # converged after the shifted restart, which follows 100 stalled steps
        assert any(outcome[0] == "pair" and 100 < outcome[4] < 1_000 for outcome in outcomes)
        # an exact null vector ends the iteration with eigenvalue 0
        assert any(outcome[:2] == ("pair", "0x0.0p+0") for outcome in outcomes)

    def test_two_cycle(self):
        g = network_of([("a", "b"), ("b", "a")])
        pair = leading_eigenpair(g)
        assert pair.eigenvalue == pytest.approx(1.0, abs=1e-9)
        assert pair.residual <= 1e-9

    def test_complete_graphs(self):
        for n in (3, 4, 6):
            names = [f"n{i}" for i in range(n)]
            g = network_of([(a, b) for a in names for b in names if a != b])
            pair = leading_eigenpair(g)
            assert pair.eigenvalue == pytest.approx(n - 1, abs=1e-8)

    def test_acyclic_graph_has_zero_eigenvalue(self):
        g = network_of([("a", "b"), ("a", "c"), ("b", "c")])
        pair = leading_eigenpair(g)
        assert pair.eigenvalue == 0.0
        assert pair.residual == 0.0

    def test_vectors_have_unit_norm(self):
        rng = random.Random(41)
        _, edges = random_digraph(rng, 15, 0.3)
        pair = leading_eigenpair(network_of(edges))
        assert np.linalg.norm(pair.right_vector) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(pair.left_vector) == pytest.approx(1.0, abs=1e-12)

    def test_periodic_core_with_pendant_converges(self):
        # The undamped iteration oscillates here; the damped restart must
        # still deliver the exact spectral radius of the 2-cycle.
        g = network_of([("a", "b"), ("b", "a"), ("b", "c")])
        pair = leading_eigenpair(g)
        assert pair.eigenvalue == pytest.approx(1.0, abs=1e-8)
        assert pair.residual <= 1e-9

    def test_defective_spectrum_reports_non_convergence(self):
        edges = [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "c")]
        g = network_of(edges)
        with pytest.raises(ConvergenceError) as err:
            leading_eigenpair(g, max_iterations=2000)
        assert err.value.best_residual > 0

    def test_random_digraphs_match_dense_oracle(self):
        rng = random.Random(43)
        for _ in range(10):
            nodes, edges = random_digraph(rng, rng.randint(8, 40), rng.uniform(0.15, 0.35))
            g = reference_build_graph(edges, nodes=nodes)
            pair = leading_eigenpair(g)
            assert pair.eigenvalue == pytest.approx(dense_spectral_radius(nodes, edges), abs=1e-6)

    def test_relabeling_preserves_eigenvalue(self):
        rng = random.Random(47)
        nodes, edges = random_digraph(rng, 18, 0.3)
        fresh = [f"w{i:02d}" for i in range(len(nodes))]
        rng.shuffle(fresh)
        rename = dict(zip(nodes, fresh))
        original = leading_eigenpair(reference_build_graph(edges, nodes=nodes))
        relabeled = leading_eigenpair(
            reference_build_graph([(rename[a], rename[b]) for a, b in edges], nodes=fresh)
        )
        assert relabeled.eigenvalue == pytest.approx(original.eigenvalue, abs=1e-8)

    def test_edge_deletion_never_raises_eigenvalue(self):
        rng = random.Random(53)
        nodes, edges = random_digraph(rng, 12, 0.35)
        g = reference_build_graph(edges, nodes=nodes)
        base = leading_eigenpair(g).eigenvalue
        for dropped in range(min(len(edges), 15)):
            remaining = edges[:dropped] + edges[dropped + 1 :]
            smaller = leading_eigenpair(reference_build_graph(remaining, nodes=nodes))
            assert smaller.eigenvalue <= base + 1e-9

    def test_input_validation(self):
        with pytest.raises(InputError):
            leading_eigenpair(network_of([]))
        g = network_of([("a", "b"), ("b", "a")])
        with pytest.raises(InputError):
            leading_eigenpair(g, tolerance=0.0)
        with pytest.raises(InputError):
            leading_eigenpair(g, max_iterations=0)
