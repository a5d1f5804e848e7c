"""Parsing, filtering, and statistics tests."""

from __future__ import annotations

import io
import logging
import random

import pytest

from cascadecut import (
    CascadeLog,
    InputError,
    ParseError,
    build_graph,
    compute_stats,
    dump_cascades,
    dump_follow_edges,
    filter_cascades,
    load_cascades,
    load_follow_edges,
    load_higgs_activity,
)
from cascadecut.experiment import load_network
from conftest import assert_same_graph
from oracles import reference_build_graph


class TestLoadFollowEdges:
    def test_single_line(self):
        assert load_follow_edges(io.StringIO("a\tb\n")) == [("a", "b")]

    def test_comments_skipped(self):
        text = "# header\na\tb\nb\tc\n"
        assert load_follow_edges(io.StringIO(text)) == [("a", "b"), ("b", "c")]

    def test_file_order_and_duplicates_preserved(self):
        text = "a\tb\nb\tc\na\tb\n"
        assert load_follow_edges(io.StringIO(text)) == [("a", "b"), ("b", "c"), ("a", "b")]

    def test_space_separated_accepted(self):
        assert load_follow_edges(io.StringIO("a b\n")) == [("a", "b")]

    def test_malformed_counted_and_logged(self, caplog):
        text = "a\tb\nbroken\nb\tc\n"
        with caplog.at_level(logging.WARNING):
            edges = load_follow_edges(io.StringIO(text))
        assert edges == [("a", "b"), ("b", "c")]
        assert "1 malformed" in caplog.text
        assert "line 2" in caplog.text

    def test_strict_mode_names_first_offender(self):
        with pytest.raises(ParseError, match="line 2"):
            load_follow_edges(io.StringIO("a\tb\nbroken\n"), strict=True)


def write_random_edge_file(rng, path):
    """Write a messy edge file; returns its malformed lines as (line number, text, field count).

    Mixes comments, blank lines, malformed lines, CRLF and LF line ends, tab
    and space separators, padding, non-ASCII ids, duplicates and self-loops.
    """
    ids = ["a", "b", "B", "ü", "用户", "c1", "c10", "x"]
    lines, malformed = [], []
    for lineno in range(1, rng.randint(0, 60) + 1):
        roll = rng.random()
        if roll < 0.1:
            line = rng.choice(["# comment", "#a\tb", "  # indented comment"])
        elif roll < 0.2:
            line = rng.choice(["", "   ", "\t"])
        elif roll < 0.3:
            fields = rng.choice([["lonely"], ["a", "b", "c"], ["a", "b", "c", "d"]])
            line = rng.choice(["\t", " "]).join(fields)
            malformed.append((lineno, line, len(fields)))
        else:
            sep = rng.choice(["\t", " ", " \t ", "  "])
            pad = rng.choice(["", " ", "\t"])
            line = f"{pad}{rng.choice(ids)}{sep}{rng.choice(ids)}{pad}"
        lines.append(line + rng.choice(["\n", "\r\n"]))
    if lines and rng.random() < 0.3:
        lines[-1] = lines[-1].rstrip("\r\n")
    path.write_bytes("".join(lines).encode("utf-8"))
    return malformed


class TestStreamingLoadNetwork:
    """``load_network`` streams the file into ``build_graph``; the list-based path is the oracle."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_list_based_build(self, tmp_path, caplog, seed):
        path = tmp_path / "edges.tsv"
        malformed = write_random_edge_file(random.Random(seed), path)
        with open(path, encoding="utf-8") as fh:
            want = reference_build_graph(load_follow_edges(fh))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="cascadecut"):
            got = load_network(path, strict_parse=False)
        assert_same_graph(got, want)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        if malformed:
            lineno, text, _ = malformed[0]
            assert warnings == [f"skipped {len(malformed)} malformed edge line(s); first: line {lineno}: {text!r}"]
        else:
            assert warnings == []

    @pytest.mark.parametrize("seed", range(20))
    def test_strict_fails_at_the_same_line(self, tmp_path, seed):
        path = tmp_path / "edges.tsv"
        malformed = write_random_edge_file(random.Random(seed), path)
        if not malformed:
            assert_same_graph(load_network(path, strict_parse=True), load_network(path, strict_parse=False))
            return
        lineno, text, count = malformed[0]
        expected = f"line {lineno}: expected 2 fields, got {count}: {text!r}"
        with open(path, encoding="utf-8") as fh, pytest.raises(ParseError) as listed:
            load_follow_edges(fh, strict=True)
        with pytest.raises(ParseError) as streamed:
            load_network(path, strict_parse=True)
        assert str(streamed.value) == str(listed.value) == expected


class TestLoadCascades:
    def test_single_cascade(self):
        logs = load_cascades(io.StringIO("t1\tu1\t10\nt1\tu2\t20\n"))
        assert len(logs) == 1
        assert logs[0].cascade_id == "t1"
        assert set(logs[0].users()) == {"u1", "u2"}

    def test_duplicate_user_keeps_earliest(self):
        logs = load_cascades(io.StringIO("t\tu\t10\nt\tu\t5\n"))
        assert logs[0].events == (("u", 5),)

    def test_events_sorted_by_time_then_user(self):
        logs = load_cascades(io.StringIO("t\tb\t7\nt\ta\t7\nt\tc\t3\n"))
        assert logs[0].events == (("c", 3), ("a", 7), ("b", 7))

    def test_bad_timestamp_always_raises(self):
        with pytest.raises(ParseError, match="line 2"):
            load_cascades(io.StringIO("t\tu\t10\nt\tv\tnope\n"))

    def test_grouping_matches_hand_built_map(self):
        rng = random.Random(5)
        rows = []
        expected: dict[str, dict[str, int]] = {}
        for _ in range(60):
            cid = f"c{rng.randint(0, 2)}"
            user = f"u{rng.randint(0, 9)}"
            ts = rng.randint(0, 30)
            rows.append(f"{cid}\t{user}\t{ts}\n")
            per = expected.setdefault(cid, {})
            if user not in per or ts < per[user]:
                per[user] = ts
        logs = load_cascades(io.StringIO("".join(rows)))
        assert {log.cascade_id: dict(log.events) for log in logs} == expected

    def test_round_trip(self):
        text = "t1\tu1\t10\nt1\tu2\t20\nt2\tu9\t1\n"
        logs = load_cascades(io.StringIO(text))
        again = load_cascades(io.StringIO(dump_cascades(logs)))
        assert again == logs

    def test_edge_round_trip(self):
        edges = [("a", "b"), ("b", "c"), ("a", "b")]
        assert load_follow_edges(io.StringIO(dump_follow_edges(edges))) == edges


class TestHiggsAdapter:
    def test_retweets_become_one_cascade(self):
        text = "u1 u2 100 RT\nu3 u2 90 RT\nu4 u1 120 MT\n"
        logs = load_higgs_activity(io.StringIO(text))
        assert len(logs) == 1
        assert logs[0].cascade_id == "higgs"
        assert logs[0].events == (("u3", 90), ("u1", 100))

    def test_all_interactions_when_unfiltered(self):
        text = "u1 u2 100 RT\nu4 u1 120 MT\n"
        logs = load_higgs_activity(io.StringIO(text), interactions=frozenset())
        assert logs[0].size == 2

    def test_malformed_lines_and_timestamps(self, caplog):
        # A row of an unselected kind is dropped before its timestamp is read.
        text = "# log\nu1 u2 100 RT\nu5 u2 soon MT\nbroken row\n\nu3 u2 90\r\n"
        with caplog.at_level(logging.WARNING):
            logs = load_higgs_activity(io.StringIO(text))
        assert logs[0].events == (("u1", 100),)
        assert "skipped 2 malformed activity line(s); first: line 4: 'broken row'" in caplog.text
        with pytest.raises(ParseError, match=r"^line 4: expected 4 fields, got 2: 'broken row'$"):
            load_higgs_activity(io.StringIO(text), strict=True)
        with pytest.raises(ParseError, match=r"^line 2: invalid timestamp 'soon'$"):
            load_higgs_activity(io.StringIO("u1 u2 100 RT\nu5 u2 soon RT\n"))


class TestFilterCascades:
    def _logs(self, sizes):
        return [
            CascadeLog.from_events(f"c{i}", [(f"u{j}", j) for j in range(size)])
            for i, size in enumerate(sizes)
        ]

    def test_min_size_zero_is_identity(self):
        logs = self._logs([1, 5, 3])
        assert filter_cascades(logs, 0) == logs

    def test_threshold(self):
        logs = self._logs([1, 5, 3, 7])
        assert [log.size for log in filter_cascades(logs, 4)] == [5, 7]

    def test_composition_law(self):
        rng = random.Random(9)
        logs = self._logs([rng.randint(0, 12) for _ in range(40)])
        for a, b in [(2, 7), (7, 2), (4, 4)]:
            composed = filter_cascades(filter_cascades(logs, b), a)
            assert composed == filter_cascades(logs, max(a, b))

    def test_negative_min_size_rejected(self):
        with pytest.raises(InputError):
            filter_cascades([], -1)

    def test_matches_size_predicate(self):
        rng = random.Random(10)
        logs = self._logs([rng.randint(0, 9) for _ in range(30)])
        assert filter_cascades(logs, 4) == [log for log in logs if log.size >= 4]


class TestComputeStats:
    def test_empty_inputs(self):
        stats = compute_stats(build_graph([]), [])
        assert (stats.user_count, stats.link_count, stats.cascade_count) == (0, 0, 0)
        assert stats.mean_cascade_size == 0.0

    def test_hand_counted_fixture(self):
        edges = [("a", "b"), ("b", "c"), ("a", "b"), ("c", "c"), ("d", "a")]
        logs = [
            CascadeLog.from_events("t1", [("a", 1), ("b", 2), ("e", 3)]),
            CascadeLog.from_events("t2", [("c", 1)]),
        ]
        stats = compute_stats(build_graph(edges), logs)
        assert stats.user_count == 5  # a b c d from edges, e from events
        assert stats.link_count == 3  # dedup + self-loop dropped
        assert stats.cascade_count == 2
        assert stats.mean_cascade_size == pytest.approx(2.0)

    def test_permutation_invariance(self):
        rng = random.Random(12)
        edges = [(f"u{rng.randint(0, 9)}", f"u{rng.randint(0, 9)}") for _ in range(40)]
        logs = load_cascades(
            io.StringIO("".join(f"c{i % 3}\tu{rng.randint(0, 9)}\t{i}\n" for i in range(30)))
        )
        shuffled_edges = edges[:]
        rng.shuffle(shuffled_edges)
        assert compute_stats(build_graph(edges), logs) == compute_stats(build_graph(shuffled_edges), list(reversed(logs)))
