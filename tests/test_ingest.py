"""Parsing, filtering, and statistics tests."""

from __future__ import annotations

import io
import logging
import random

import numpy as np
import pytest

from cascadecut import (
    NON_TREE,
    TREE_LAST,
    CascadeLog,
    CascadeTable,
    ExperimentConfig,
    InputError,
    ParseError,
    build_batch,
    build_graph,
    compute_stats,
    dump_cascades,
    dump_follow_edges,
    filter_cascades,
    load_cascades,
    load_follow_edges,
    load_higgs_activity,
    read_network,
)
from cascadecut import ingest
from cascadecut.experiment import load_dataset, load_network
from conftest import assert_same_graph, random_logs
from cascadecut.graph import decimal_values
from oracles import lexsort_cascade_table, list_load_cascades, reference_build_graph, text_rank


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


def logged(caplog, call):
    """``call()``'s result with the (level, message) of each record it logged."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="cascadecut"):
        result = call()
    return result, [(r.levelno, r.getMessage()) for r in caplog.records]


def warnings_of(records):
    return [message for level, message in records if level == logging.WARNING]


# One irregularity per edge file, or none (None, weighted up).  Only None
# keeps a file regular; CRLF ends are regular once a text-mode file read
# has turned them into newlines.
EDGE_QUIRKS = (
    None, None, None, "leading zero", "19 digits", "20 digits", "letters",
    "comment", "non-ascii", "malformed", "crlf", "form feed",
)


def numeric_edge_text(rng, quirk):
    """An edge file of decimal ids with one ``quirk`` at a random line.

    Ids mix digit lengths so that text order differs from numeric order
    (``9`` against ``10``); lines mix tab, space and padded separators, with
    blank lines, self-loops, duplicates and sometimes no final newline.
    """
    pool = ["0", "2", "9", "10", "20", "99", "100", "100000000000000000", "999999999999999999"]
    for _ in range(8):
        digits = rng.randint(1, 18)
        pool.append(str(rng.randint(10 ** (digits - 1), 10**digits - 1)))
    lines = []
    for _ in range(rng.randint(1, 60)):
        if rng.random() < 0.1:
            lines.append(rng.choice(["", " ", "\t", " \t "]))
            continue
        sep = rng.choice(["\t", " ", " \t ", "  "])
        pad = rng.choice(["", "", " ", "\t"])
        lines.append(f"{pad}{rng.choice(pool)}{sep}{rng.choice(pool)}{pad}")
    odd = {
        "leading zero": "007",
        "19 digits": "1234567890123456789",
        "20 digits": "98765432109876543210",
        "letters": "u7",
        "non-ascii": "ü1",
    }.get(quirk)
    if odd is not None:
        line = f"{rng.choice(pool)}\t{odd}" if rng.random() < 0.5 else f"{odd} {rng.choice(pool)}"
    elif quirk == "comment":
        line = rng.choice(["# follower followee", "#1\t2", "  # 3 4"])
    elif quirk == "malformed":
        line = " ".join(rng.choice(pool) for _ in range(rng.choice([1, 3])))
    elif quirk == "form feed":
        line = f"{rng.choice(pool)}\f{rng.choice(pool)}"
    else:
        line = None
    if line is not None:
        lines.insert(rng.randrange(len(lines) + 1), line)
    end = "\r\n" if quirk == "crlf" else "\n"
    return end.join(lines) + (end if rng.random() < 0.7 else "")


class TestBulkEdgeReader:
    """Regular numeric edge files are read in bulk; the list-based build is the oracle."""

    @pytest.mark.parametrize("seed", range(48))
    def test_matches_list_based_build(self, tmp_path, caplog, monkeypatch, seed):
        rng = random.Random(seed)
        monkeypatch.setattr(ingest, "_BLOCK", rng.choice([5, 16, 64, 1 << 17]))
        quirk = EDGE_QUIRKS[seed % len(EDGE_QUIRKS)]
        text = numeric_edge_text(rng, quirk)
        path = tmp_path / "edges.tsv"
        path.write_bytes(text.encode("utf-8"))
        for from_file in (True, False):
            if from_file:
                with open(path, encoding="utf-8") as fh:
                    want, want_log = logged(caplog, lambda: reference_build_graph(load_follow_edges(fh)))
                got, got_log = logged(caplog, lambda: load_network(path, strict_parse=False))
            else:
                want, want_log = logged(
                    caplog, lambda: reference_build_graph(load_follow_edges(io.StringIO(text)))
                )
                got, got_log = logged(caplog, lambda: read_network(io.StringIO(text)))
            assert_same_graph(got, want)
            assert warnings_of(got_log) == warnings_of(want_log)
            bulk = quirk is None or (quirk == "crlf" and from_file)
            # The oracle's own INFO line counts the records it read.
            (read_line,) = [m for level, m in want_log if level == logging.INFO]
            reader = "bulk reader" if bulk else "line scanner"
            assert (logging.INFO, read_line.replace("line scanner", reader)) in got_log

    @pytest.mark.parametrize("seed", range(48))
    def test_strict_matches_list_based_read(self, tmp_path, monkeypatch, seed):
        rng = random.Random(seed)
        monkeypatch.setattr(ingest, "_BLOCK", rng.choice([5, 16, 64, 1 << 17]))
        text = numeric_edge_text(rng, EDGE_QUIRKS[seed % len(EDGE_QUIRKS)])
        path = tmp_path / "edges.tsv"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            file_text = fh.read()
        for stream_text, read in (
            (text, lambda: read_network(io.StringIO(text), strict=True)),
            (file_text, lambda: load_network(path, strict_parse=True)),
        ):
            try:
                want = reference_build_graph(load_follow_edges(io.StringIO(stream_text), strict=True))
            except ParseError as listed:
                with pytest.raises(ParseError) as got:
                    read()
                assert str(got.value) == str(listed)
            else:
                assert_same_graph(read(), want)

    def test_blank_and_empty_files(self):
        for text in ("", "\n", " \t\n\n", "1 2"):
            want = reference_build_graph(load_follow_edges(io.StringIO(text)))
            assert_same_graph(read_network(io.StringIO(text)), want)

    def test_lines_longer_than_a_block(self, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK", 4)
        text = "123456789012 2\n3 4\n\n55555555 6\n7 8"
        want = reference_build_graph(load_follow_edges(io.StringIO(text)))
        assert_same_graph(read_network(io.StringIO(text)), want)
        bad = text + "\n1 2 3\n"
        with pytest.raises(ParseError, match="^line 6: "):
            read_network(io.StringIO(bad), strict=True)


CASCADE_QUIRKS = (
    None, None, "odd timestamps", "comment", "malformed", "bad timestamp", "crlf", "non-ascii",
)


def cascade_text(rng, quirk):
    """An event file with same-time events and repeated users, plus one ``quirk``."""
    cascades = ["c1", "c10", "c2", "7", "x-1"]
    users = ["1", "2", "9", "10", "100", "u3", "U3", "ab"]
    lines = []
    for _ in range(rng.randint(0, 80)):
        if rng.random() < 0.08:
            lines.append(rng.choice(["", " ", "\t"]))
            continue
        ts = str(rng.randint(0, 9))
        if quirk == "odd timestamps" and rng.random() < 0.3:
            ts = rng.choice(["007", "+5", "-3", "1_0", "12345678901234567"])
        sep = rng.choice(["\t", " ", " \t "])
        lines.append(f"{rng.choice(cascades)}{sep}{rng.choice(users)}{sep}{ts}")
    line = {
        "comment": rng.choice(["# cascade user time", "#c1\t1\t5"]),
        "malformed": rng.choice(["c1 1", "c1 1 2 3"]),
        "bad timestamp": f"c1\t1\t{rng.choice(['soon', '1.5', '1e3', '0x10'])}",
        "non-ascii": rng.choice(["c1\tü\t3", "ç\t1\t3"]),
    }.get(quirk)
    if line is not None:
        lines.insert(rng.randrange(len(lines) + 1), line)
    end = "\r\n" if quirk == "crlf" else "\n"
    return end.join(lines) + (end if rng.random() < 0.7 else "")


class TestCascadeTableMatchesListLoader:
    """``load_cascades`` against the list loader it replaced."""

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("strict", [False, True])
    def test_same_logs_or_same_error(self, caplog, monkeypatch, seed, strict):
        rng = random.Random(seed)
        monkeypatch.setattr(ingest, "_BLOCK", rng.choice([5, 16, 64, 1 << 17]))
        quirk = CASCADE_QUIRKS[seed % len(CASCADE_QUIRKS)]
        text = cascade_text(rng, quirk)
        try:
            want, want_log = logged(caplog, lambda: list_load_cascades(io.StringIO(text), strict=strict))
        except ParseError as listed:
            with pytest.raises(ParseError) as got:
                load_cascades(io.StringIO(text), strict=strict)
            assert str(got.value) == str(listed)
            return
        table, got_log = logged(caplog, lambda: load_cascades(io.StringIO(text), strict=strict))
        assert len(table) == len(want)
        assert [table[i] for i in range(len(table))] == want
        assert table.cascade_ids == tuple(log.cascade_id for log in want)
        assert table.sizes.tolist() == [log.size for log in want]
        assert warnings_of(got_log) == warnings_of(want_log)
        bulk = quirk in (None, "odd timestamps")
        assert any(("bulk reader" if bulk else "line scanner") in m for _, m in got_log)

        # Users outside the network stay isolated seeds, as with the list.
        network = build_graph([(a, b) for a in ("1", "2", "9", "u3") for b in ("10", "2", "ab") if a != b])
        for variant in (NON_TREE, TREE_LAST):
            got, expected = build_batch(network, table, variant), build_batch(network, want, variant)
            assert got.cascade_ids == expected.cascade_ids
            for name in ("sizes", "seed_counts", "cascade", "parent", "child", "follow_edge_pos"):
                assert getattr(got, name).tolist() == getattr(expected, name).tolist()

    def test_list_of_lines_is_line_scanned(self):
        lines = ["c1\tu\t5\n", "c1 v 6", "# comment\n", "c2\tu\t1\n"]
        assert load_cascades(lines) == load_cascades(io.StringIO("\n".join(line.rstrip("\n") for line in lines)))
        edges = ["1 2\n", "2\t10", "10 1\n"]
        assert_same_graph(read_network(edges), read_network(io.StringIO("1 2\n2\t10\n10 1\n")))

    def test_out_of_range_timestamp_is_parse_error(self):
        with pytest.raises(ParseError, match=r"^line 2: timestamp out of range '99999999999999999999'$"):
            load_cascades(io.StringIO("c\tu\t1\nc\tv\t99999999999999999999\n"))


class TestCascadeTable:
    def test_from_logs_round_trip(self, eight_node_network):
        logs = random_logs(random.Random(3), eight_node_network, 30)
        table = CascadeTable.from_logs(logs)
        assert list(table) == logs
        assert len(table) == 30 and table.sizes.tolist() == [log.size for log in logs]
        assert table[-1] == logs[-1] and table[0] == logs[0]
        with pytest.raises(IndexError):
            table[30]
        assert CascadeTable.from_logs(table) is table
        assert list(reversed(table)) == logs[::-1]

    def test_select_keeps_order(self, eight_node_network):
        logs = random_logs(random.Random(4), eight_node_network, 25)
        table = CascadeTable.from_logs(logs)
        keep = np.array([log.size % 2 == 0 for log in logs])
        assert list(table.select(keep)) == [log for log, k in zip(logs, keep) if k]
        assert len(table.select(np.zeros(25, dtype=bool))) == 0

    def test_logs_with_one_id_stay_separate_cascades(self):
        log = CascadeLog.from_events("c", [("a", 1), ("b", 2)])
        table = CascadeTable.from_logs([log, log])
        assert table.cascade_ids == ("c", "c") and list(table) == [log, log]

    def test_earliest_event_kept_per_cascade_and_user(self):
        table = load_cascades(io.StringIO("a\tu\t5\nb\tu\t1\na\tu\t2\na\tv\t2\n"))
        assert list(table) == [CascadeLog("a", (("u", 2), ("v", 2))), CascadeLog("b", (("u", 1),))]


class TestReaderChoice:
    """The bulk readers cannot silently fall away: count line-scanner calls."""

    def _count_scans(self, monkeypatch):
        calls = []
        scan = ingest._scan

        def counting(stream, width, kind, strict):
            calls.append(kind)
            return scan(stream, width, kind, strict)

        monkeypatch.setattr(ingest, "_scan", counting)
        return calls

    def test_regular_numeric_dataset_is_never_line_scanned(self, tmp_path, monkeypatch):
        rng = random.Random(8)
        edges, cascades = tmp_path / "edges.tsv", tmp_path / "cascades.tsv"
        ids = [str(rng.randint(1, 10**rng.randint(1, 12))) for _ in range(40)]
        edge_lines = [f"{rng.choice(ids)}\t{rng.choice(ids)}\n" for _ in range(300)]
        event_lines = [f"c{rng.randint(0, 9)}\t{rng.choice(ids)}\t{rng.randint(0, 50)}\n" for _ in range(200)]
        edges.write_text("".join(edge_lines), encoding="utf-8")
        cascades.write_text("".join(event_lines), encoding="utf-8")
        config = ExperimentConfig(edges, cascades, tmp_path / "out", min_cascade_size=0)
        calls = self._count_scans(monkeypatch)
        network, kept = load_dataset(config)
        assert calls == []

        commented = edge_lines[:5] + ["# follower followee\n"] + edge_lines[5:]
        edges.write_text("".join(commented), encoding="utf-8")
        cascades.write_text("".join(["# cascade user time\n"] + event_lines), encoding="utf-8")
        scanned_network, scanned_kept = load_dataset(config)
        assert calls == ["edge", "event"]
        assert_same_graph(scanned_network, network)
        assert scanned_kept == kept


def spy(monkeypatch, module, name):
    """Count the calls of ``module.name`` while passing them through."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def ranked(values):
    ids, codes = ingest._rank_ids(np.array(values, dtype=np.int64))
    return list(map(str, ids.tolist())), codes.tolist()


class TestRankIds:
    """Direct-address and sort ranking against a text-order oracle."""

    CASES = {
        "single id": [5],
        "id 0": [0, 0, 0],
        "zero and one": [1, 0, 1],
        "18 digits": [10**18 - 1, 10**18 - 10, 10**18 - 5, 10**18 - 10],
        "17 and 18 digits": [10**17 + 1, 10**17 - 1, 10**17, 10**17 - 2],
        "mixed lengths": [9, 10, 99, 100, 1, 1000, 90, 9, 11, 2],
        "18 digits, wide range": [10**17, 10**18 - 1, 10**17, 999999999999999998],
        "wide range": [7, 123456789012345678, 42, 7],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_both_paths_match_the_oracle(self, case):
        values = self.CASES[case]
        want = text_rank(values)
        arr = np.array(values, dtype=np.int64)
        lo, span = arr.min(), int(arr.max() - arr.min()) + 1
        paths = [ingest._rank_by_sort(arr.copy()), ingest._rank_ids(arr.copy())]
        if span <= 10_000:  # the table holds one entry per integer in the span
            paths.append(ingest._rank_by_table(arr.copy(), lo, span))
        for got in paths:
            ids, codes = got
            assert ids.dtype == codes.dtype == np.int64
            assert (list(map(str, ids.tolist())), codes.tolist()) == want

    def test_empty(self):
        assert ranked([]) == ([], [])

    @pytest.mark.parametrize("seed", range(30))
    def test_random_values_around_the_span_bound(self, monkeypatch, seed):
        rng = random.Random(seed)
        count = rng.randint(1, 200)
        # Spans just inside and just outside the bound, and far outside it.
        span = rng.choice([
            ingest._SPAN_PER_VALUE * count,
            ingest._SPAN_PER_VALUE * count + 1,
            rng.randint(1, ingest._SPAN_PER_VALUE * count),
            10 ** rng.randint(4, 18),
        ])
        lo = rng.choice([0, 1, 9, 10 ** rng.randint(1, 17), 10**18 - span])
        hi = min(lo + span - 1, 10**18 - 1)
        values = [lo] if count == 1 else [lo, hi] + [rng.randint(lo, hi) for _ in range(count - 2)]
        rng.shuffle(values)
        table = spy(monkeypatch, ingest, "_rank_by_table")
        by_sort = spy(monkeypatch, ingest, "_rank_by_sort")
        assert ranked(values) == text_rank(values)
        in_bound = max(values) - min(values) + 1 <= ingest._SPAN_PER_VALUE * len(values)
        assert (table, by_sort) == ((["_rank_by_table"], []) if in_bound else ([], ["_rank_by_sort"]))

    def test_bound_is_inclusive(self, monkeypatch):
        table = spy(monkeypatch, ingest, "_rank_by_table")
        by_sort = spy(monkeypatch, ingest, "_rank_by_sort")
        inside = [100, 100 + 2 * ingest._SPAN_PER_VALUE - 1]
        outside = [100, 100 + 2 * ingest._SPAN_PER_VALUE]
        assert ranked(inside) == text_rank(inside)
        assert (table, by_sort) == (["_rank_by_table"], [])
        assert ranked(outside) == text_rank(outside)
        assert (table, by_sort) == (["_rank_by_table"], ["_rank_by_sort"])


class TestDecimalValues:
    @pytest.mark.parametrize("tokens, want", [
        ([], []),
        (["0"], [0]),
        (["7", "10", "9"], [7, 10, 9]),
        (["123456789012345678"], [123456789012345678]),
        (["1234567890123456789"], None),
        (["007"], None),
        (["00"], None),
        (["+5"], None),
        (["-3"], None),
        (["1_0"], None),
        (["1e3"], None),
        (["u3"], None),
        (["1 2"], None),
        ([""], None),
        (["1", ""], None),
        (["\u0661"], None),
        (["1", "2", "x"], None),
        ([5], None),
    ])
    def test_plain_decimals_only(self, tokens, want):
        got = decimal_values(tokens)
        if want is None:
            assert got is None
        else:
            assert got.dtype == np.int64 and got.tolist() == want


# User pools of an event file: all plain decimals, or with one kind of token
# that the integer path must leave to string interning.
PLAIN_USERS = ["1", "2", "9", "10", "99", "100", "0", "123456789012345678", "5000"]
ODD_USERS = ["007", "+5", "-3", "1_0", "1234567890123456789", "u3"]


class TestIntegerEventUsers:
    """Decimal users are ranked as integers; the string loader is the oracle."""

    @pytest.mark.parametrize("seed", range(24))
    def test_same_table_as_string_interning(self, monkeypatch, seed):
        rng = random.Random(seed)
        odd = [] if seed % 3 == 0 else [rng.choice(ODD_USERS)]
        pool = rng.sample(PLAIN_USERS, rng.randint(1, len(PLAIN_USERS))) + odd
        lines = [
            f"{rng.choice(['c1', 'c2', '7', 'x'])}\t{rng.choice(pool)}\t{rng.randint(0, 9)}"
            for _ in range(rng.randint(1, 60))
        ]
        if odd and odd[0] not in {line.split("\t")[1] for line in lines}:
            lines.append(f"c1\t{odd[0]}\t3")
        text = "\n".join(lines) + "\n"
        want = list_load_cascades(io.StringIO(text))
        ranks = spy(monkeypatch, ingest, "_rank_ids")
        table = load_cascades(io.StringIO(text))
        assert list(table) == want
        assert table.users == tuple(sorted({u for log in want for u in log.users()}))
        assert ranks == ([] if odd else ["_rank_ids"])

    def test_line_scanned_file_takes_the_integer_path_too(self, monkeypatch):
        text = "# cascade user time\nc\t10\t1\nc\t9\t2\nd\t10\t0\n"
        ranks = spy(monkeypatch, ingest, "_rank_ids")
        table = load_cascades(io.StringIO(text))
        assert ranks == ["_rank_ids"]
        assert list(table) == list_load_cascades(io.StringIO(text))
        assert table.users == ("10", "9")

    def test_higgs_activity_with_integer_users(self, monkeypatch):
        text = "20 1 5 RT\n3 1 4 RT\n20 3 2 RT\n7 1 1 MT\n"
        ranks = spy(monkeypatch, ingest, "_rank_ids")
        (log,) = load_higgs_activity(io.StringIO(text))
        assert ranks == ["_rank_ids"]
        assert log.events == (("20", 2), ("3", 4))


class TestOneSortCascadeTable:
    """The one-sort table builder against the lexsort builder it replaced."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_lexsort_table(self, seed):
        rng = random.Random(seed)
        cascade_count = rng.randint(1, 6)
        users = [f"u{i}" for i in range(rng.randint(1, 8))]
        if seed % 2:
            users = [str(i * 7) for i in range(len(users))]
        events = [
            (rng.randrange(cascade_count), rng.choice(users), rng.randint(0, 5))
            for _ in range(rng.randint(0, 40))
        ]
        # Repeat some events outright and some at other times.
        events += [(c, u, t + rng.choice([0, 1, -1])) for c, u, t in rng.sample(events, len(events) // 3)]
        rng.shuffle(events)
        cascade_ids = tuple(f"c{i}" for i in range(cascade_count))
        cascade = np.array([c for c, _, _ in events], dtype=np.int64)
        time = np.array([t for _, _, t in events], dtype=np.int64)
        names = [u for _, u, _ in events]
        want = lexsort_cascade_table(cascade_ids, cascade, names, time)
        got = ingest._cascade_table(cascade_ids, cascade, *ingest._intern_ids(names), time)
        assert got.users == want.users
        for name in ("cascade", "user", "time", "sizes"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype == np.int64 and a.tolist() == b.tolist()
        assert got == want

    def test_no_events(self):
        cascade, user, time = (np.empty(0, dtype=np.int64) for _ in range(3))
        got = ingest._cascade_table(("a",), cascade, (), user, time)
        assert got.sizes.tolist() == [0] and list(got) == [CascadeLog("a", ())]


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
        assert list(filter_cascades(logs, 0)) == logs

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
        assert list(filter_cascades(logs, 4)) == [log for log in logs if log.size >= 4]


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
