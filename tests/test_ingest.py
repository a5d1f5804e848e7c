"""Parsing, filtering, and statistics tests."""

from __future__ import annotations

import contextlib
import io
import logging
import random

import numpy as np
import pytest

from cascadecut import (
    NON_TREE,
    TREE_LAST,
    ExperimentConfig,
    InputError,
    ParseError,
    compute_stats,
    filter_cascades,
    load_cascades,
    load_higgs_activity,
    read_network,
)
from cascadecut import ingest
from cascadecut.experiment import load_dataset, load_network
from conftest import assert_same_graph, assert_same_table, decimal_instance, network_of, random_logs
from cascadecut.ingest import decimal_values
from oracles import (
    CascadeLog,
    batch_of,
    lexsort_cascade_table,
    list_load_cascades,
    list_load_higgs_activity,
    load_follow_edges,
    logs_of,
    plain_decimal,
    reference_build_graph,
    space_cut_decimals,
    split_events,
    table_of,
    text_rank,
    two_pass_read_network,
    whole_file_scan,
)


def follow_edges(stream, strict=False):
    """The (src, dst) records of an edge stream as the byte pass reads them
    (see ``ingest._parts``), in file order, with the warning and INFO lines
    that a loader logs for them."""
    tally = ingest._Tally("edge", strict)
    parts = ingest._parts(stream, 2, tally, lambda data, starts, ends, _: ingest._token_strings(data, starts, ends))
    tokens = [token for part in parts for token in part]
    tally.report(len(tokens) // 2)
    return list(zip(tokens[0::2], tokens[1::2]))


class TestLoadFollowEdges:
    """The records of the byte pass that every loader reads through, on edge lines."""

    def test_single_line(self):
        assert follow_edges(io.StringIO("a\tb\n")) == [("a", "b")]

    def test_comments_skipped(self):
        text = "# header\na\tb\nb\tc\n"
        assert follow_edges(io.StringIO(text)) == [("a", "b"), ("b", "c")]

    def test_file_order_and_duplicates_preserved(self):
        text = "a\tb\nb\tc\na\tb\n"
        assert follow_edges(io.StringIO(text)) == [("a", "b"), ("b", "c"), ("a", "b")]

    def test_space_separated_accepted(self):
        assert follow_edges(io.StringIO("a b\n")) == [("a", "b")]

    def test_malformed_counted_and_logged(self, caplog):
        text = "a\tb\nbroken\nb\tc\n"
        with caplog.at_level(logging.WARNING):
            edges = follow_edges(io.StringIO(text))
        assert edges == [("a", "b"), ("b", "c")]
        assert "1 malformed" in caplog.text
        assert "line 2" in caplog.text

    def test_strict_mode_names_first_offender(self):
        with pytest.raises(ParseError, match="line 2"):
            follow_edges(io.StringIO("a\tb\nbroken\n"), strict=True)


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
    """``load_network`` streams the file through ``read_network``; the list-based path is the oracle."""

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


def read_lines(records, kind):
    """The INFO line a loader logs for the records that the whole-file
    scanner's INFO line among ``records`` counts."""
    (scanned,) = [m for level, m in records if level == logging.INFO]
    return logging.INFO, f"read {scanned.split()[1]} {kind} record(s)"


# One irregularity per edge file, or none (None, weighted up); CRLF ends
# reach the reader as newlines from a text-mode file, as blanks from a
# StringIO.
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
    """Edge files of every quirk, whatever their ids, against the list-based build."""

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
            assert read_lines(want_log, "edge") in got_log

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
        assert logs_of(table) == want
        assert table.cascade_ids == tuple(log.cascade_id for log in want)
        assert table.sizes.tolist() == [log.size for log in want]
        assert warnings_of(got_log) == warnings_of(want_log)
        assert read_lines(want_log, "event") in got_log

        # Users outside the network stay isolated seeds, as with the list.
        network = network_of([(a, b) for a in ("1", "2", "9", "u3") for b in ("10", "2", "ab") if a != b])
        for variant in (NON_TREE, TREE_LAST):
            got, expected = batch_of(network, table, variant), batch_of(network, table_of(want), variant)
            assert got.cascade_ids == expected.cascade_ids
            for name in ("sizes", "seed_counts", "owner", "node", "child_slot", "parent_slot", "follow_edge_pos"):
                assert getattr(got, name).tolist() == getattr(expected, name).tolist()

    def test_list_of_lines_is_line_scanned(self):
        lines = ["c1\tu\t5\n", "c1 v 6", "# comment\n", "c2\tu\t1\n"]
        text = "\n".join(line.rstrip("\n") for line in lines)
        assert_same_table(load_cascades(lines), load_cascades(io.StringIO(text)))
        edges = ["1 2\n", "2\t10", "10 1\n"]
        assert_same_graph(read_network(edges), read_network(io.StringIO("1 2\n2\t10\n10 1\n")))

    def test_out_of_range_timestamp_is_parse_error(self):
        with pytest.raises(ParseError, match=r"^line 2: timestamp out of range '99999999999999999999'$"):
            load_cascades(io.StringIO("c\tu\t1\nc\tv\t99999999999999999999\n"))


# Block sizes of the one-pass tests: lines longer than a block, a few lines
# per block, and the default.
PASS_BLOCKS = (4, 5, 16, 64, 1 << 17)

# Edge texts beside numeric_edge_text's: digit-count limits, zeros, names
# and punctuation, blank runs and lines, and files without a final newline.
EDGE_EXTRAS = (
    "1 2\n", "9\t0\n", "0 0\n", "0\t10\n", "123456789012345678\t1\n", "1234567890123456789 1\n",
    "00 1\n", "01\t2\n", "1 007\n", "u17\tu2\n", "~!\t$%\n", "1 2\x7f\n", "1  \t 2\n3\t\t4\n",
    "\n\n1 2\n\n\n3 4\n\n", "1 2\n3 4", " 1 2 \n",
    "1 2 3\n", "1\n2\n", "", "\n", "  \n\t\n", "1 2\n3", "12 34\n56 78\n", "1 2\n\f\n",
    "1\n2 3 4\n", "1 2 3\n4\n", "1 2 3",
)

# Event texts beside cascade_text's: 8- and 9-byte cascade ids, plain and
# other users, and timestamps of 18 and 19 digits or with a sign.
EVENT_EXTRAS = (
    "abcdefgh\t1\t5\n", "abcdefghi\t1\t5\nc\t2\t6\n", "c\t0\t0\nc\t007\t1\n",
    "c\t123456789012345678\t999999999999999999\n", "c\t1234567890123456789\t1\n",
    "c\t1\t1234567890123456789\n", "c\t1\t99999999999999999999\n", "c\t1\t-3\nc 2 +5\n",
    "c  \t 1\t 2 \n\n\nd\t2\t3", "c\t1\n", "c\t1\t2\t3\n", "", " \n", "~!\t$%\t7\n",
    "c 1\nc 2 3 4\n", "c 1 2 3\nc 4\n", "c 1 2 3 4",
)


class ReadOnly:
    """A stream that can only be read, not told or sought."""

    def __init__(self, text):
        self.read = io.StringIO(text).read


def block_records(block, width):
    """The bounds of ``block``'s records read by the byte pass, whose line
    end count is checked, and the fields of its records by the whole-file
    scanner."""
    data, starts, ends, line_ends, error = ingest._records(block, width, ingest._Tally("any", False), 0)
    assert error is None and line_ends == block.count("\n")
    fields = [field for _, record in whole_file_scan(block.split("\n"), width, "any", False) for field in record]
    return (data, starts, ends), fields


def column_strings(column, unpack=str):
    return list(map(unpack, column.tolist())) if isinstance(column, np.ndarray) else column


class TestOnePass:
    """The byte pass per block against the whole-file scanner and the two
    passes of the earlier reader of decimal files."""

    @pytest.mark.parametrize("seed", range(60))
    def test_edge_blocks_and_files(self, monkeypatch, seed):
        rng = random.Random(seed)
        monkeypatch.setattr(ingest, "_BLOCK", PASS_BLOCKS[seed % len(PASS_BLOCKS)])
        quirk = EDGE_QUIRKS[seed % len(EDGE_QUIRKS)]
        extras = "".join(rng.choice(EDGE_EXTRAS) for _ in range(rng.randint(0, 3)))
        for text in (numeric_edge_text(rng, quirk), extras, rng.choice(EDGE_EXTRAS)):
            for block in ingest._blocks(io.StringIO(text)):
                bounds, fields = block_records(block, 2)
                got = ingest._id_column(*bounds)
                assert isinstance(got, np.ndarray) == all(map(plain_decimal, fields)), block
                assert column_strings(got) == fields
            want = two_pass_read_network(io.StringIO(text))
            got = ingest.read_network(io.StringIO(text))
            assert_same_graph(got, reference_build_graph(load_follow_edges(io.StringIO(text))))
            if want is not None:
                assert_same_graph(got, want)
            # Plain decimal ids are kept as integers, those of the earlier
            # decimal reader included.
            tokens = [token for pair in load_follow_edges(io.StringIO(text)) for token in pair]
            assert (got._values is not None) == (decimal_values(tokens) is not None)
            assert want is None or got._values is not None

    @pytest.mark.parametrize("seed", range(60))
    def test_event_blocks_and_files(self, caplog, monkeypatch, seed):
        rng = random.Random(seed)
        monkeypatch.setattr(ingest, "_BLOCK", PASS_BLOCKS[seed % len(PASS_BLOCKS)])
        quirk = CASCADE_QUIRKS[seed % len(CASCADE_QUIRKS)]
        extras = "".join(rng.choice(EVENT_EXTRAS) for _ in range(rng.randint(0, 3)))
        for text in (cascade_text(rng, quirk), extras, rng.choice(EVENT_EXTRAS)):
            for block in ingest._blocks(io.StringIO(text)):
                bounds, fields = block_records(block, 3)
                want = split_events([" ".join(fields)])
                if want is None:  # a timestamp that is not an int64
                    with pytest.raises(ParseError):
                        ingest._event_columns(*bounds, 0)
                    continue
                cascades, users, times = ingest._event_columns(*bounds, 0)
                assert column_strings(cascades, ingest._unpack) == want[0]
                assert column_strings(users) == want[1]
                assert times.dtype == np.int64 and times.tolist() == want[2].tolist()
            try:
                want, want_log = logged(caplog, lambda: list_load_cascades(io.StringIO(text)))
            except ParseError as listed:
                with pytest.raises(ParseError) as got:
                    load_cascades(io.StringIO(text))
                assert str(got.value) == str(listed)
                continue
            table, records = logged(caplog, lambda: load_cascades(io.StringIO(text)))
            assert logs_of(table) == want
            assert read_lines(want_log, "event") in records

    @pytest.mark.parametrize("seed", range(12))
    def test_unseekable_streams_read_as_the_file_does(self, monkeypatch, seed):
        rng = random.Random(seed)
        monkeypatch.setattr(ingest, "_BLOCK", PASS_BLOCKS[seed % len(PASS_BLOCKS)])
        edges = numeric_edge_text(rng, EDGE_QUIRKS[seed % len(EDGE_QUIRKS)])
        assert_same_graph(read_network(ReadOnly(edges)), read_network(io.StringIO(edges)))
        events = cascade_text(rng, CASCADE_QUIRKS[seed % len(CASCADE_QUIRKS)])
        try:
            want = load_cascades(io.StringIO(events))
        except ParseError as seekable:
            with pytest.raises(ParseError) as unseekable:
                load_cascades(ReadOnly(events))
            assert str(unseekable.value) == str(seekable)
        else:
            assert_same_table(load_cascades(ReadOnly(events)), want)

    def test_a_file_read_by_next_is_read_from_its_next_line(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("1 2\n3 4\n5 x\n", encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            next(fh)  # the file can no longer tell its position
            assert_same_graph(read_network(fh), network_of([("3", "4"), ("5", "x")]))

    def test_cascade_ids_in_id_order(self, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK", 16)
        text = "b\t1\t1\na\t1\t1\nlong-cascade-id\t2\t1\nb\t2\t0\n~\t3\t3\na\t3\t2\n"
        for long_id in ("long-cascade-id", "short"):
            body = text.replace("long-cascade-id", long_id)
            table = load_cascades(io.StringIO(body))
            assert table.cascade_ids == ("a", "b", long_id, "~")
            assert logs_of(table) == list_load_cascades(io.StringIO(body))

    def test_integer_tables_build_their_strings_once(self):
        table = load_cascades(io.StringIO("c\t10\t1\nc\t9\t2\n"))
        assert table.user_ids.tolist() == [10, 9] and table._users is None
        assert table.users == ("10", "9") and table.users is table.users
        assert table.select(np.array([True])).user_ids is table.user_ids


class TestCascadeTable:
    @pytest.mark.parametrize("decimal", [False, True])
    def test_event_lines_read_as_the_string_table(self, eight_node_network, decimal):
        rng = random.Random(3)
        logs = random_logs(rng, eight_node_network, 30)
        if decimal:
            _, logs = decimal_instance(rng, [], logs)
        want = table_of(logs)
        table = load_cascades([f"{log.cascade_id}\t{user}\t{ts}" for log in logs for user, ts in log.events])
        assert logs_of(table) == logs
        assert len(table) == 30 and table.sizes.tolist() == [log.size for log in logs]
        assert table.cascade_ids == want.cascade_ids and table.users == want.users
        assert isinstance(table.user_ids, np.ndarray) == isinstance(want.user_ids, np.ndarray) == decimal
        for name in ("user_ids", "cascade", "user", "time", "sizes"):
            assert np.array_equal(getattr(table, name), getattr(want, name)), name

    def test_select_keeps_order(self, eight_node_network):
        logs = random_logs(random.Random(4), eight_node_network, 25)
        table = table_of(logs)
        keep = np.array([log.size % 2 == 0 for log in logs])
        assert logs_of(table.select(keep)) == [log for log, k in zip(logs, keep) if k]
        assert len(table.select(np.zeros(25, dtype=bool))) == 0

    def test_logs_with_one_id_stay_separate_cascades(self, eight_node_network):
        # A table indexes its cascades by position, so a repeated id is no merge.
        log = CascadeLog.from_events("c", [("1", 1), ("2", 2)])
        table = table_of([log, log])
        assert table.cascade_ids == ("c", "c") and logs_of(table) == [log, log]
        batch = batch_of(eight_node_network, table, NON_TREE)
        assert batch.owner[batch.child_slot].tolist() == [0, 1] and batch.seed_counts.tolist() == [1, 1]

    def test_earliest_event_kept_per_cascade_and_user(self):
        table = load_cascades(io.StringIO("a\tu\t5\nb\tu\t1\na\tu\t2\na\tv\t2\n"))
        assert logs_of(table) == [CascadeLog("a", (("u", 2), ("v", 2))), CascadeLog("b", (("u", 1),))]

# Lines beside regular ones: comments, blank lines, malformed lines,
# non-ASCII text, ids that are not plain decimals, a form feed, and for
# events timestamps that are odd or not int64.
ODD_EDGE_LINES = (
    "# follower followee", "  # 3 4", "", " \t", "1 2 3", "7", "u7 10", "007\t2", "\u00fc1 5",
    "1234567890123456789 3", "5\f6",
)
ODD_EVENT_LINES = (
    "# cascade user time", "", "\t", "c1 1", "c1 1 2 3", "c1\t\u00fc\t3", "\u00e7\t1\t3", "c1\tu3\t4",
    "c1\t007\t+5", "long-cascade-id\t9\t1", "c1\t1\tsoon", "c1\t1\t99999999999999999999",
)
BLOCK_SIZES = (5, 16, 64, 1 << 17)
SOURCES = ("file", "stringio", "unseekable", "lines")


def odd_text(rng, regular, odd_lines):
    """``regular`` lines with one to four ``odd_lines`` put in at random
    places, some lines ending in CRLF, sometimes without a final newline."""
    lines = list(regular)
    for _ in range(rng.randint(1, 4)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(odd_lines))
    text = "".join(line + rng.choice(["\n", "\n", "\r\n"]) for line in lines)
    return text if rng.random() < 0.7 else text.rstrip("\r\n")


def sources(kind, text, path):
    """(oracle stream, reader input) over the same lines of ``text``, which
    ``path`` holds, read as ``kind``."""
    if kind == "file":
        return open(path, encoding="utf-8"), open(path, encoding="utf-8")
    reader = {
        "stringio": io.StringIO(text), "unseekable": ReadOnly(text), "lines": io.StringIO(text).readlines(),
    }[kind]
    return io.StringIO(text), reader


def assert_same_reads(caplog, tmp_path, text, kind, oracle, read, compare):
    """The same result, warnings and strict error from ``read`` as from
    ``oracle``, with ``text`` read as ``kind``."""
    path = tmp_path / "input.tsv"
    path.write_bytes(text.encode("utf-8"))
    for strict in (False, True):
        want_stream, stream = sources(kind, text, path)
        with want_stream, stream if kind == "file" else contextlib.nullcontext():
            try:
                want, want_log = logged(caplog, lambda: oracle(want_stream, strict))
            except ParseError as listed:
                with pytest.raises(ParseError) as got:
                    read(stream, strict)
                assert str(got.value) == str(listed)
                continue
            got, got_log = logged(caplog, lambda: read(stream, strict))
        compare(got, want)
        assert warnings_of(got_log) == warnings_of(want_log)


def assert_same_logs(table, want):
    assert logs_of(table) == want
    assert table.cascade_ids == tuple(log.cascade_id for log in want)


class TestPerBlockScan:
    """Files read in blocks, and lists of lines, against the whole-file scanner."""

    @pytest.mark.parametrize("seed", range(48))
    def test_edges(self, caplog, tmp_path, monkeypatch, seed):
        rng = random.Random(seed)
        monkeypatch.setattr(ingest, "_BLOCK", BLOCK_SIZES[seed % len(BLOCK_SIZES)])
        ids = [str(rng.randint(0, 10 ** rng.randint(1, 18))) for _ in range(12)]
        regular = [rng.choice(["\t", " ", " \t "]).join(rng.sample(ids, 2)) for _ in range(rng.randint(0, 80))]
        text = odd_text(rng, regular, ODD_EDGE_LINES)
        assert_same_reads(
            caplog, tmp_path, text, SOURCES[seed // len(BLOCK_SIZES) % len(SOURCES)],
            lambda stream, strict: reference_build_graph(load_follow_edges(stream, strict)),
            lambda stream, strict: read_network(stream, strict),
            assert_same_graph,
        )

    @pytest.mark.parametrize("seed", range(48))
    def test_events(self, caplog, tmp_path, monkeypatch, seed):
        rng = random.Random(seed)
        monkeypatch.setattr(ingest, "_BLOCK", BLOCK_SIZES[seed % len(BLOCK_SIZES)])
        users = ["1", "2", "9", "10", "100", "123456789012345678"] + (["u3", "ab"] if seed % 3 else [])
        regular = [
            f"{rng.choice(['c1', 'c10', '7', 'x-1'])}\t{rng.choice(users)}\t{rng.randint(0, 9)}"
            for _ in range(rng.randint(0, 80))
        ]
        text = odd_text(rng, regular, ODD_EVENT_LINES)
        assert_same_reads(
            caplog, tmp_path, text, SOURCES[seed // len(BLOCK_SIZES) % len(SOURCES)],
            list_load_cascades, lambda stream, strict: load_cascades(stream, strict), assert_same_logs,
        )

    @pytest.mark.parametrize("kind", ["edge", "event"])
    def test_line_numbers_run_across_blocks(self, caplog, monkeypatch, kind):
        monkeypatch.setattr(ingest, "_BLOCK", 16)
        if kind == "edge":
            lines, read = [f"{i} {i + 1}" for i in range(40)], read_network
            lines[0], lines[25] = "# follower followee", "1 2 3"
        else:
            lines, read = [f"c{i % 3}\t{i}\t{i}" for i in range(40)], load_cascades
            lines[0], lines[25] = "# cascade user time", "c1 1"
        text = "\n".join(lines) + "\n"
        assert len(list(ingest._blocks(io.StringIO(text)))) > 10
        for source in (io.StringIO(text), lines):
            _, records = logged(caplog, lambda: read(source))
            assert (logging.INFO, f"read 38 {kind} record(s)") in records
            assert warnings_of(records) == [f"skipped 1 malformed {kind} line(s); first: line 26: {lines[25]!r}"]


# Fields and blanks of the seeded texts that all three loaders read:
# str.split()'s blanks beyond space and tab, control bytes and DEL inside
# ids, comment marks inside and at the start of a line, non-ASCII ids, and
# timestamps that are odd or no int64.
FUZZ_IDS = ("1", "10", "9", "007", "u3", "b#c", "#x", "\u7528\u6237", "\u00fc", "a\0", "\x7fz", "\x01")
FUZZ_TIMES = ("0", "5", "17", "007", "+5", "-3", "1_0", "12345678901234567890", "soon", "1.5")
FUZZ_BLANKS = (" ", "\t", "  ", "\u00a0", "\u3000", "\x1f", "\v", "\r", "\u2028", "\x85")
FUZZ_KINDS = ("RT", "MT", "RE")


def fuzz_text(rng, width):
    """Lines of ``width`` fields (the last a timestamp for events, a kind
    for activity logs) with comments, blank and malformed lines among them."""
    lines = []
    for _ in range(rng.randint(0, 40)):
        fields = [rng.choice(FUZZ_IDS) for _ in range(width)]
        if width >= 3:
            fields[2] = rng.choice(FUZZ_TIMES) if rng.random() < 0.04 else str(rng.randint(0, 9))
        if width == 4:
            fields[3] = rng.choice(FUZZ_KINDS)
        roll = rng.random()
        if roll < 0.08:
            fields = ["#"] + fields
        elif roll < 0.16:
            fields = fields[: rng.choice([0, 1, width - 1, width + 1])] + [rng.choice(FUZZ_IDS)] * (roll < 0.12)
        pad = rng.choice(["", " ", "\u3000"])
        lines.append(pad + "".join(field + rng.choice(FUZZ_BLANKS) for field in fields).rstrip(" "))
    return "".join(line + rng.choice(["\n", "\n", "\r\n"]) for line in lines)


# Per loader: the field count, the oracle, the loader and the comparison.
LOADERS = {
    "edge": (2, lambda stream, strict: reference_build_graph(load_follow_edges(stream, strict)), read_network,
             assert_same_graph),
    "event": (3, list_load_cascades, load_cascades, assert_same_logs),
    "activity": (4, list_load_higgs_activity, load_higgs_activity, assert_same_logs),
}


class TestOneReader:
    """Every loader against the whole-file scanner, on seeded texts of
    every quirk, strict and not, read from a file and as a list of lines."""

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("kind", LOADERS)
    def test_same_result_warnings_and_errors(self, caplog, tmp_path, monkeypatch, kind, seed):
        rng = random.Random(seed)
        monkeypatch.setattr(ingest, "_BLOCK", BLOCK_SIZES[seed % len(BLOCK_SIZES)])
        width, oracle, read, compare = LOADERS[kind]
        text = fuzz_text(rng, width)
        for source in ("file", "lines"):
            assert_same_reads(caplog, tmp_path, text, source, oracle, read, compare)

    def test_a_bad_timestamp_raises_before_a_later_malformed_line(self):
        text = "c\t1\t5\nc\t2\tsoon\nc 3\n"
        for stream in (io.StringIO(text), text.split("\n")):
            with pytest.raises(ParseError, match=r"^line 2: invalid timestamp 'soon'$"):
                load_cascades(stream, strict=True)
        with pytest.raises(ParseError, match=r"^line 3: expected 3 fields, got 2: 'c 3'$"):
            load_cascades(io.StringIO("c\t1\t5\nc\t2\t6\nc 3\nc\t4\tsoon\n"), strict=True)

    def test_a_list_item_with_a_line_end_is_one_line(self, caplog):
        items = ["1 2", "3\n4 5\n", "6 7"]
        network, records = logged(caplog, lambda: read_network(items))
        assert warnings_of(records) == ["skipped 1 malformed edge line(s); first: line 2: '3\\n4 5'"]
        assert network.external_ids == ("1", "2", "6", "7")
        with pytest.raises(ParseError, match=r"^line 2: expected 2 fields, got 3: '3\\n4 5'$"):
            read_network(items, strict=True)

    @pytest.mark.parametrize("item", [b"1 2", ("1", "2"), None])
    @pytest.mark.parametrize("kind", LOADERS)
    def test_list_items_must_be_strings(self, kind, item):
        read = LOADERS[kind][2]
        with pytest.raises(InputError, match=f"^{kind} lines must be strings$"):
            read(["1 2 3 RT", item])


class TestCommentedCopy:
    """A dataset and its ``#``-commented copy read alike."""

    def _commented_copy(self, tmp_path, caplog, ids):
        """Read a dataset over ``ids``, and the same graph and table from
        its ``#``-commented copy."""
        rng = random.Random(8)
        edges, cascades = tmp_path / "edges.tsv", tmp_path / "cascades.tsv"
        edge_lines = [f"{rng.choice(ids)}\t{rng.choice(ids)}\n" for _ in range(300)]
        event_lines = [f"c{rng.randint(0, 9)}\t{rng.choice(ids)}\t{rng.randint(0, 50)}\n" for _ in range(200)]
        edges.write_text("".join(edge_lines), encoding="utf-8")
        cascades.write_text("".join(event_lines), encoding="utf-8")
        config = ExperimentConfig(edges, cascades, tmp_path / "out", min_cascade_size=0)
        (network, kept), records = logged(caplog, lambda: load_dataset(config))
        assert records[:2] == [(logging.INFO, "read 300 edge record(s)"), (logging.INFO, "read 200 event record(s)")]

        commented = edge_lines[:5] + ["# follower followee\n"] + edge_lines[5:]
        edges.write_text("".join(commented), encoding="utf-8")
        cascades.write_text("".join(["# cascade user time\n"] + event_lines), encoding="utf-8")
        (commented_network, commented_kept), commented_records = logged(caplog, lambda: load_dataset(config))
        assert commented_records == records
        assert_same_graph(commented_network, network)
        assert commented_network.fingerprint == network.fingerprint
        assert_same_table(commented_kept, kept)
        return network, kept

    def test_numeric_dataset_reads_as_its_commented_copy(self, tmp_path, caplog):
        rng = random.Random(8)
        ids = [str(rng.randint(1, 10**rng.randint(1, 12))) for _ in range(40)]
        network, kept = self._commented_copy(tmp_path, caplog, ids)
        assert network._values is not None and isinstance(kept.user_ids, np.ndarray)

    def test_mixed_id_dataset_reads_as_its_commented_copy(self, tmp_path, caplog):
        rng = random.Random(9)
        ids = [f"u{rng.randint(0, 99)}" for _ in range(10)] + ["007", "0", "1234567890123456789"]
        ids += [str(rng.randint(1, 10**rng.randint(1, 18))) for _ in range(20)]
        network, kept = self._commented_copy(tmp_path, caplog, ids)
        assert network._values is None and isinstance(kept.user_ids, tuple)


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
        (["0x1f"], None),
        (["1a"], None),
        (["1_0"], None),
        (["1e3"], None),
        (["u3"], None),
        (["1\x7f"], None),
        (["\x7f"], None),
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

    @pytest.mark.parametrize("seed", range(48))
    def test_matches_the_space_cut_tokenizer(self, monkeypatch, seed):
        rng = random.Random(seed)
        chunk = rng.choice([1, 2, 5, ingest._TOKEN_CHUNK])
        monkeypatch.setattr(ingest, "_TOKEN_CHUNK", chunk)
        count = rng.choice([0, 1, 4, chunk - 1, chunk, chunk + 1, 2 * chunk + 1])
        tokens = [
            str(rng.choice([0, rng.randint(1, 9), rng.randint(10, 10**6), rng.randint(10**17, 10**18 - 1)]))
            for _ in range(count)
        ]
        if seed % 4 and count:
            # One odd token, most often on either side of a chunk boundary.
            at = rng.choice([i for i in (chunk - 1, chunk, chunk, rng.randrange(count)) if 0 <= i < count])
            tokens[at] = rng.choice(ODD_TOKENS)
        want = space_cut_decimals(tokens)
        got = decimal_values(tokens)
        if want is None:
            assert got is None
        else:
            assert got.dtype == np.int64 and got.tolist() == want.tolist()

    @pytest.mark.parametrize("block, want, folds", [
        ("u1\tu2\n3\t4\n", ["u1", "u2", "3", "4"], 0),
        ("1\t2\n3\t+4\n", ["1", "2", "3", "+4"], 0),
        ("1\t2\n3\t4\n", [1, 2, 3, 4], 1),
        ("17\t2\n305\t4\n", [17, 2, 305, 4], 1),
        ("1u\t2\n3\t4\n", ["1u", "2", "3", "4"], 1),  # led by digits, so folded to find the letter
    ])
    def test_a_column_not_led_by_digits_is_not_folded(self, monkeypatch, block, want, folds):
        data, starts, ends, _, line_ends = ingest._token_bounds(block)
        calls = []
        fold = ingest._fold
        monkeypatch.setattr(ingest, "_fold", lambda *args: calls.append(args[1].size) or fold(*args))
        ids = ingest._id_column(data, starts, ends)
        assert (ids.tolist() if isinstance(ids, np.ndarray) else ids) == want
        assert isinstance(ids, np.ndarray) == isinstance(want[0], int)
        assert line_ends == 2 and len(calls) == folds


# Tokens that are not plain decimals: blanks inside or around digits, empty,
# leading zeros, 19 or 20 digits, non-ASCII digits and blanks, and signs.
ODD_TOKENS = [
    "", " ", "1 2", " 1", "1 ", "1\t2", "1\n2", "\n", "007", "00", "1234567890123456789",
    "12345678901234567890", "\u0661", "1\u00a0", "\u00fc", "\ud800", "#1", "+1", "-1", "1\r",
]


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
        assert logs_of(table) == want
        assert table.users == tuple(sorted({u for log in want for u in log.users()}))
        assert ranks == ([] if odd else ["_rank_ids"])

    def test_line_scanned_file_takes_the_integer_path_too(self, monkeypatch):
        text = "# cascade user time\nc\t10\t1\nc\t9\t2\nd\t10\t0\n"
        ranks = spy(monkeypatch, ingest, "_rank_ids")
        table = load_cascades(io.StringIO(text))
        assert ranks == ["_rank_ids"]
        assert logs_of(table) == list_load_cascades(io.StringIO(text))
        assert table.users == ("10", "9")

    def test_higgs_activity_with_integer_users(self, monkeypatch):
        text = "20 1 5 RT\n3 1 4 RT\n20 3 2 RT\n7 1 1 MT\n"
        ranks = spy(monkeypatch, ingest, "_rank_ids")
        (log,) = logs_of(load_higgs_activity(io.StringIO(text)))
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
        got = ingest._cascade_table(cascade_ids, cascade, *ingest._id_codes([names], len(names)), time)
        assert got.users == want.users
        for name in ("cascade", "user", "time", "sizes"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype == np.int64 and a.tolist() == b.tolist()
        assert_same_table(got, want)

    def test_no_events(self):
        cascade, user, time = (np.empty(0, dtype=np.int64) for _ in range(3))
        got = ingest._cascade_table(("a",), cascade, (), user, time)
        assert got.sizes.tolist() == [0] and logs_of(got) == [CascadeLog("a", ())]


class TestCascadeCodes:
    """Sorted coding of packed cascade keys against Python's sort of the id strings."""

    @pytest.mark.parametrize("seed", range(24))
    def test_equals_the_stable_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        # One- and two-letter ids, so keys repeat far apart and in long runs
        # and some ids are prefixes of others.
        letters = rng.integers(65, 91, size=(int(rng.integers(1, 60)), 2)).tolist()
        names = [chr(a) if a % 3 == 0 else chr(a) + chr(b) for a, b in letters]
        strings = [names[i] for i in rng.integers(0, len(names), size=int(rng.integers(0, 4000))).tolist()]
        events = np.array([int.from_bytes(name.encode().ljust(8, b"\0"), "big") for name in strings], dtype=np.int64)
        lengths = np.array(list(map(len, strings)), dtype=np.int64)
        data = np.frombuffer("".join(strings).encode(), dtype=np.uint8)
        assert ingest._keys(data, np.cumsum(lengths) - lengths, lengths).tolist() == events.tolist()
        assert list(map(ingest._unpack, events.tolist())) == strings
        cut = int(rng.integers(0, events.size + 1))
        ids, codes = ingest._cascade_codes([events[:cut], events[cut:]])
        want = sorted(set(strings))
        index = {name: i for i, name in enumerate(want)}
        assert ids == tuple(want)
        assert codes.dtype == np.int64 and codes.tolist() == [index[name] for name in strings]


class TestCascadeOrder:
    """Cascades are numbered in id order, so the order of the event lines does not matter."""

    # Prefixes of one another, the last ASCII id byte, and 8-byte ids, which
    # are packed into keys; a 9-byte id sends its block to string interning.
    IDS = ("a", "ab", "abc", "b", "~", "abcdefgh", "~~~~~~~~")

    @staticmethod
    def columns(table):
        users = table.user_ids
        users = list(users) if isinstance(users, tuple) else (users.dtype, users.tolist())
        return table.cascade_ids, users, table.cascade.tolist(), table.user.tolist(), table.time.tolist()

    @pytest.mark.parametrize("seed", range(24))
    def test_shuffled_lines_give_an_equal_table(self, monkeypatch, seed):
        rng = random.Random(seed)
        monkeypatch.setattr(ingest, "_BLOCK", PASS_BLOCKS[seed // 4 % 4])
        quirk = (None, "odd timestamps", "comment", "non-ascii")[seed % 4]
        lines = cascade_text(rng, quirk).split("\n")
        ids = self.IDS + (("abcdefghi",) if seed % 3 else ())
        lines += [f"{cid}\t{rng.choice(['1', '9', '10', 'u3'])}\t{rng.randint(0, 9)}" for cid in ids for _ in range(2)]
        reads = {
            "file": lambda lines: load_cascades(io.StringIO("\n".join(lines) + "\n")),
            "commented": lambda lines: load_cascades(io.StringIO("\n".join(["# cascade user time", *lines]) + "\n")),
            "list": lambda lines: load_cascades([*lines, "a\0\t1\t5", "\0\t9\t4"]),
        }
        want = {how: self.columns(read(lines)) for how, read in reads.items()}
        assert want["file"] == want["commented"]
        assert want["list"][0] == tuple(sorted({*want["file"][0], "a\0", "\0"}))
        for how, table in want.items():
            assert table[0] == tuple(sorted(table[0])), how
        for _ in range(4):
            rng.shuffle(lines)
            for how, read in reads.items():
                assert self.columns(read(lines)) == want[how], how


class TestLoadCascades:
    def test_single_cascade(self):
        logs = logs_of(load_cascades(io.StringIO("t1\tu1\t10\nt1\tu2\t20\n")))
        assert len(logs) == 1
        assert logs[0].cascade_id == "t1"
        assert set(logs[0].users()) == {"u1", "u2"}

    def test_duplicate_user_keeps_earliest(self):
        logs = logs_of(load_cascades(io.StringIO("t\tu\t10\nt\tu\t5\n")))
        assert logs[0].events == (("u", 5),)

    def test_events_sorted_by_time_then_user(self):
        logs = logs_of(load_cascades(io.StringIO("t\tb\t7\nt\ta\t7\nt\tc\t3\n")))
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
        logs = logs_of(load_cascades(io.StringIO("".join(rows))))
        assert {log.cascade_id: dict(log.events) for log in logs} == expected

    def test_round_trip(self):
        text = "t1\tu1\t10\nt1\tu2\t20\nt2\tu9\t1\n"
        logs = logs_of(load_cascades(io.StringIO(text)))
        canonical = "".join(f"{log.cascade_id}\t{user}\t{ts}\n" for log in logs for user, ts in log.events)
        assert logs_of(load_cascades(io.StringIO(canonical))) == logs

    def test_edge_round_trip(self):
        edges = [("a", "b"), ("b", "c"), ("a", "b")]
        assert follow_edges(io.StringIO("".join(f"{src}\t{dst}\n" for src, dst in edges))) == edges


class TestHiggsAdapter:
    def test_retweets_become_one_cascade(self):
        text = "u1 u2 100 RT\nu3 u2 90 RT\nu4 u1 120 MT\n"
        logs = logs_of(load_higgs_activity(io.StringIO(text)))
        assert len(logs) == 1
        assert logs[0].cascade_id == "higgs"
        assert logs[0].events == (("u3", 90), ("u1", 100))

    def test_all_interactions_when_unfiltered(self):
        text = "u1 u2 100 RT\nu4 u1 120 MT\n"
        logs = logs_of(load_higgs_activity(io.StringIO(text), interactions=frozenset()))
        assert logs[0].size == 2

    def test_malformed_lines_and_timestamps(self, caplog):
        # A row of an unselected kind is dropped before its timestamp is read.
        text = "# log\nu1 u2 100 RT\nu5 u2 soon MT\nbroken row\n\nu3 u2 90\r\n"
        with caplog.at_level(logging.WARNING):
            logs = logs_of(load_higgs_activity(io.StringIO(text)))
        assert logs[0].events == (("u1", 100),)
        assert "skipped 2 malformed activity line(s); first: line 4: 'broken row'" in caplog.text
        with pytest.raises(ParseError, match=r"^line 4: expected 4 fields, got 2: 'broken row'$"):
            load_higgs_activity(io.StringIO(text), strict=True)
        with pytest.raises(ParseError, match=r"^line 2: invalid timestamp 'soon'$"):
            load_higgs_activity(io.StringIO("u1 u2 100 RT\nu5 u2 soon RT\n"))

    @pytest.mark.parametrize("block", PASS_BLOCKS)
    def test_blocks_read_as_the_whole_log(self, monkeypatch, caplog, block):
        # A file is read in blocks, a list of lines as one part: the same
        # table, warning and line numbers either way.
        monkeypatch.setattr(ingest, "_BLOCK", block)
        lines = ["# log", "7 2 100 RT", "u5 u2 50 MT", "broken row", "", "3 9 90 RT", "007 1 95 RT", "7 2 80 RT"]
        text = "\n".join(lines) + "\n"
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="cascadecut.ingest"):
            got = load_higgs_activity(io.StringIO(text))
        messages = [r.getMessage() for r in caplog.records]
        want = load_higgs_activity(lines)
        assert_same_table(got, want)
        assert logs_of(got)[0].events == (("7", 80), ("3", 90), ("007", 95))
        assert messages == ["skipped 1 malformed activity line(s); first: line 4: 'broken row'",
                            "read 5 activity record(s)"]
        for stream in (io.StringIO(text), lines):
            with pytest.raises(ParseError, match=r"^line 4: expected 4 fields, got 2: 'broken row'$"):
                load_higgs_activity(stream, strict=True)


class TestFilterCascades:
    def _logs(self, sizes):
        return [
            CascadeLog.from_events(f"c{i}", [(f"u{j}", j) for j in range(size)])
            for i, size in enumerate(sizes)
        ]

    def test_min_size_zero_is_identity(self):
        logs = self._logs([1, 5, 3])
        assert logs_of(filter_cascades(table_of(logs), 0)) == logs

    def test_threshold(self):
        logs = self._logs([1, 5, 3, 7])
        assert [log.size for log in logs_of(filter_cascades(table_of(logs), 4))] == [5, 7]

    def test_composition_law(self):
        rng = random.Random(9)
        table = table_of(self._logs([rng.randint(0, 12) for _ in range(40)]))
        for a, b in [(2, 7), (7, 2), (4, 4)]:
            composed = filter_cascades(filter_cascades(table, b), a)
            assert_same_table(composed, filter_cascades(table, max(a, b)))

    def test_negative_min_size_rejected(self):
        with pytest.raises(InputError):
            filter_cascades(table_of([]), -1)

    def test_matches_size_predicate(self):
        rng = random.Random(10)
        logs = self._logs([rng.randint(0, 9) for _ in range(30)])
        assert logs_of(filter_cascades(table_of(logs), 4)) == [log for log in logs if log.size >= 4]


class TestComputeStats:
    def test_empty_inputs(self):
        stats = compute_stats(network_of([]), table_of([]))
        assert (stats.user_count, stats.link_count, stats.cascade_count) == (0, 0, 0)
        assert stats.mean_cascade_size == 0.0

    def test_hand_counted_fixture(self):
        edges = [("a", "b"), ("b", "c"), ("a", "b"), ("c", "c"), ("d", "a")]
        logs = [
            CascadeLog.from_events("t1", [("a", 1), ("b", 2), ("e", 3)]),
            CascadeLog.from_events("t2", [("c", 1)]),
        ]
        stats = compute_stats(network_of(edges), table_of(logs))
        assert stats.user_count == 5  # a b c d from edges, e from events
        assert stats.link_count == 3  # dedup + self-loop dropped
        assert stats.cascade_count == 2
        assert stats.mean_cascade_size == pytest.approx(2.0)

    def test_permutation_invariance(self):
        rng = random.Random(12)
        edges = [(f"u{rng.randint(0, 9)}", f"u{rng.randint(0, 9)}") for _ in range(40)]
        table = load_cascades(
            io.StringIO("".join(f"c{i % 3}\tu{rng.randint(0, 9)}\t{i}\n" for i in range(30)))
        )
        shuffled_edges = edges[:]
        rng.shuffle(shuffled_edges)
        reversed_table = table_of(reversed(logs_of(table)))
        assert compute_stats(network_of(edges), table) == compute_stats(network_of(shuffled_edges), reversed_table)
