"""Parsers for follower networks and cascade event logs.

Canonical file formats (UTF-8, one record per line, ``#`` comments allowed):

* follow edges:  ``follower<TAB>followee``
* cascade events: ``cascade_id<TAB>user_id<TAB>timestamp``

Timestamps are integer time units (epoch seconds for the bundled adapters).
Fields may in practice be separated by any whitespace run, which lets the
publicly distributed follower edge lists (space-separated) load unchanged.

:func:`read_network` and :func:`load_cascades` read a *regular* file in
bulk: printable ASCII plus tab and newline only, no ``#``, and the same
field count on every non-blank line (for edges, also decimal ids of at most
18 digits without a leading zero).  Any other file, and any iterable of
lines that is not a file, goes through the line scanner, which alone skips
and reports comments and malformed lines; both readers give the same result
on a regular file.

Heterogeneous upstream dumps are normalised to these two formats at the
boundary; :func:`load_higgs_activity` is the adapter for the one public
activity log that ships in a four-column layout.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError, ParseError
from .graph import (
    MAX_DIGITS,
    DirectedGraph,
    _Interner,
    build_graph,
    decimal_values,
    edge_keys,
    graph_from_keys,
    sorted_codes,
)

logger = logging.getLogger(__name__)

# Characters per block of the bulk readers' regularity check, which keeps
# its per-byte temporaries small.
_BLOCK = 1 << 17
_POWERS = 10 ** np.arange(MAX_DIGITS + 1, dtype=np.int64)
# Integer ids are ranked through a table indexed by value when their span is
# at most this many times their count; the table then takes at most twice
# the values' own memory.
_SPAN_PER_VALUE = 2
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class CascadeLog:
    """Events of one cascade: who participated and when.

    Holds at most one event per user (earliest timestamp wins) and keeps
    events sorted by (timestamp, user id).
    """

    cascade_id: str
    events: tuple[tuple[str, int], ...]

    @classmethod
    def from_events(cls, cascade_id: str, events: Iterable[tuple[str, int]]) -> "CascadeLog":
        """Canonicalise raw (user, timestamp) pairs into a CascadeLog."""
        earliest: dict[str, int] = {}
        for user, ts in events:
            if user not in earliest or ts < earliest[user]:
                earliest[user] = ts
        ordered = tuple(sorted(earliest.items(), key=lambda item: (item[1], item[0])))
        return cls(cascade_id, tuple((u, t) for u, t in ordered))

    @property
    def size(self) -> int:
        return len(self.events)

    def users(self) -> list[str]:
        return [user for user, _ in self.events]


@dataclass(frozen=True, eq=False)
class CascadeTable(Sequence):
    """Many cascades' events as flat integer arrays; a read-only sequence of :class:`CascadeLog`.

    ``cascade_ids`` lists the cascades in order and ``users`` the distinct
    user ids, sorted.  Per event, sorted by (cascade, user): ``cascade`` (an
    index into ``cascade_ids``), ``user`` (an index into ``users``) and
    ``time``, with one event per (cascade, user), the earliest.  ``sizes``
    is each cascade's event count.  Build tables with :func:`load_cascades`
    or :meth:`from_logs`; the constructor assumes canonical arrays.
    """

    cascade_ids: tuple[str, ...]
    users: tuple[str, ...]
    cascade: np.ndarray = field(repr=False)
    user: np.ndarray = field(repr=False)
    time: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sizes", np.bincount(self.cascade, minlength=len(self.cascade_ids)))
        for arr in (self.cascade, self.user, self.time, self.sizes):
            arr.flags.writeable = False

    @classmethod
    def from_logs(cls, logs: Iterable[CascadeLog]) -> "CascadeTable":
        """A table holding ``logs`` in order; a table is returned as it is."""
        if isinstance(logs, CascadeTable):
            return logs
        logs = list(logs)
        sizes = np.fromiter((log.size for log in logs), dtype=np.int64, count=len(logs))
        events = list(chain.from_iterable(log.events for log in logs))
        return _cascade_table(
            tuple(log.cascade_id for log in logs),
            np.repeat(np.arange(len(logs), dtype=np.int64), sizes),
            *_intern_ids(list(map(itemgetter(0), events))),
            np.fromiter(map(itemgetter(1), events), dtype=np.int64, count=len(events)),
        )

    def __len__(self) -> int:
        return len(self.cascade_ids)

    def __getitem__(self, i: int) -> CascadeLog:
        """Cascade ``i`` as a :class:`CascadeLog`, events in (timestamp, user) order."""
        count = len(self.cascade_ids)
        if not -count <= i < count:
            raise IndexError(f"cascade index {i} out of range for {count} cascade(s)")
        i %= count
        lo, hi = np.searchsorted(self.cascade, [i, i + 1]).tolist()
        user, time = self.user[lo:hi], self.time[lo:hi]
        order = np.lexsort((user, time))
        users = map(self.users.__getitem__, user[order].tolist())
        return CascadeLog(self.cascade_ids[i], tuple(zip(users, time[order].tolist())))

    def __iter__(self) -> Iterator[CascadeLog]:
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CascadeTable):
            return NotImplemented
        return self.cascade_ids == other.cascade_ids and list(self) == list(other)

    __hash__ = None

    def select(self, keep: np.ndarray) -> "CascadeTable":
        """The cascades where the per-cascade bool array ``keep`` holds, order kept."""
        keep = np.asarray(keep, dtype=bool)
        code = np.cumsum(keep) - 1
        kept = keep[self.cascade]
        return CascadeTable(
            tuple(compress(self.cascade_ids, keep.tolist())),
            self.users,
            code[self.cascade[kept]],
            self.user[kept],
            self.time[kept],
        )


@dataclass(frozen=True)
class DatasetStats:
    """Headline counts for one dataset."""

    user_count: int
    link_count: int
    cascade_count: int
    mean_cascade_size: float


def _cascade_table(
    cascade_ids: tuple[str, ...], cascade: np.ndarray, users: tuple[str, ...], user: np.ndarray, time: np.ndarray
) -> CascadeTable:
    """The table of events given as (cascade index, user index, time) columns.

    ``users`` are the distinct user ids, sorted, and ``user`` indexes them.
    Of several events of one user in one cascade the earliest is kept.
    """
    if not time.size:
        return CascadeTable(cascade_ids, users, cascade, user, time)
    width = np.int64(len(users))
    key = cascade * width
    key += user
    # One sort by (cascade, user); the order among one pair's events does
    # not matter, since only their earliest time is kept.
    order = np.argsort(key)
    key = key[order]
    first = np.empty(key.size, dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    earliest = np.minimum.reduceat(time[order], np.flatnonzero(first))
    return CascadeTable(cascade_ids, users, *np.divmod(key[first], width), earliest)


def _intern_ids(tokens: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Distinct ids of ``tokens`` in sorted order, and each token's index into them.

    Plain decimal ids (see :func:`~cascadecut.graph.decimal_values`) are
    ranked as integers; any other tokens are interned as strings.
    """
    values = decimal_values(tokens)
    if values is None:
        return sorted_codes(tokens)
    ids, codes = _rank_ids(values)
    return tuple(map(str, ids.tolist())), codes


def _rank_ids(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ids among ``values`` in text order, and each value's index into them.

    ``values`` are plain decimal ids (non-negative, at most 18 digits) and
    are overwritten with the indices, which are returned.  When the ids
    span at most ``_SPAN_PER_VALUE`` times as many integers as there are
    values, they are ranked through a table indexed by value; otherwise
    through one sort.  Either way at most three value-sized arrays are
    alive at a time.
    """
    if not values.size:
        return values.copy(), values
    lo = values.min()
    span = int(values.max() - lo) + 1
    if span <= _SPAN_PER_VALUE * values.size:
        return _rank_by_table(values, lo, span)
    return _rank_by_sort(values)


def _rank_by_table(values: np.ndarray, lo: np.int64, span: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_rank_ids` through tables indexed by ``value - lo``."""
    values -= lo
    present = np.zeros(span, dtype=bool)
    present[values] = True
    ids = np.flatnonzero(present)
    del present
    ids = ids[_text_order(ids + lo)]
    table = np.empty(span, dtype=np.int64)
    table[ids] = np.arange(ids.size)
    for start in range(0, values.size, _BLOCK):
        chunk = values[start : start + _BLOCK]
        chunk[:] = table[chunk]
    ids += lo
    return ids, values


def _rank_by_sort(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_rank_ids` through one sort of the values."""
    # The sorted values give the distinct ids, and scattering each one's
    # rank back through the sort order remaps every value.
    order = np.argsort(values)
    values.sort()
    new = np.empty(values.size, dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    ids = values[new]
    text_order = _text_order(ids)
    rank = np.empty(ids.size, dtype=np.int64)
    rank[text_order] = np.arange(ids.size)
    np.cumsum(new, out=values)
    values -= 1
    del new
    ranked = rank[values]
    del rank
    values[order] = ranked
    return ids[text_order], values


def _text_order(ids: np.ndarray) -> np.ndarray:
    """The order that sorts plain decimal ``ids`` by their text: compare the
    digits padded to full width, then the shorter id first."""
    digits = np.searchsorted(_POWERS[1:], ids, side="right") + 1
    return np.lexsort((digits, ids * _POWERS[MAX_DIGITS - digits]))


def _regular_blocks(
    stream: Iterable[str], width: int, digits: bool
) -> tuple[list[str] | None, Iterator[str] | None]:
    """Read ``stream`` in blocks cut at line ends, checking each one.

    Returns (blocks, None) when every block is regular (see
    :func:`_is_regular_block`), else (None, lines) where ``lines`` replays
    the stream's lines from its start for the line scanner.  Only file-like
    streams are read in blocks; any other iterable of lines is returned as
    the lines.
    """
    if not hasattr(stream, "read"):
        return None, iter(stream)
    blocks: list[str] = []
    rest = _blocks(stream)
    for block in rest:
        blocks.append(block)
        if not _is_regular_block(block, width, digits):
            return None, _lines(blocks, rest)
    return blocks, None


def _blocks(stream) -> Iterator[str]:
    """The text of ``stream`` in blocks of about ``_BLOCK`` characters, each
    ending at a line end (the last one may end without)."""
    parts: list[str] = []
    while chunk := stream.read(_BLOCK):
        cut = chunk.rfind("\n") + 1
        if not cut:  # inside a line longer than a block
            parts.append(chunk)
            continue
        parts.append(chunk[:cut])
        yield "".join(parts)
        parts = [chunk[cut:]]
    tail = "".join(parts)
    if tail:
        yield tail


def _lines(blocks: list[str], rest: Iterable[str] = ()) -> Iterator[str]:
    """The lines, without line ends, of ``blocks`` and then of ``rest``.

    Each block of ``blocks`` is released once its lines are out.
    """
    blocks.reverse()
    while blocks:
        yield from _split_lines(blocks.pop())
    for block in rest:
        yield from _split_lines(block)


def _split_lines(block: str) -> list[str]:
    lines = block.split("\n")
    if not lines[-1]:  # the block ends at a line end
        lines.pop()
    return lines


def _is_regular_block(block: str, width: int, digits: bool) -> bool:
    """Whether ``block`` is printable ASCII, tab and newline without ``#``,
    with ``width`` fields on every non-blank line.

    With ``digits``, every field must also be a decimal of at most 18 digits
    without a leading zero.
    """
    if not block.isascii():
        return False
    # Line ends around the block put every token's start and end inside it.
    data = np.frombuffer(f"\n{block}\n".encode("ascii"), dtype=np.uint8)
    if digits:
        token = (data >= ord("0")) & (data <= ord("9"))
    else:
        token = (data > ord(" ")) & (data < 0x7F) & (data != ord("#"))
    line_end = data == ord("\n")
    if not (token | line_end | (data == ord(" ")) | (data == ord("\t"))).all():
        return False
    starts = np.zeros_like(token)
    np.greater(token[1:], token[:-1], out=starts[1:])
    # Token starts and line ends in text order: 0 or ``width`` starts
    # between consecutive line ends.
    marks = np.flatnonzero(starts | line_end)
    is_end = line_end[marks]
    fields = np.diff(np.flatnonzero(is_end)) - 1
    if not ((fields == 0) | (fields == width)).all():
        return False
    if digits:
        first = marks[~is_end]
        lengths = np.flatnonzero(token[1:] < token[:-1]) + 1 - first
        if lengths.max(initial=0) > MAX_DIGITS or ((data[first] == ord("0")) & (lengths > 1)).any():
            return False
    return True


def _scan(stream: Iterable[str], width: int, kind: str, strict: bool) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each record line with ``width`` fields.

    Blank lines and ``#`` comments are skipped.  Lines with another field
    count are skipped and counted, with one WARNING naming the first once the
    stream is exhausted; with ``strict`` the first raises :class:`ParseError`.
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
        logger.warning("skipped %d malformed %s line(s); first: %s", malformed, kind, first_bad)
    logger.info("read %d %s record(s) with the line scanner", records, kind)


def iter_follow_edges(stream: Iterable[str], strict: bool = False) -> Iterator[list[str]]:
    """Stream follower->followee pairs (two-item lists) in file order.

    Consumes ``stream`` lazily, so a caller such as
    :func:`~cascadecut.graph.build_graph` never holds the whole edge list.
    Malformed lines follow the rule of :func:`load_follow_edges`.
    """
    return map(itemgetter(1), _scan(stream, 2, "edge", strict))


def load_follow_edges(stream: Iterable[str], strict: bool = False) -> list[tuple[str, str]]:
    """Read follower->followee pairs, in file order, duplicates preserved.

    Malformed lines (wrong field count) are skipped and counted; with
    ``strict`` they raise :class:`ParseError` naming the first offender.
    """
    return [(src, dst) for src, dst in iter_follow_edges(stream, strict)]


def read_network(stream: Iterable[str], strict: bool = False) -> DirectedGraph:
    """The follow network of an edge file: ``build_graph(load_follow_edges(stream, strict))``.

    A regular file of decimal ids is parsed in bulk into integer arrays;
    any other goes through the line scanner, with its warnings and errors.
    """
    blocks, lines = _regular_blocks(stream, 2, digits=True)
    if blocks is None:
        return build_graph(iter_follow_edges(lines, strict))
    values = np.concatenate([np.empty(0, dtype=np.int64), *map(_ints, blocks)])
    del blocks
    logger.info("read %d edge record(s) with the bulk reader", values.size // 2)
    ids, codes = _rank_ids(values)
    keys = edge_keys(codes, ids.size)
    del codes  # free the per-edge array before the graph allocates its own
    return graph_from_keys(tuple(map(str, ids.tolist())), keys)


def _timestamp(lineno: int, text: str) -> int:
    try:
        ts = int(text)
    except ValueError:
        raise ParseError(f"line {lineno}: invalid timestamp {text!r}") from None
    if not _INT64_MIN <= ts <= _INT64_MAX:
        raise ParseError(f"line {lineno}: timestamp out of range {text!r}")
    return ts


def load_cascades(stream: Iterable[str], strict: bool = False) -> CascadeTable:
    """Read cascade events into a table, cascades in first-appearance order.

    Duplicate events for a user within a cascade keep the earliest
    timestamp.  A non-integer timestamp is always a :class:`ParseError`;
    lines with the wrong field count follow the strict/skip rule of
    :func:`load_follow_edges`.
    """
    blocks, lines = _regular_blocks(stream, 3, digits=False)
    columns = None if blocks is None else _bulk_events(blocks)
    if columns is None:
        if lines is None:  # regular, but a timestamp is not an int64
            lines = _lines(blocks)
        cascade_names, users, times = [], [], []
        for lineno, (cascade_id, user, ts_text) in _scan(lines, 3, "event", strict):
            cascade_names.append(cascade_id)
            users.append(user)
            times.append(_timestamp(lineno, ts_text))
        columns = cascade_names, users, np.array(times, dtype=np.int64)
    del blocks, lines
    cascade_names, users, times = columns
    # Cascade ids get codes in first-appearance order as they go by.
    index = _Interner()
    cascade = np.fromiter(map(index.__getitem__, cascade_names), dtype=np.int64, count=len(cascade_names))
    return _cascade_table(tuple(index), cascade, *_intern_ids(users), times)


def _ints(block: str) -> np.ndarray:
    # fromstring reads a text of blanks alone as one 0.
    return np.fromstring("" if block.isspace() else block, dtype=np.int64, sep=" ")


def _bulk_events(blocks: list[str]) -> tuple[list[str], list[str], np.ndarray] | None:
    """(cascade ids, users, timestamps) of a regular event file, or None when a
    timestamp is not an int64, for the line scanner to report."""
    tokens = list(chain.from_iterable(map(str.split, blocks)))
    stamps = tokens[2::3]
    times = decimal_values(stamps)
    if times is None:  # signs, leading zeros or 19 digits: parse one by one
        try:
            times = np.array(stamps, dtype=np.int64)
        except (ValueError, OverflowError):
            return None
    logger.info("read %d event record(s) with the bulk reader", times.size)
    return tokens[0::3], tokens[1::3], times


def load_higgs_activity(
    stream: Iterable[str],
    cascade_id: str = "higgs",
    interactions: frozenset[str] = frozenset({"RT"}),
    strict: bool = False,
) -> CascadeTable:
    """Adapter for the public four-column activity log.

    Lines read ``acting_user source_user timestamp kind``; every selected
    row becomes an event for the acting user, and the whole file is one
    cascade (none when no row is selected).  ``interactions`` picks the row
    kinds to keep (retweets by default); pass ``frozenset()`` to keep
    everything.
    """
    users, times = [], []
    for lineno, (user, _, ts_text, kind) in _scan(stream, 4, "activity", strict):
        if not interactions or kind in interactions:
            users.append(user)
            times.append(_timestamp(lineno, ts_text))
    return _cascade_table(
        (cascade_id,) if users else (),
        np.zeros(len(users), dtype=np.int64),
        *_intern_ids(users),
        np.array(times, dtype=np.int64),
    )


def filter_cascades(logs: Iterable[CascadeLog], min_size: int) -> CascadeTable:
    """Keep cascades with at least ``min_size`` participants, order preserved."""
    if min_size < 0:
        raise InputError("min_size must be >= 0")
    table = CascadeTable.from_logs(logs)
    return table.select(table.sizes >= min_size)


def compute_stats(network: DirectedGraph, logs: Iterable[CascadeLog]) -> DatasetStats:
    """Dataset-level counts over a built follow network and cascade logs.

    ``user_count`` covers every user mentioned in either input (the
    network's nodes plus event users absent from it); ``link_count`` is the
    network's edge count, i.e. distinct non-self-loop follow edges.
    """
    table = CascadeTable.from_logs(logs)
    mentioned = np.zeros(len(table.users), dtype=bool)
    mentioned[table.user] = True
    absent = mentioned & (network.indices_of(table.users) < 0)
    count = len(table)
    mean = int(table.sizes.sum()) / count if count else 0.0
    return DatasetStats(
        user_count=network.node_count + np.count_nonzero(absent),
        link_count=network.edge_count,
        cascade_count=count,
        mean_cascade_size=mean,
    )


def dump_follow_edges(edges: list[tuple[str, str]]) -> str:
    """Serialise edges back to the canonical tab-separated text."""
    return "".join(f"{src}\t{dst}\n" for src, dst in edges)


def dump_cascades(logs: Iterable[CascadeLog]) -> str:
    """Serialise cascade logs back to the canonical tab-separated text."""
    lines: list[str] = []
    for log in logs:
        for user, ts in log.events:
            lines.append(f"{log.cascade_id}\t{user}\t{ts}\n")
    return "".join(lines)
