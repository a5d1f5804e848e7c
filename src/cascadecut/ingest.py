"""Parsers for follower networks and cascade event logs.

Canonical file formats (UTF-8, one record per line, ``#`` comments allowed):

* follow edges:  ``follower<TAB>followee``
* cascade events: ``cascade_id<TAB>user_id<TAB>timestamp``

Timestamps are integer time units (epoch seconds for the bundled adapters).
Fields may in practice be separated by any whitespace run, which lets the
publicly distributed follower edge lists (space-separated) load unchanged.

Every loader reads a file in blocks that end at a line end, and a list of
lines as one block.  One pass over a block's UTF-8 bytes
(:func:`_token_bounds`, the package's one reader of input text) finds its
tokens where ``str.split()`` finds them, and :func:`_records` drops its
blank lines and ``#`` comments and skips, or with ``strict`` raises at,
its lines of another field count.  Every id column, of nodes, users or
cascades, is classified by one rule from its own tokens (:func:`_id_column`):
int64 values when every id is a plain decimal, else uint64 keys when none
is over ``_KEY_BYTES`` bytes, else strings; one ranker, :func:`_id_codes`,
numbers every id column in that kind and builds strings of distinct ids
only.  Plain decimal node and user ids stay int64.  Edges are deduplicated
(:func:`edge_keys`) here too, so :mod:`~cascadecut.graph` receives canonical arrays.

:func:`read_network` returns the follow network as a
:class:`~cascadecut.graph.DirectedGraph`.  :func:`load_cascades` and
:func:`load_higgs_activity` return a :class:`CascadeTable`, the one cascade
type the rest of the package takes.  To build either from Python data,
pass :func:`read_network` a list of edge lines or :func:`load_cascades` a
list of event lines.

Heterogeneous upstream dumps are normalised to these two formats at the
boundary; :func:`load_higgs_activity` is the adapter for the one public
activity log that ships in a four-column layout.
"""

from __future__ import annotations

import logging
import os
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import InputError, ParseError
from .graph import _POWERS, INDEX, MAX_DIGITS, DirectedGraph, _run_starts, _sorted_unique, digit_counts, id_strings

logger = logging.getLogger(__name__)

# Characters per block of the byte pass, which keeps its per-byte
# temporaries small.
_BLOCK = 1 << 17
# The blanks at which str.split() splits: the ASCII ones as bytes, and the
# others, which become a space before the block is encoded.
_BLANKS = np.array([*b"\t\n\v\f\r\x1c\x1d\x1e\x1f "], dtype=np.uint8)
_UNICODE_BLANKS = re.compile("[\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")
# Integer ids are ranked through a table indexed by value when their span is
# at most this many times their count; the table then takes at most twice
# the values' own memory.
_SPAN_PER_VALUE = 2
# Ids of at most this many bytes are packed into one uint64 key.
_KEY_BYTES = 8
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class CascadeTable:
    """Many cascades' events as flat integer arrays.

    ``cascade_ids`` lists the cascades as strings, sorted as
    :func:`load_cascades` reads them, and ``user_ids`` the distinct user
    ids, sorted: a tuple of strings, or an int64 array of plain decimal ids
    (see :func:`_id_column`) in the same text order, whose strings
    :attr:`users` builds on first use.  Per event, sorted by (cascade, user):
    ``cascade`` and ``user`` (``INDEX`` indices into ``cascade_ids`` and
    ``user_ids``) and ``time``, with one event per (cascade, user), the
    earliest.  ``sizes`` is each cascade's event count.  Build tables with
    :func:`load_cascades`, which also reads a list of event lines; the
    constructor assumes canonical arrays and keeps the cascade order given.
    """

    cascade_ids: tuple[str, ...]
    user_ids: tuple[str, ...] | np.ndarray = field(repr=False)
    cascade: np.ndarray = field(repr=False)
    user: np.ndarray = field(repr=False)
    time: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(init=False, repr=False)
    _users: tuple[str, ...] | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "sizes", np.bincount(self.cascade, minlength=len(self.cascade_ids)))
        arrays = [self.cascade, self.user, self.time, self.sizes]
        if isinstance(self.user_ids, np.ndarray):
            arrays.append(self.user_ids)
        for arr in arrays:
            arr.flags.writeable = False

    @property
    def users(self) -> tuple[str, ...]:
        """The distinct user ids as strings, sorted."""
        if self._users is None:
            ids = self.user_ids
            object.__setattr__(self, "_users", id_strings(ids) if isinstance(ids, np.ndarray) else ids)
        return self._users

    def __len__(self) -> int:
        return len(self.cascade_ids)

    def select(self, keep: np.ndarray) -> "CascadeTable":
        """The cascades where the per-cascade bool array ``keep`` holds, order kept."""
        keep = np.asarray(keep, dtype=bool)
        code = np.cumsum(keep, dtype=INDEX) - 1
        kept = keep[self.cascade]
        return CascadeTable(
            tuple(compress(self.cascade_ids, keep.tolist())),
            self.user_ids,
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
    cascade_ids: tuple[str, ...],
    cascade: np.ndarray,
    users: tuple[str, ...] | np.ndarray,
    user: np.ndarray,
    time: np.ndarray,
) -> CascadeTable:
    """The table of events given as (cascade index, user index, time) columns.

    ``users`` are the distinct user ids, sorted (see
    :attr:`CascadeTable.user_ids`), and ``user`` indexes them.
    Of several events of one user in one cascade the earliest is kept.
    """
    if not time.size:
        return CascadeTable(cascade_ids, users, cascade, user, time)
    width = np.int64(len(users))
    # An int64 key split back into int64 codes: a narrower INDEX widens ``cascade`` by astype first.
    key = cascade * width
    key += user
    # One sort by (cascade, user); the order among one pair's events does
    # not matter, since only their earliest time is kept.
    order = np.argsort(key)
    key = key[order]
    first = _run_starts(key)
    earliest = np.minimum.reduceat(time[order], np.flatnonzero(first))
    return CascadeTable(cascade_ids, users, *np.divmod(key[first], width), earliest)


def sorted_codes(tokens: Iterable[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Distinct ids of ``tokens`` in sorted order, and each token's index into them.

    ``tokens`` is consumed once, as a stream.
    """
    # Intern ids in first-seen order while the tokens stream by, then sort the
    # id table once and remap the codes to sorted order.
    index = _Interner()
    codes = np.fromiter(map(index.__getitem__, tokens), dtype=INDEX)
    ids = tuple(sorted(index))
    n = len(ids)
    rank = np.empty(n, dtype=INDEX)
    rank[np.fromiter(map(index.__getitem__, ids), dtype=INDEX, count=n)] = np.arange(n)
    return ids, rank[codes]


class _Interner(dict):
    """External id -> dense code; an unseen id gets the next code."""

    def __missing__(self, ext):
        code = self[ext] = len(self)
        return code


def _id_codes(parts: Iterable, capacity: int) -> tuple[tuple[str, ...] | np.ndarray, np.ndarray]:
    """Distinct ids of an id column given in parts, in sorted order, and each id's index into them.

    Each part comes in the kind it was read as and is not classified again:
    int64 plain decimal values (see :func:`_id_column`), uint64 keys of
    short ids (see :func:`_keys`), which sort as the ids do, or a list of
    strings; an empty part is passed over.  Parts all of one array kind are
    ranked as values (see :func:`_rank_ids`; no part at all is an empty int64
    column) or as uint64 keys (see :func:`_rank_by_sort`); from the first
    list, or part of another kind, every id is interned as a string.  The
    8-byte values are kept in one array reserved at ``capacity`` and doubled
    when full; the OS maps a page only once written, so none is copied.
    """
    # Holds the parts' 8-byte values, then (see _rank_ids) their codes in place, so those come as int64, not INDEX.
    data = np.empty(max(capacity, 1), dtype=np.int64)
    size, kind = 0, None
    parts = filter(len, parts)
    for part in parts:
        if isinstance(part, list) or size and part.dtype != kind:
            done = (_strings(data[start : min(start + _BLOCK, size)].view(kind)) for start in range(0, size, _BLOCK))
            return sorted_codes(chain.from_iterable(chain(done, map(_strings, chain([part], parts)))))
        kind = part.dtype
        end = size + part.size
        if end > data.size:
            grown = np.empty(max(end, 2 * data.size), dtype=np.int64)
            grown[:size] = data[:size]
            data = grown
        data[size:end] = part.view(np.int64)
        size = end
    if kind != np.uint64:
        return _rank_ids(data[:size])
    keys, codes = _rank_by_sort(data[:size].view(np.uint64))
    return tuple(_key_strings(keys)), codes.view(np.int64)


def _strings(part: np.ndarray | list[str]) -> Iterable[str]:
    """The ids of one part of an id column (see :func:`_id_codes`) as strings."""
    if isinstance(part, list):
        return part
    return _key_strings(part) if part.dtype == np.uint64 else id_strings(part)


def _rank_ids(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ids among ``values`` in text order, and each value's index into them.

    ``values`` are plain decimal ids (non-negative, at most 18 digits) and
    are overwritten with the indices, which are returned.  When the ids
    span at most ``_SPAN_PER_VALUE`` times as many integers as there are
    values, they are ranked through a table indexed by value; otherwise
    through one sort (see :func:`_rank_by_sort`).  Either way at most three
    value-sized arrays are alive at a time.
    """
    if not values.size:
        return values.copy(), values
    lo = values.min()
    span = int(values.max() - lo) + 1
    if span <= _SPAN_PER_VALUE * values.size:
        return _rank_by_table(values, lo, span)
    return _rank_by_sort(values, _text_order)


def _rank_by_table(values: np.ndarray, lo: np.int64, span: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_rank_ids` through tables indexed by ``value - lo``."""
    values -= lo
    present = np.zeros(span, dtype=bool)
    present[values] = True
    ids = np.flatnonzero(present)
    del present
    ids = ids[_text_order(ids + lo)]
    table = np.empty(span, dtype=INDEX)
    table[ids] = np.arange(ids.size)
    for start in range(0, values.size, _BLOCK):
        chunk = values[start : start + _BLOCK]
        chunk[:] = table[chunk]
    ids += lo
    return ids, values


def _rank_by_sort(values: np.ndarray, arrange: Callable | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``values`` in ascending order, or in the order that
    ``arrange(distinct)`` gives, and each value's index into them, by one
    sort.  ``values`` is overwritten with the indices, which are returned,
    and at most three value-sized arrays are alive at a time."""
    # The sorted values give the distinct ones, and scattering each one's
    # rank back through the sort order remaps every value.
    order = np.argsort(values)
    values.sort()
    new = _run_starts(values)
    ids = values[new]
    arranged = slice(None) if arrange is None else arrange(ids)
    rank = np.empty(ids.size, dtype=INDEX)
    rank[arranged] = np.arange(ids.size)
    np.cumsum(new, out=values)
    values -= 1
    del new
    ranked = rank[values]
    del rank
    values[order] = ranked
    return ids[arranged], values


def _text_order(ids: np.ndarray) -> np.ndarray:
    """The order that sorts plain decimal ``ids`` by their text: compare the
    digits padded to full width, then the shorter id first."""
    digits = digit_counts(ids)
    return np.lexsort((digits, ids * _POWERS[MAX_DIGITS - digits]))


def _value_bound(stream) -> int:
    """At most how many values a stream of decimal tokens holds: a value and
    its separator take two bytes, so half the file's size; without a file
    size, a block's worth."""
    try:
        return os.fstat(stream.fileno()).st_size // 2 + 1
    except (AttributeError, OSError, ValueError):
        return _BLOCK // 2


def _read_input(path: str | os.PathLike, kind: str, read, newline: str | None = None):
    """``read(stream)`` of a UTF-8 input file of the given kind, a leading
    byte-order mark dropped: the one reader of edge, cascade, config and
    report text.  An unreadable file is an :class:`InputError` and text
    that is not UTF-8 a :class:`ParseError` naming the file."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
            return read(fh)
    except OSError as exc:
        raise InputError(f"ingest: cannot read {kind} file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


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


def decimal_values(tokens: Sequence[str]) -> np.ndarray | None:
    """``tokens`` as int64 values when every one is a plain decimal, else None.

    A plain decimal is 1 to ``MAX_DIGITS`` ASCII digits with no sign and no
    leading zero, so its value prints back as its text and numeric order
    decides text order within one digit count.  The tokens are joined one
    per line and cut at the line ends; :func:`_decimals`' digit check
    rejects a blank or a sign, so no tokenizer is needed.
    """
    if not tokens:
        return np.empty(0, dtype=np.int64)
    try:
        text = "\n".join(tokens) + "\n"
    except TypeError:
        return None
    if not text.isascii():
        return None
    data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    if ends.size != len(tokens):  # a token holds a line end
        return None
    lengths = np.diff(ends, prepend=-1) - 1
    return _decimals(data, ends - lengths, lengths, leading_zeros=False)


def _token_bounds(block: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """The UTF-8 bytes of ``block`` between two added line ends, the start
    and end offsets of its tokens into them, whether a line end lies between
    each token and the next, and the block's line end count.

    The tokens are those of ``block.split()``: the blanks beyond ASCII
    become a space first, and every byte but an ASCII blank is a token byte.
    UTF-8 codes every other code point in bytes above 0x7F, so no blank
    byte occurs inside one.
    """
    if not block.isascii():
        block = _UNICODE_BLANKS.sub(" ", block)
    data = np.frombuffer(f"\n{block}\n".encode("utf-8", "surrogatepass"), dtype=np.uint8)
    token = data > ord(" ")
    newline = data == ord("\n")
    token_bytes = np.count_nonzero(token)
    line_ends = int(np.count_nonzero(newline))
    blanks = np.count_nonzero(data == ord(" ")) + np.count_nonzero(data == ord("\t"))
    if token_bytes + blanks + line_ends != data.size:  # other blanks, or control bytes, which split() keeps
        token = ~np.isin(data, _BLANKS)
        token_bytes = np.count_nonzero(token)
    # The mask changes at every token's start and end, in turn.
    bounds = np.flatnonzero(token[1:] != token[:-1])
    bounds += 1
    starts, ends = bounds[0::2], bounds[1::2]
    if not starts.size or ends[-1] - starts[0] - token_bytes == starts.size - 1:  # every gap is one byte
        breaks = data[ends[:-1]] == ord("\n")
    else:
        breaks = np.logical_or.reduceat(newline[: ends[-1]], ends[:-1])
    return data, starts, ends, breaks, line_ends - 2


def _records(block: str, width: int, tally: _Tally, offset: int, lines: Sequence[str] | None = None) -> tuple:
    """The bytes of ``block`` and the bounds of its record tokens (see
    :func:`_token_bounds`), ``width`` per record, its line end count, and
    with ``tally.strict`` the error of its first malformed line, or None.

    Blank lines and ``#`` comments (lines whose first token starts with
    ``#``) are dropped.  A line of another token count is malformed: it is
    counted in ``tally``, or with ``tally.strict`` the records end before
    it.  The first line is number ``offset + 1``; a message quotes the line
    stripped, or ``lines``' item of its number when given.
    """
    data, starts, ends, breaks, line_ends = _token_bounds(block)
    tokens = starts.size
    # A break after every width-th token and nowhere else (with a last line
    # of fewer tokens there would be one break too many), and no comment.
    if not tokens or (
        np.count_nonzero(breaks) == tokens // width - 1
        and breaks[width - 1 :: width].all()
        and not (data[starts[::width]] == ord("#")).any()
    ):
        return data, starts, ends, line_ends, None
    firsts = np.flatnonzero(np.concatenate(([True], breaks)))
    counts = np.diff(firsts, append=tokens)
    comment = data[starts[firsts]] == ord("#")
    record = (counts == width) & ~comment
    bad = np.flatnonzero((counts != width) & ~comment)
    error = None
    if bad.size and (tally.strict or not tally.first_bad):
        # The added line end before the block counts, so this is the line's number in the block.
        lineno = int(np.count_nonzero(data[: starts[firsts[bad[0]]]] == ord("\n")))
        line = (block.split("\n", lineno)[lineno - 1] if lines is None else lines[lineno - 1]).strip()
        if tally.strict:
            error = ParseError(f"line {offset + lineno}: expected {width} fields, got {counts[bad[0]]}: {line!r}")
            record[bad[0] :] = False
        else:
            tally.first_bad = f"line {offset + lineno}: {line!r}"
    if not tally.strict:
        tally.malformed += bad.size
    keep = np.repeat(record, counts)
    return data, starts[keep], ends[keep], line_ends, error


def _token_strings(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """The tokens of ``data`` (see :func:`_token_bounds`) from ``starts`` to
    ``ends``, as strings; no other token becomes a string."""
    # Each token's bytes and the blank after it are taken, and the blanks
    # become the line ends that split the text.
    cuts = np.empty(2 * starts.size + 2, dtype=INDEX)
    cuts[0], cuts[-1] = 0, data.size
    cuts[1:-1:2] = starts
    cuts[2:-1:2] = ends + 1
    taken = np.zeros(cuts.size - 1, dtype=bool)
    taken[1::2] = True
    text = data[np.repeat(taken, np.diff(cuts))]
    text[np.cumsum(ends - starts + 1) - 1] = ord("\n")
    return text.tobytes().decode("utf-8", "surrogatepass").split("\n")[:-1]


def _fold(
    data: np.ndarray, starts: np.ndarray, lengths: np.ndarray, base: int, zero: int, dtype=np.int64
) -> tuple[np.ndarray, int]:
    """Each token's bytes less ``zero`` read as the digits of one number in
    ``base``, most significant first, as ``dtype``, and the largest digit met.

    Horner's rule runs over the tokens of one length at a time, a digit column at a time; it
    is exact while ``base ** length`` fits ``dtype``.  A byte below ``zero`` wraps to a digit above 200.
    """
    values = np.empty(starts.size, dtype=dtype)
    top = 0
    counts = np.bincount(lengths)
    for length in np.flatnonzero(counts).tolist():
        group = None if counts[length] == starts.size else np.flatnonzero(lengths == length)
        at = starts.copy() if group is None else starts[group]
        value = np.zeros(at.size, dtype=dtype)
        for _ in range(length):
            digit = data[at]
            digit -= zero
            top = max(top, int(digit.max()))
            value *= base
            value += digit
            at += 1
        if group is None:
            values = value
        else:
            values[group] = value
    return values, top


def _decimals(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray, leading_zeros: bool) -> np.ndarray | None:
    """The tokens' int64 values when each is 1 to ``MAX_DIGITS`` digits, with
    no leading zero unless ``leading_zeros``, else None.  A column whose
    first bytes are not all digits is rejected before any token is folded."""
    if lengths.min(initial=1) < 1 or lengths.max(initial=0) > MAX_DIGITS:
        return None
    lead = data[starts] - ord("0")  # a byte below "0" wraps around above 200
    if (lead > 9).any() or not leading_zeros and ((lead == 0) & (lengths > 1)).any():
        return None
    values, top = _fold(data, starts, lengths, 10, ord("0"))
    return values if top <= 9 else None


def _id_column(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | list[str]:
    """One id column of :func:`_token_bounds`'s ``data``, the tokens from ``starts`` to ``ends``, in the kind
    its own tokens allow: int64 values when all are plain decimals (see :func:`_decimals`), else uint64 keys
    (see :func:`_keys`) when none is over ``_KEY_BYTES`` bytes or ends in a NUL, whatever its text, else strings."""
    lengths = ends - starts
    values = _decimals(data, starts, lengths, leading_zeros=False)
    if values is None and lengths.max() <= _KEY_BYTES and data[ends - 1].all():
        values = _keys(data, starts, lengths)
    return _token_strings(data, starts, ends) if values is None else values


def _event_columns(data: np.ndarray, starts: np.ndarray, ends: np.ndarray, offset: int) -> tuple:
    """(cascade ids, users, timestamps) of one block's event records (see
    :func:`_parts`), each id column as :func:`_id_column` gives it."""
    ids = (_id_column(data, starts[column::3], ends[column::3]) for column in (0, 1))
    return *ids, _times(data, starts[2::3], ends[2::3], offset)


def _times(data: np.ndarray, starts: np.ndarray, ends: np.ndarray, offset: int) -> np.ndarray:
    """The int64 timestamps from ``starts`` to ``ends``; the first that is
    not one is a :class:`ParseError` naming its line (see :func:`_parts`)."""
    times = _decimals(data, starts, ends - starts, leading_zeros=True)
    if times is None:  # signs or 19 digits: parse one by one
        texts = _token_strings(data, starts, ends)
        try:
            times = np.array(texts, dtype=np.int64)
        except (ValueError, OverflowError):
            linenos = offset + np.searchsorted(np.flatnonzero(data == ord("\n")), starts)
            times = np.array(list(map(_timestamp, linenos.tolist(), texts)), dtype=np.int64)
    return times


@dataclass
class _Tally:
    """One file's malformed lines, skipped, or with ``strict`` raised at."""

    kind: str
    strict: bool
    malformed: int = 0
    first_bad: str = ""

    def report(self, records: int) -> None:
        """Log a WARNING naming the first malformed line, if any, and an INFO line."""
        if self.malformed:
            logger.warning("skipped %d malformed %s line(s); first: %s", self.malformed, self.kind, self.first_bad)
        logger.info("read %d %s record(s)", records, self.kind)


def _parts(stream: Iterable[str], width: int, tally: _Tally, parse) -> Iterator:
    """``parse(data, starts, ends, offset)`` of the records (see
    :func:`_records`) of each block of a file-like ``stream`` (see
    :func:`_blocks`; no block is kept), or of a list of lines joined into
    one block, each item's own line ends read as blanks so that item ``i``
    is line ``i + 1``.  A strict error is raised once the block's part is
    parsed, so an earlier line's bad timestamp raises first.
    """
    if hasattr(stream, "read"):
        blocks = ((block, None) for block in _blocks(stream))
    elif isinstance(stream, (str, bytes)):
        raise InputError(f"{tally.kind} lines must be a file or a list of strings, not {type(stream).__name__}")
    else:
        lines = list(stream)
        try:
            block = "\n".join(lines)
        except TypeError:
            raise InputError(f"{tally.kind} lines must be strings") from None
        if block.count("\n") >= len(lines):  # an item holds a line end
            block = "\n".join(line.replace("\n", " ") for line in lines)
        blocks = [(block, lines)]
    offset = 0
    for block, lines in blocks:
        data, starts, ends, line_ends, error = _records(block, width, tally, offset, lines)
        part = parse(data, starts, ends, offset)
        del data, starts, ends  # held into the next block, they raised a wide sweep's peak RSS by about 0.7 MiB
        if error is not None:
            raise error
        yield part
        offset += line_ends


def read_network(stream: Iterable[str], strict: bool = False) -> DirectedGraph:
    """The follow network of an edge file, or of a list of edge lines.

    Comments and blank lines are skipped, and a line that is not two fields
    is skipped with a warning or, with ``strict``, a :class:`ParseError`
    (see :func:`_records`).  Duplicate edges and self-loops are dropped, and
    nodes are numbered in sorted id order, so the same edge set always gives
    the same graph; plain decimal ids are kept as integers.
    """
    tally = _Tally("edge", strict)
    parts = _parts(stream, 2, tally, lambda data, starts, ends, offset: _id_column(data, starts, ends))
    ids, codes = _id_codes(parts, _value_bound(stream))
    tally.report(codes.size // 2)
    keys = edge_keys(codes, len(ids))
    del codes  # free the per-edge array before the graph allocates its own
    return graph_from_keys(ids, keys)


def edge_keys(codes: np.ndarray, n: int) -> np.ndarray:
    """Sorted distinct keys ``src * n + dst`` of flat (src, dst) codes, self-loops dropped.

    One key per edge makes dedup plus the (src, dst) sort a single pass.
    ``codes`` is overwritten: the keys are built in place in its src half.
    """
    # Keys need int64: INDEX codes (string ids, see sorted_codes) narrower than that are widened by astype first.
    src, dst = codes[0::2], codes[1::2]
    keep = src != dst
    src *= n
    src += dst
    return _sorted_unique(src[keep])


def graph_from_keys(external_ids: tuple[str, ...], keys: np.ndarray) -> DirectedGraph:
    """Graph over sorted ``external_ids`` with the edges of :func:`edge_keys`.

    ``keys`` is overwritten with the sources, so no more than two
    edge-sized arrays are alive at a time.
    """
    n = np.int64(len(external_ids))
    # Both halves of an int64 key come out int64; a narrower INDEX needs them cast.
    dst = keys % n
    keys //= n
    return DirectedGraph(external_ids, keys, dst)


def _concat(parts: Iterable[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.empty(0, dtype=np.int64), *parts])


def _timestamp(lineno: int, text: str) -> int:
    try:
        ts = int(text)
    except ValueError:
        raise ParseError(f"line {lineno}: invalid timestamp {text!r}") from None
    if not _INT64_MIN <= ts <= _INT64_MAX:
        raise ParseError(f"line {lineno}: timestamp out of range {text!r}")
    return ts


def load_cascades(stream: Iterable[str], strict: bool = False) -> CascadeTable:
    """Read cascade events into a table, cascades in sorted id order.

    Duplicate events for a user within a cascade keep the earliest
    timestamp.  A non-integer timestamp is always a :class:`ParseError`;
    lines with the wrong field count follow the strict/skip rule of
    :func:`read_network`, which reads a list of lines the same way.
    """
    tally = _Tally("event", strict)
    parts = list(_parts(stream, 3, tally, _event_columns))
    cascades, users, times = zip(*parts) if parts else ((), (), ())
    times = _concat(times)
    tally.report(times.size)
    ids, cascade = _id_codes(cascades, times.size)  # plain decimal ids come as int64, ranked in text order
    ids = id_strings(ids) if isinstance(ids, np.ndarray) else ids
    return _cascade_table(ids, cascade, *_id_codes(users, times.size), times)


def _keys(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Uint64 keys of ids of 1 to ``_KEY_BYTES`` UTF-8 bytes, none ending in a NUL: their bytes in base 256,
    left-aligned and zero-padded, so keys sort as the ids do (UTF-8 is in code-point order), a prefix first."""
    keys = _fold(data, starts, lengths, 256, 0, np.uint64)[0]
    keys <<= (8 * (_KEY_BYTES - lengths)).astype(np.uint64)
    return keys


def _key_strings(keys: np.ndarray) -> list[str]:
    """The ids packed in ``keys`` (see :func:`_keys`): numpy drops the padding NULs, no id holds a line end."""
    return b"\n".join(keys.astype(">u8").view("S8").tolist()).decode("utf-8", "surrogatepass").split("\n")


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
    everything.  The log, or a list of its lines, is read as the other
    files are (see :func:`read_network`); a row of a kind not picked is
    dropped before its timestamp is read.
    """
    tally = _Tally("activity", strict)

    def selected(data, starts, ends, offset):
        keep = slice(None)
        if interactions:
            keep = np.array([kind in interactions for kind in _token_strings(data, starts[3::4], ends[3::4])], bool)
        users = _id_column(data, starts[0::4][keep], ends[0::4][keep])
        return users, _times(data, starts[2::4][keep], ends[2::4][keep], offset), starts.size // 4

    parts = list(_parts(stream, 4, tally, selected))
    users, times, rows = zip(*parts) if parts else ((), (), ())
    times = _concat(times)
    tally.report(sum(rows))
    return _cascade_table(
        (cascade_id,) if times.size else (),
        np.zeros(times.size, dtype=INDEX),
        *_id_codes(users, times.size),
        times,
    )


def filter_cascades(table: CascadeTable, min_size: int) -> CascadeTable:
    """Keep cascades with at least ``min_size`` participants, order preserved."""
    if min_size < 0:
        raise InputError("min_size must be >= 0")
    return table.select(table.sizes >= min_size)


def compute_stats(network: DirectedGraph, table: CascadeTable) -> DatasetStats:
    """Dataset-level counts over a built follow network and a cascade table.

    ``user_count`` covers every user mentioned in either input (the
    network's nodes plus event users absent from it); ``link_count`` is the
    network's edge count, i.e. distinct non-self-loop follow edges.
    """
    mentioned = np.zeros(len(table.user_ids), dtype=bool)
    mentioned[table.user] = True
    absent = mentioned & (network.indices_of(table.user_ids) < 0)
    count = len(table)
    mean = int(table.sizes.sum()) / count if count else 0.0
    return DatasetStats(
        user_count=network.node_count + np.count_nonzero(absent),
        link_count=network.edge_count,
        cascade_count=count,
        mean_cascade_size=mean,
    )

