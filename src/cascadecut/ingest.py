"""Parsers for follower networks and cascade event logs.

Canonical file formats (UTF-8, one record per line, ``#`` comments allowed):

* follow edges:  ``follower<TAB>followee``
* cascade events: ``cascade_id<TAB>user_id<TAB>timestamp``

Timestamps are integer time units (epoch seconds for the bundled adapters).
Fields may in practice be separated by any whitespace run, which lets the
publicly distributed follower edge lists (space-separated) load unchanged.

Heterogeneous upstream dumps are normalised to these two formats at the
boundary; :func:`load_higgs_activity` is the adapter for the one public
activity log that ships in a four-column layout.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import InputError, ParseError
from .graph import DirectedGraph

logger = logging.getLogger(__name__)


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


@dataclass(frozen=True)
class DatasetStats:
    """Headline counts for one dataset."""

    user_count: int
    link_count: int
    cascade_count: int
    mean_cascade_size: float


def _scan(stream: Iterable[str], width: int, kind: str, strict: bool) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each record line with ``width`` fields.

    Blank lines and ``#`` comments are skipped.  Lines with another field
    count are skipped and counted, with one WARNING naming the first once the
    stream is exhausted; with ``strict`` the first raises :class:`ParseError`.
    """
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
        yield lineno, fields
    if malformed:
        logger.warning("skipped %d malformed %s line(s); first: %s", malformed, kind, first_bad)


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


def _timestamp(lineno: int, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"line {lineno}: invalid timestamp {text!r}") from None


def load_cascades(stream: Iterable[str], strict: bool = False) -> list[CascadeLog]:
    """Read cascade events grouped by cascade id (first-appearance order).

    Duplicate events for a user within a cascade keep the earliest
    timestamp.  A non-integer timestamp is always a :class:`ParseError`;
    lines with the wrong field count follow the strict/skip rule of
    :func:`load_follow_edges`.
    """
    grouped: dict[str, list[tuple[str, int]]] = {}
    for lineno, (cascade_id, user, ts_text) in _scan(stream, 3, "event", strict):
        grouped.setdefault(cascade_id, []).append((user, _timestamp(lineno, ts_text)))
    return [CascadeLog.from_events(cid, events) for cid, events in grouped.items()]


def load_higgs_activity(
    stream: Iterable[str],
    cascade_id: str = "higgs",
    interactions: frozenset[str] = frozenset({"RT"}),
    strict: bool = False,
) -> list[CascadeLog]:
    """Adapter for the public four-column activity log.

    Lines read ``acting_user source_user timestamp kind``; every selected
    row becomes an event for the acting user, and the whole file is one
    cascade.  ``interactions`` picks the row kinds to keep (retweets by
    default); pass ``frozenset()`` to keep everything.
    """
    events = [
        (user, _timestamp(lineno, ts_text))
        for lineno, (user, _, ts_text, kind) in _scan(stream, 4, "activity", strict)
        if not interactions or kind in interactions
    ]
    if not events:
        return []
    return [CascadeLog.from_events(cascade_id, events)]


def filter_cascades(logs: list[CascadeLog], min_size: int) -> list[CascadeLog]:
    """Keep cascades with at least ``min_size`` participants, order preserved."""
    if min_size < 0:
        raise InputError("min_size must be >= 0")
    return [log for log in logs if log.size >= min_size]


def compute_stats(network: DirectedGraph, logs: list[CascadeLog]) -> DatasetStats:
    """Dataset-level counts over a built follow network and cascade logs.

    ``user_count`` covers every user mentioned in either input (the
    network's nodes plus event users absent from it); ``link_count`` is the
    network's edge count, i.e. distinct non-self-loop follow edges.
    """
    absent = {user for log in logs for user in log.users() if not network.has_node(user)}
    count = len(logs)
    mean = sum(log.size for log in logs) / count if count else 0.0
    return DatasetStats(
        user_count=network.node_count + len(absent),
        link_count=network.edge_count,
        cascade_count=count,
        mean_cascade_size=mean,
    )


def dump_follow_edges(edges: list[tuple[str, str]]) -> str:
    """Serialise edges back to the canonical tab-separated text."""
    return "".join(f"{src}\t{dst}\n" for src, dst in edges)


def dump_cascades(logs: list[CascadeLog]) -> str:
    """Serialise cascade logs back to the canonical tab-separated text."""
    lines: list[str] = []
    for log in logs:
        for user, ts in log.events:
            lines.append(f"{log.cascade_id}\t{user}\t{ts}\n")
    return "".join(lines)
