"""Seeded synthetic inputs for the benchmark workloads.

Each workload is a follow network plus a cascade event log in the
canonical tab-separated formats, made only from the workload spec and the
seed: the same (spec, seed) always gives byte-identical files.

* Followee popularity is Zipf-like (weight ~ rank^-alpha), follower
  activity milder, so in-degrees are heavy-tailed.
* Cascades spread along follower lists from a popularity-weighted start,
  each infection strictly later than its source, except a small share at
  the same timestamp (which the program must not turn into an edge).
* Cascades also get outside seeds (random users with no spreading parent),
  a few users absent from the network, and a few repeated later events
  for a user (the earliest must win).

Cascade sizes are a fixed log-spaced grid shuffled by the seed, so every
seed gives the same total amount of work.

Run ``python3 bench/gen.py WORKLOAD SEED DEST`` to write the files.
"""

from __future__ import annotations

import heapq
import json
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BASE_TIME = 1_341_100_000
OUTSIDE_SEED_RATE = 0.03  # chance the next infection is a random user with no spreading parent
SAME_TIME_RATE = 0.05  # chance an infection has its source's timestamp
MISSING_USER_RATE = 0.05  # chance a cascade gets an event for a user absent from the network
REPEAT_EVENT_RATE = 0.01  # chance a user gets a second, later event in the same cascade


@dataclass(frozen=True)
class Spec:
    users: int
    edge_lines: int
    cascades: int
    min_cascade: int
    max_cascade: int
    small_cascades: int = 0  # extra cascades below the sweep's --min-size
    small_max: int = 0
    spread_p: float = 0.1
    popularity_alpha: float = 0.9
    activity_alpha: float = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: Spec
    sweep_args: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid",
            "few large cascades over a 10-point budget grid, two strategies and two variants: "
            "estimator work repeated per budget point dominates",
            Spec(users=15_000, edge_lines=120_000, cascades=40, min_cascade=100, max_cascade=800,
                 small_cascades=8, small_max=99, spread_p=0.08),
            ("--strategies", "netmelt,random", "--variants", "non-tree,tree-last", "--threads", "1"),
        ),
        Workload(
            "wide",
            "large network, thousands of small cascades, one budget: ingest, build_graph and "
            "per-cascade diffusion set-up dominate",
            Spec(users=24_000, edge_lines=240_000, cascades=3_200, min_cascade=5, max_cascade=60,
                 small_cascades=320, small_max=4, spread_p=0.08),
            ("--min-size", "5", "--strategies", "netmelt", "--variants", "tree-first",
             "--fractions", "0.1", "--threads", "1"),
        ),
    )
}


def cascade_sizes(spec: Spec, rng: np.random.Generator) -> np.ndarray:
    grid = np.geomspace(spec.min_cascade, spec.max_cascade, spec.cascades)
    sizes = np.rint(grid).astype(np.int64)
    if spec.small_cascades:
        small = np.linspace(2, spec.small_max, spec.small_cascades)
        sizes = np.concatenate((sizes, np.rint(small).astype(np.int64)))
    return rng.permutation(sizes)


def generate(name: str, spec: Spec, seed: int, dest: Path) -> dict:
    """Write ``edges.tsv`` and ``cascades.tsv`` under ``dest``; return counts."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    n = spec.users
    # Distinct ids of mixed digit length, so string order differs from
    # numeric order, assigned in random order.
    ids = (100_000 + np.cumsum(rng.integers(1, 60, n))).astype(str)
    ids = ids[rng.permutation(n)]

    popularity = _zipf_weights(rng, n, spec.popularity_alpha)
    activity = _zipf_weights(rng, n, spec.activity_alpha)
    followers = rng.choice(n, spec.edge_lines, p=activity)
    followees = rng.choice(n, spec.edge_lines, p=popularity)

    by_followee = np.argsort(followees, kind="stable")
    follower_lists = followers[by_followee]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(followees, minlength=n), out=indptr[1:])

    events: list[tuple[int, str, str]] = []
    missing = 0
    for c, size in enumerate(cascade_sizes(spec, rng).tolist()):
        cid = f"c{c:05d}"
        t0 = BASE_TIME + int(rng.integers(0, 86_400))
        infected = _spread(rng, spec, int(size), t0, popularity, indptr, follower_lists)
        for user, ts in infected.items():
            events.append((ts, cid, ids[user]))
            if rng.random() < REPEAT_EVENT_RATE:
                events.append((ts + int(rng.integers(1, 3_600)), cid, ids[user]))
        if rng.random() < MISSING_USER_RATE:
            events.append((t0 + int(rng.integers(0, 3_600)), cid, f"9{int(rng.integers(10**9)):09d}"))
            missing += 1
    events.sort()

    dest.mkdir(parents=True, exist_ok=True)
    edge_text = "".join(f"{ids[a]}\t{ids[b]}\n" for a, b in zip(followers.tolist(), followees.tolist()))
    (dest / "edges.tsv").write_text(edge_text, encoding="utf-8")
    event_text = "".join(f"{cid}\t{user}\t{ts}\n" for ts, cid, user in events)
    (dest / "cascades.tsv").write_text(event_text, encoding="utf-8")
    counts = {
        "users": n,
        "edge_lines": spec.edge_lines,
        "event_lines": len(events),
        "cascades": spec.cascades + spec.small_cascades,
        "missing_user_events": missing,
    }
    (dest / "inputs.json").write_text(json.dumps(counts, sort_keys=True) + "\n", encoding="utf-8")
    return counts


def _zipf_weights(rng: np.random.Generator, n: int, alpha: float) -> np.ndarray:
    weights = (rng.permutation(n) + 1.0) ** -alpha
    return weights / weights.sum()


def _spread(rng, spec: Spec, size: int, t0: int, popularity, indptr, follower_lists) -> dict[int, int]:
    """Simulate one cascade in time order; returns user index -> timestamp."""
    n = popularity.size
    infected: dict[int, int] = {}
    heap: list[tuple[int, int]] = []

    def infect(user: int, ts: int) -> None:
        infected[user] = ts
        heapq.heappush(heap, (ts, user))

    infect(int(rng.choice(n, p=popularity)), t0)
    last = t0
    while len(infected) < size:
        if not heap or rng.random() < OUTSIDE_SEED_RATE:
            user = int(rng.integers(n))
            if user not in infected:
                infect(user, last + int(rng.integers(1, 600)))
            continue
        ts, source = heapq.heappop(heap)
        last = ts
        audience = follower_lists[indptr[source]:indptr[source + 1]]
        reached = audience[rng.random(audience.size) < spec.spread_p]
        for user in reached.tolist():
            if user in infected:
                continue
            delay = 0 if rng.random() < SAME_TIME_RATE else 1 + int(rng.geometric(1 / 300))
            infect(user, ts + delay)
            if len(infected) >= size:
                break
    return infected


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in WORKLOADS:
        print(f"usage: gen.py {{{','.join(WORKLOADS)}}} SEED DEST", file=sys.stderr)
        return 2
    name, seed, dest = argv[0], int(argv[1]), Path(argv[2])
    print(json.dumps(generate(name, WORKLOADS[name].spec, seed, dest), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
