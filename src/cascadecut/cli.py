"""Command-line interface.

Subcommands: ``stats``, ``plan``, ``sweep``, ``seeds``, ``scatter``,
``export-dot``, ``gnuplot``.  Options may also come from a flat
``key=value`` config file passed with ``--config``; explicit flags win.
Each config key is declared once in ``SETTINGS`` with its converter and
default, and a flag's value goes through the same converter as the file's.

Exit codes: 0 success; 1 input error (a command line the parser rejects,
a setting that does not convert, an unreadable or malformed input file);
2 eigensolver non-convergence; 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import gc
import logging
import os
import sys
from functools import partial
from pathlib import Path

from .deletion import STRATEGIES, plan_paths, plan_strategy, save_plan, save_plan_cache
from .diffusion import NON_TREE, VARIANTS, to_dot
from .errors import ConvergenceError, InputError, InvariantError, ParseError
from .estimator import read_report_csv, write_csv
from .experiment import (
    DEFAULT_FRACTIONS,
    DEFAULT_MAX_SEED_ANALYSIS_SIZE,
    DEFAULT_MIN_CASCADE_SIZE,
    SCATTER_HEADER,
    SEEDS_HEADER,
    ExperimentConfig,
    budget_for,
    load_dataset,
    load_network,
    run_sweep,
    seed_analysis,
    write_gnuplot_script,
)
from .ingest import _read_input, compute_stats

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONVERGENCE = 2
EXIT_INVARIANT = 3


def _number(convert, value: str):
    """``convert(value)``; a ValueError says what was expected."""
    try:
        return convert(value)
    except ValueError:
        raise ValueError(f"expected {convert.__name__}, got {value!r}") from None


_int = partial(_number, int)


def _int_at_least(low: int, name: str):
    def convert(value: str) -> int:
        number = _int(value)
        if number < low:
            raise ValueError(f"{name} must be >= {low}, not {number}")
        return number
    return convert


_BOOLS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}


def _bool(value) -> bool:
    try:
        return _BOOLS[str(value).lower()]
    except KeyError:
        raise ValueError(f"expected one of {'/'.join(_BOOLS)}, got {value!r}") from None


def _items(value: str) -> tuple[str, ...]:
    items = tuple(dict.fromkeys(item.strip() for item in value.split(",") if item.strip()))
    if not items:
        raise ValueError(f"expected a non-empty comma-separated list, got {value!r}")
    return items


def _names(known: tuple[str, ...]):
    def convert(value: str) -> tuple[str, ...]:
        names = _items(value)
        unknown = [name for name in names if name not in known]
        if unknown:
            raise ValueError(f"unknown name {unknown[0]!r}; expected some of {known}")
        return names
    return convert


def _floats(value: str) -> tuple[float, ...]:
    return tuple(_number(float, item) for item in _items(value))


def _path(value: str) -> Path:
    if not value:
        raise ValueError("expected a path, got ''")
    return Path(value)


_REQUIRED = object()

# Every config-file key with its converter, default and help.  The flag is
# the key with dashes; its value goes through the same converter as the file's.
SETTINGS = {
    "edges": (_path, _REQUIRED, "follower edge file (follower<TAB>followee)"),
    "cascades": (_path, _REQUIRED, "cascade event file (id<TAB>user<TAB>timestamp)"),
    "out": (_path, _REQUIRED, "output directory"),
    "min_size": (_int, DEFAULT_MIN_CASCADE_SIZE, "minimum cascade size to keep"),
    "strategies": (_names(STRATEGIES), STRATEGIES, "comma-separated strategy list"),
    "variants": (_names(VARIANTS), VARIANTS, "comma-separated variant list"),
    "fractions": (_floats, DEFAULT_FRACTIONS, "comma-separated budget fractions in [0,1]"),
    "seed": (_int_at_least(0, "rng seed"), 0, "rng seed for the random strategy (an integer >= 0)"),
    "strict_parse": (_bool, False, "fail on malformed input lines instead of skipping them"),
    # Accepted and validated only so that existing scripts and config files
    # keep working; no result depends on it.
    "threads": (_int_at_least(1, "threads"), 1, "no effect (accepted for compatibility; must be an integer >= 1)"),
}


def main(argv: list[str] | None = None) -> int:
    # Everything alive now (the imported modules, numpy's above all) lives
    # until the process exits.  Frozen, it is skipped by every later
    # collection, the one at interpreter shutdown included.
    gc.freeze()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _build_parser().parse_args(argv)
        from_file = read_config_file(args.config) if args.config else {}
        return args.handler(args, partial(_resolve, args, from_file))
    except ParseError as exc:
        print(f"error [parse]: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InputError as exc:
        print(f"error [input]: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as exc:
        print(f"error [eigensolver]: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except InvariantError as exc:
        print(f"error [invariant]: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def _resolve(args: argparse.Namespace, from_file: dict[str, str], key: str):
    """The flag if given, else the config file, else the default, converted by SETTINGS."""
    convert, default, _ = SETTINGS[key]
    value = getattr(args, key, None)
    if value is None:
        value = from_file.get(key)
    if value is None:
        if default is _REQUIRED:
            raise InputError(f"{key}: required (flag or config file)")
        return default
    try:
        return convert(value)
    except ValueError as exc:
        raise InputError(f"{key}: {exc}") from None


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line as an input error (exit 1), not argparse's exit 2."""

    def error(self, message: str):
        raise InputError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cascadecut",
        description="Reconstruct cascade diffusion graphs, delete follow links, estimate the damage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str, *keys: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--config", type=Path, help="flat key=value config file; flags override it")
        for key in keys:
            flag = "--" + key.replace("_", "-")
            if key == "strict_parse":
                p.add_argument(flag, action="store_true", default=None, help=SETTINGS[key][2])
            else:
                p.add_argument(flag, help=SETTINGS[key][2])
        return p

    dataset = ("edges", "cascades", "min_size", "strict_parse")
    command("stats", _cmd_stats, "print dataset statistics", *dataset)

    p_plan = command("plan", _cmd_plan, "compute a deletion plan; save it as text and as a sweep's plan cache",
                     "edges", "strict_parse", "seed", "threads", "out")
    p_plan.add_argument("--strategy", required=True, choices=STRATEGIES)
    group = p_plan.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="edge budget")
    group.add_argument("--fraction", type=float, help="edge budget as a fraction of |E|")

    command("sweep", _cmd_sweep, "run the full budget sweep",
            *dataset, "strategies", "variants", "fractions", "seed", "threads", "out")

    p_seeds = command("seeds", _cmd_seeds, "per-cascade seed counts vs original size", *dataset, "out")
    p_seeds.add_argument("--max-size", type=int, default=DEFAULT_MAX_SEED_ANALYSIS_SIZE,
                         help="largest cascade size to include")

    p_scatter = command("scatter", _cmd_scatter, "original vs estimated size per cascade", "out")
    p_scatter.add_argument("--report", type=Path, required=True, help="an estimate report CSV")

    p_dot = command("export-dot", _cmd_export_dot, "write one cascade's diffusion graph as DOT", *dataset, "out")
    p_dot.add_argument("--cascade-id", required=True, help="cascade to export")
    p_dot.add_argument("--variant", choices=VARIANTS, default=NON_TREE)

    command("gnuplot", _cmd_gnuplot, "emit a gnuplot script for an existing sweep directory",
            "strategies", "variants", "out")
    return parser


def read_config_file(path: Path) -> dict[str, str]:
    """Parse a flat key=value file; blank lines and # comments are ignored.

    An unknown or repeated key is a :class:`ParseError`.  As for every input
    file (see :func:`~cascadecut.ingest._read_input`), an unreadable file is
    an :class:`InputError` and text that is not UTF-8 a :class:`ParseError`.
    """
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    text = _read_input(path, "config", lambda fh: fh.read())
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"config {path}: line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in SETTINGS:
            raise ParseError(f"config {path}: line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ParseError(f"config {path}: line {lineno}: key {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
        values[key] = value.strip()
    return values


def _dataset(setting, out_dir: Path, **sweep) -> ExperimentConfig:
    """The dataset settings as an ExperimentConfig; ``sweep`` adds the sweep's own."""
    return ExperimentConfig(
        edges_path=setting("edges"),
        cascades_path=setting("cascades"),
        out_dir=out_dir,
        min_cascade_size=setting("min_size"),
        strict_parse=setting("strict_parse"),
        **sweep,
    )


def _out_dir(setting) -> Path:
    out = setting("out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_stats(args, setting) -> int:
    # stats writes nothing, so the output directory is never read.
    network, kept = load_dataset(_dataset(setting, out_dir=Path()))
    stats = compute_stats(network, kept)
    print(f"user_count={stats.user_count}")
    print(f"link_count={stats.link_count}")
    print(f"cascade_count={stats.cascade_count}")
    print(f"mean_cascade_size={stats.mean_cascade_size:.6g}")
    return EXIT_OK


def _cmd_plan(args, setting) -> int:
    setting("threads")  # validated only
    seed = setting("seed")
    # The budget is checked before the edge file is read.
    if args.k is not None and args.k < 0:
        raise InputError("deletion budget k must be >= 0")
    if args.k is None and not 0.0 <= args.fraction <= 1.0:
        raise InputError("--fraction must lie in [0, 1]")
    network = load_network(setting("edges"), setting("strict_parse"))
    k = args.k if args.k is not None else budget_for(args.fraction, network.edge_count)
    plan = plan_strategy(network, args.strategy, k, rng_seed=seed)
    # The text file is the export; a sweep into the same directory reuses the cache.
    cache, text = plan_paths(_out_dir(setting), args.strategy)
    save_plan(plan, text)
    save_plan_cache(plan, cache)
    print(text)
    print(cache)
    return EXIT_OK


def _cmd_sweep(args, setting) -> int:
    setting("threads")  # validated only
    config = _dataset(
        setting,
        out_dir=setting("out"),
        strategies=setting("strategies"),
        variants=setting("variants"),
        budget_fractions=setting("fractions"),
        rng_seed=setting("seed"),
    )
    written = run_sweep(config)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_seeds(args, setting) -> int:
    config = _dataset(setting, out_dir=setting("out"))
    if args.max_size < 0:  # checked before any input is read
        raise InputError(f"max_size must be >= 0, not {args.max_size}")
    network, kept = load_dataset(config)
    rows = seed_analysis(network, kept, max_size=args.max_size)
    path = _out_dir(setting) / "seeds.csv"
    write_csv(path, SEEDS_HEADER, rows)
    print(path)
    return EXIT_OK


def _cmd_scatter(args, setting) -> int:
    report = read_report_csv(args.report)
    rows = zip(report.cascade_ids, report.original_sizes.tolist(), report.estimated_sizes.tolist())
    path = _out_dir(setting) / f"scatter_{Path(args.report).stem}.csv"
    write_csv(path, SCATTER_HEADER, rows)
    print(path)
    return EXIT_OK


def _cmd_export_dot(args, setting) -> int:
    # The cascade id becomes a file name inside --out, so it must not name
    # another directory.
    cascade_id = args.cascade_id
    separators = {"/", os.sep, os.altsep, "\0"} - {None}
    if cascade_id in ("", ".", "..") or any(sep in cascade_id for sep in separators):
        raise InputError(f"cascade id {cascade_id!r} cannot be used as a file name")
    network, kept = load_dataset(_dataset(setting, out_dir=setting("out")))
    chosen = [cid == cascade_id for cid in kept.cascade_ids]
    if not any(chosen):
        raise InputError(f"cascade {cascade_id!r} not found after filtering")
    text = to_dot(network, kept.select(chosen), args.variant)
    path = _out_dir(setting) / f"{cascade_id}_{args.variant}.dot"
    path.write_text(text, encoding="utf-8")
    print(path)
    return EXIT_OK


def _cmd_gnuplot(args, setting) -> int:
    strategies, variants = setting("strategies"), setting("variants")
    out = setting("out")
    if not (out / "summary.csv").exists():
        raise InputError(f"no summary.csv in {out}; run sweep first")
    path = write_gnuplot_script(out, strategies, variants)
    print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
