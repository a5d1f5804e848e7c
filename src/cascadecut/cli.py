"""Command-line interface.

Subcommands: ``stats``, ``plan``, ``sweep``, ``seeds``, ``scatter``,
``export-dot``, ``gnuplot``.  Options may also come from a flat
``key=value`` config file passed with ``--config``; explicit flags win.

Exit codes: 0 success, 1 input error, 2 eigensolver non-convergence,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .deletion import STRATEGIES, plan_strategy, save_plan
from .diffusion import NON_TREE, VARIANTS, build_variant, to_dot
from .errors import ConvergenceError, InputError, InvariantError, ParseError
from .estimator import read_report_csv
from .graph import build_graph
from .experiment import (
    DEFAULT_FRACTIONS,
    DEFAULT_MAX_SEED_ANALYSIS_SIZE,
    DEFAULT_MIN_CASCADE_SIZE,
    SCATTER_HEADER,
    SEEDS_HEADER,
    ExperimentConfig,
    _write_csv,
    budget_for,
    load_dataset,
    run_sweep,
    scatter_report,
    seed_analysis,
    write_gnuplot_script,
)
from .ingest import compute_stats, filter_cascades, load_cascades, load_follow_edges

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONVERGENCE = 2
EXIT_INVARIANT = 3

_CONFIG_KEYS = {
    "edges", "cascades", "min_size", "strategies", "variants",
    "fractions", "seed", "out", "strict_parse", "threads",
}

# --threads and the config key threads are still accepted and validated so
# that existing scripts and config files keep working; no result depends on them.
_THREADS_HELP = "no effect (accepted for compatibility; must be an integer >= 1)"


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _merge_config(args)
        return args.handler(args, settings)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadecut",
        description="Reconstruct cascade diffusion graphs, delete follow links, estimate the damage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, cascades: bool = True) -> None:
        p.add_argument("--config", type=Path, help="flat key=value config file; flags override it")
        p.add_argument("--edges", type=Path, help="follower edge file (follower<TAB>followee)")
        if cascades:
            p.add_argument("--cascades", type=Path, help="cascade event file (id<TAB>user<TAB>timestamp)")
            p.add_argument("--min-size", type=int, dest="min_size", help="minimum cascade size to keep")
        p.add_argument("--strict-parse", action="store_true", dest="strict_parse", default=None,
                       help="fail on malformed input lines instead of skipping them")

    p_stats = sub.add_parser("stats", help="print dataset statistics")
    add_common(p_stats)
    p_stats.set_defaults(handler=_cmd_stats)

    p_plan = sub.add_parser("plan", help="compute and save a deletion plan")
    add_common(p_plan, cascades=False)
    p_plan.add_argument("--strategy", required=True, choices=STRATEGIES)
    group = p_plan.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="edge budget")
    group.add_argument("--fraction", type=float, help="edge budget as a fraction of |E|")
    p_plan.add_argument("--seed", type=int, help="rng seed (random strategy)")
    p_plan.add_argument("--threads", type=int, help=_THREADS_HELP)
    p_plan.add_argument("--out", type=Path, help="output directory")
    p_plan.set_defaults(handler=_cmd_plan)

    p_sweep = sub.add_parser("sweep", help="run the full budget sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--strategies", help="comma-separated strategy list")
    p_sweep.add_argument("--variants", help="comma-separated variant list")
    p_sweep.add_argument("--fractions", help="comma-separated budget fractions in [0,1]")
    p_sweep.add_argument("--seed", type=int, help="rng seed for the random strategy")
    p_sweep.add_argument("--threads", type=int, help=_THREADS_HELP)
    p_sweep.add_argument("--out", type=Path, help="output directory")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_seeds = sub.add_parser("seeds", help="per-cascade seed counts vs original size")
    add_common(p_seeds)
    p_seeds.add_argument("--max-size", type=int, dest="max_size",
                         default=DEFAULT_MAX_SEED_ANALYSIS_SIZE,
                         help="largest cascade size to include")
    p_seeds.add_argument("--out", type=Path, help="output directory")
    p_seeds.set_defaults(handler=_cmd_seeds)

    p_scatter = sub.add_parser("scatter", help="original vs estimated size per cascade")
    p_scatter.add_argument("--config", type=Path, help="flat key=value config file; flags override it")
    p_scatter.add_argument("--report", type=Path, required=True, help="an estimate report CSV")
    p_scatter.add_argument("--out", type=Path, help="output directory")
    p_scatter.set_defaults(handler=_cmd_scatter)

    p_dot = sub.add_parser("export-dot", help="write one cascade's diffusion graph as DOT")
    add_common(p_dot)
    p_dot.add_argument("--cascade-id", required=True, help="cascade to export")
    p_dot.add_argument("--variant", choices=VARIANTS, default=NON_TREE)
    p_dot.add_argument("--out", type=Path, help="output directory")
    p_dot.set_defaults(handler=_cmd_export_dot)

    p_gp = sub.add_parser("gnuplot", help="emit a gnuplot script for an existing sweep directory")
    p_gp.add_argument("--config", type=Path, help="flat key=value config file; flags override it")
    p_gp.add_argument("--strategies", help="comma-separated strategy list")
    p_gp.add_argument("--variants", help="comma-separated variant list")
    p_gp.add_argument("--out", type=Path, help="sweep output directory containing summary.csv")
    p_gp.set_defaults(handler=_cmd_gnuplot)

    return parser


def read_config_file(path: Path) -> dict[str, str]:
    """Parse a flat key=value file; blank lines and # comments are ignored."""
    values: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"config: cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"config {path}: line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ParseError(f"config {path}: line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _merge_config(args: argparse.Namespace) -> dict[str, str]:
    return read_config_file(args.config) if getattr(args, "config", None) else {}


def _setting(args: argparse.Namespace, settings: dict[str, str], flag: str, key: str, default=None):
    value = getattr(args, flag, None)
    if value is not None:
        return value
    if key in settings:
        return settings[key]
    return default


def _number(value, convert, name: str):
    """``convert(value)``, or an InputError naming the setting it came from."""
    try:
        return convert(value)
    except ValueError:
        raise InputError(f"{name}: expected {convert.__name__}, got {value!r}") from None


def _int_setting(args, settings, flag: str, key: str, default: int) -> int:
    return _number(_setting(args, settings, flag, key, default), int, key)


def _check_threads(args, settings) -> None:
    if _int_setting(args, settings, "threads", "threads", 1) < 1:
        raise InputError("threads must be >= 1")


def _bool_setting(args, settings, flag: str, key: str) -> bool:
    value = getattr(args, flag, None)
    if value:
        return True
    raw = settings.get(key, "")
    return raw.lower() in {"1", "true", "yes", "on"}


def _require_path(value, what: str) -> Path:
    if value is None:
        raise InputError(f"{what} is required (flag or config file)")
    return Path(value)


def _split_list(value) -> tuple[str, ...] | None:
    if value is None:
        return None
    if isinstance(value, tuple):
        return value
    items = tuple(item.strip() for item in str(value).split(",") if item.strip())
    return items or None


def _load_inputs(args, settings, need_cascades: bool = True):
    edges_path = _require_path(_setting(args, settings, "edges", "edges"), "--edges")
    strict = _bool_setting(args, settings, "strict_parse", "strict_parse")
    with open(edges_path, "r", encoding="utf-8") as fh:
        edges = load_follow_edges(fh, strict=strict)
    logs = []
    if need_cascades:
        cascades_path = _require_path(_setting(args, settings, "cascades", "cascades"), "--cascades")
        with open(cascades_path, "r", encoding="utf-8") as fh:
            logs = load_cascades(fh, strict=strict)
    return edges, logs


def _min_size(args, settings) -> int:
    return _int_setting(args, settings, "min_size", "min_size", DEFAULT_MIN_CASCADE_SIZE)


def _out_dir(args, settings) -> Path:
    out = _require_path(_setting(args, settings, "out", "out"), "--out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_stats(args, settings) -> int:
    edges, logs = _load_inputs(args, settings)
    kept = filter_cascades(logs, _min_size(args, settings))
    stats = compute_stats(edges, kept)
    print(f"user_count={stats.user_count}")
    print(f"link_count={stats.link_count}")
    print(f"cascade_count={stats.cascade_count}")
    print(f"mean_cascade_size={stats.mean_cascade_size:.6g}")
    return EXIT_OK


def _cmd_plan(args, settings) -> int:
    _check_threads(args, settings)
    seed = _int_setting(args, settings, "seed", "seed", 0)
    edges, _ = _load_inputs(args, settings, need_cascades=False)
    network = build_graph(edges)
    if args.k is not None:
        k = args.k
    else:
        if not 0.0 <= args.fraction <= 1.0:
            raise InputError("--fraction must lie in [0, 1]")
        k = budget_for(args.fraction, network.edge_count)
    plan = plan_strategy(network, args.strategy, k, rng_seed=seed)
    out = _out_dir(args, settings)
    path = out / f"plan_{args.strategy}.tsv"
    save_plan(plan, path)
    print(path)
    return EXIT_OK


def _cmd_sweep(args, settings) -> int:
    _check_threads(args, settings)
    fractions = _split_list(_setting(args, settings, "fractions", "fractions"))
    fractions = tuple(_number(f, float, "fractions") for f in fractions) if fractions else DEFAULT_FRACTIONS
    config = ExperimentConfig(
        edges_path=_require_path(_setting(args, settings, "edges", "edges"), "--edges"),
        cascades_path=_require_path(_setting(args, settings, "cascades", "cascades"), "--cascades"),
        out_dir=_require_path(_setting(args, settings, "out", "out"), "--out"),
        min_cascade_size=_min_size(args, settings),
        strategies=_split_list(_setting(args, settings, "strategies", "strategies")) or STRATEGIES,
        variants=_split_list(_setting(args, settings, "variants", "variants")) or VARIANTS,
        budget_fractions=fractions,
        rng_seed=_int_setting(args, settings, "seed", "seed", 0),
        strict_parse=_bool_setting(args, settings, "strict_parse", "strict_parse"),
    )
    written = run_sweep(config)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_seeds(args, settings) -> int:
    config = ExperimentConfig(
        edges_path=_require_path(_setting(args, settings, "edges", "edges"), "--edges"),
        cascades_path=_require_path(_setting(args, settings, "cascades", "cascades"), "--cascades"),
        out_dir=_require_path(_setting(args, settings, "out", "out"), "--out"),
        min_cascade_size=_min_size(args, settings),
        strict_parse=_bool_setting(args, settings, "strict_parse", "strict_parse"),
    )
    network, logs = load_dataset(config)
    rows = seed_analysis(network, logs, max_size=args.max_size)
    out = _out_dir(args, settings)
    path = out / "seeds.csv"
    _write_csv(path, SEEDS_HEADER, rows)
    print(path)
    return EXIT_OK


def _cmd_scatter(args, settings) -> int:
    report = read_report_csv(args.report)
    rows = scatter_report(report)
    out = _out_dir(args, settings)
    path = out / f"scatter_{Path(args.report).stem}.csv"
    _write_csv(path, SCATTER_HEADER, rows)
    print(path)
    return EXIT_OK


def _cmd_export_dot(args, settings) -> int:
    edges, logs = _load_inputs(args, settings)
    network = build_graph(edges)
    kept = filter_cascades(logs, _min_size(args, settings))
    by_id = {log.cascade_id: log for log in kept}
    if args.cascade_id not in by_id:
        raise InputError(f"cascade {args.cascade_id!r} not found after filtering")
    dg = build_variant(network, by_id[args.cascade_id], args.variant)
    out = _out_dir(args, settings)
    path = out / f"{args.cascade_id}_{args.variant}.dot"
    path.write_text(to_dot(dg), encoding="utf-8")
    print(path)
    return EXIT_OK


def _cmd_gnuplot(args, settings) -> int:
    out = _out_dir(args, settings)
    if not (out / "summary.csv").exists():
        raise InputError(f"no summary.csv in {out}; run sweep first")
    strategies = _split_list(_setting(args, settings, "strategies", "strategies")) or STRATEGIES
    variants = _split_list(_setting(args, settings, "variants", "variants")) or VARIANTS
    path = write_gnuplot_script(out, strategies, variants)
    print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
