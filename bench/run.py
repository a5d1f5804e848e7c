"""Benchmark runner for the ``cascadecut sweep`` pipeline.

Usage::

    python3 bench/run.py --workload {grid,wide} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --record-reference

Run from a checkout: the program is imported from ``src/`` next to this
directory, and inputs, outputs and results go under ``.bench_work/``.

Each workload is a closed loop with one client: one sweep starts after the
previous one has finished.  Inputs come from ``gen.py`` and the seed;
generating them is never timed.  Every sweep is a fresh process writing
into a fresh, empty output directory, and its outputs are checked
(``check.py``); a sweep fails when it exits non-zero or a check fails.
Each run starts with an untimed warm-up sweep on the reference seed's
inputs, whose outputs must match ``reference.json`` byte for byte.

``--trace 0`` reports the end-to-end metrics: median sweep wall time,
median set-up time (a fresh process importing ``cascadecut`` and returning
from ``experiment.load_dataset``), estimates per second and peak RSS.
``--trace 1`` alternates untraced sweeps with traced ones (``tracer.py``)
and reports the per-layer metrics; the traced outputs must be
byte-identical to the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
import gen
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
REFERENCE_SEED = 0
MIN_SAMPLES = 3
SETUPS_PER_SWEEP = 2

# The installed console script `cascadecut` is `cascadecut.cli:main`.
ENTRY = "import sys; from cascadecut.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP = """\
import json, os, sys
from cascadecut import experiment
options = dict(edges_path=sys.argv[1], cascades_path=sys.argv[2], out_dir=sys.argv[3])
if len(sys.argv) > 4:
    options["min_cascade_size"] = int(sys.argv[4])
network, logs = experiment.load_dataset(experiment.ExperimentConfig(**options))
print(json.dumps([experiment.__file__, network.node_count, network.edge_count, len(logs)]), flush=True)
os._exit(0)
"""

E2E_UNITS = {"sweep_s": "s", "setup_s": "s", "cascade_estimates_per_s": "1/s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def sweep_options(workload: gen.Workload) -> dict[str, str]:
    return dict(zip(workload.sweep_args[::2], workload.sweep_args[1::2]))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def ensure_inputs(workload: gen.Workload, seed: int) -> Path:
    """Generated inputs for (workload, seed), cached under .bench_work."""
    # The key covers the spec and the generator, so editing either regenerates.
    key = hashlib.sha256(repr(workload.spec).encode() + Path(gen.__file__).read_bytes()).hexdigest()[:12]
    dest = WORK / "inputs" / f"{workload.name}-{seed}-{key}"
    if not (dest / "inputs.json").is_file():
        tmp = dest.with_name(dest.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        gen.generate(workload.name, workload.spec, seed, tmp)
        for path in tmp.iterdir():  # write back now, not during the timed sweeps
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())
        shutil.rmtree(dest, ignore_errors=True)
        tmp.rename(dest)
    return dest


def fresh_out_dir(path: Path) -> Path:
    """Refuse an output directory that already holds files.

    ``sweep`` silently reuses ``plan_*.tsv`` from an existing output
    directory, even one written for another dataset, so a reused directory
    would time a different program and could hide wrong numbers.
    """
    if path.exists() and any(path.iterdir()):
        raise BenchError(f"output directory {path} is not empty")
    return path


def timed_setup(workload: gen.Workload, inputs: Path) -> tuple[float, list, int]:
    """Wall time until a fresh process has returned from load_dataset.

    Also returns what the process printed (the module path and the loaded
    counts) and its exit code.
    """
    cmd = [sys.executable, "-c", SETUP, str(inputs / "edges.tsv"), str(inputs / "cascades.tsv"),
           str(WORK / "unused-out")]
    if "--min-size" in sweep_options(workload):
        cmd.append(sweep_options(workload)["--min-size"])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env(), cwd=WORK)
    with proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    try:
        printed = json.loads(line)
    except ValueError:
        printed = []
    return elapsed, printed, proc.returncode


def timed_sweep(cmd: list[str], log: Path) -> tuple[int, float, float]:
    """Run one sweep process; (exit code, wall seconds, peak RSS MiB)."""
    with open(log, "wb") as log_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log_fh, stderr=subprocess.STDOUT, env=child_env(), cwd=WORK)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


class Runner:
    def __init__(self, workload: gen.Workload, seed: int, inputs: Path, tag: str = ""):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.attempted = 0
        self.failures: list[str] = []
        self.runs = 0
        self.loaded: list[int] = []  # graph nodes, graph edges, cascades kept
        self.first_digests: dict[str, str] = {}
        self.run_dir = WORK / "runs" / f"{workload.name}-seed{seed}{tag}"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        opts = sweep_options(workload)
        self.strategies = tuple(opts["--strategies"].split(","))
        self.variants = tuple(opts["--variants"].split(","))
        self.fraction_count = len(opts["--fractions"].split(",")) if "--fractions" in opts else 10
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        entry = reference.get(workload.name, {})
        self.reference = entry.get("files") if entry.get("seed") == seed else None

    def sweep_argv(self, out_dir: Path) -> list[str]:
        return ["sweep", "--edges", str(self.inputs / "edges.tsv"), "--cascades",
                str(self.inputs / "cascades.tsv"), "--out", str(out_dir), *self.workload.sweep_args]

    def sweep(self, traced: bool = False) -> dict:
        """One sweep in a fresh process, checked; returns its sample."""
        self.runs += 1
        out = fresh_out_dir(self.run_dir / f"out-{self.runs}")
        argv = self.sweep_argv(out)
        trace_path = self.run_dir / f"trace-{self.runs}.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(trace_path), *argv]
        else:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        rc, wall, rss = timed_sweep(cmd, self.run_dir / f"sweep-{self.runs}.log")
        self.attempted += 1
        sample = {"wall_s": wall, "rss_mb": rss, "estimates": 0}
        problems = [f"sweep exited with {rc}"] if rc != 0 else []
        if not problems:
            try:
                found, sample["estimates"] = check.check_outputs(
                    out, self.strategies, self.variants, self.fraction_count, self.reference)
                problems += found
                # Every sweep of a run, traced or not, must leave the same bytes.
                digests = check.digests(out)
                self.first_digests = self.first_digests or digests
                if digests != self.first_digests:
                    problems.append("outputs differ from the first sweep of this run")
            except (OSError, ValueError) as exc:
                problems.append(f"unreadable output: {exc}")
        if traced and rc == 0:
            sample["trace"] = json.loads(trace_path.read_text())
            sample["wall_s"] = wall - sample["trace"]["extras_s"]
        if problems:
            self.failures.append(f"{'traced ' if traced else ''}sweep {self.runs}: " + "; ".join(problems[:5]))
        shutil.rmtree(out, ignore_errors=True)
        return sample

    def setup(self) -> float:
        self.attempted += 1
        elapsed, _, rc = timed_setup(self.workload, self.inputs)
        if rc != 0:
            self.failures.append(f"set-up exited with {rc}")
        return elapsed


def next_fits(start: float, seconds: float, rounds: int, min_rounds: int) -> bool:
    """Start another round if it should end within the run's seconds.

    A round is assumed to take as long as the average one so far, so the
    run does not overshoot its time by a whole round.
    """
    elapsed = time.perf_counter() - start
    return rounds < min_rounds or elapsed + elapsed / rounds <= seconds


def run_untraced(runner: Runner, seconds: float) -> tuple[dict[str, float], dict]:
    setups, sweeps = [], []
    start = time.perf_counter()
    while next_fits(start, seconds, len(sweeps), MIN_SAMPLES):
        setups += [runner.setup() for _ in range(SETUPS_PER_SWEEP)]
        sweeps.append(runner.sweep())
    walls = [s["wall_s"] for s in sweeps]
    sweep_s = statistics.median(walls)
    metrics = {
        "sweep_s": sweep_s,
        "setup_s": statistics.median(setups),
        "cascade_estimates_per_s": statistics.median(s["estimates"] for s in sweeps) / sweep_s,
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in sweeps),
    }
    return metrics, {"sweep_samples_s": walls, "setup_samples_s": setups}


def run_traced(runner: Runner, seconds: float) -> tuple[dict[str, float], dict]:
    plain, traced = [], []
    start = time.perf_counter()
    while next_fits(start, seconds, len(traced), 1):
        plain.append(runner.sweep())
        traced.append(runner.sweep(traced=True))
    good = [s for s in traced if "trace" in s]
    if not good:
        raise BenchError("no traced sweep succeeded: " + "; ".join(runner.failures[:3]))
    metrics = {name: statistics.median(s["trace"]["metrics"].get(name, 0.0) for s in good)
               for name in tracer.UNITS}
    plain_s = statistics.median(s["wall_s"] for s in plain)
    traced_s = statistics.median(s["wall_s"] for s in good)
    metrics["tracing.overhead_s"] = traced_s - plain_s
    metrics["cli.self_s"] = statistics.median(
        s["wall_s"] - s["trace"]["metrics"]["experiment.run_sweep_s"] for s in good)
    info = {"missing": good[0]["trace"]["missing"], "unavailable": good[0]["trace"]["unavailable"],
            "untraced_sweep_s": plain_s, "traced_sweep_s": traced_s}
    return metrics, info


def rationale(workload: str, m: dict[str, float]) -> str:
    """The traced evidence for why the workload was chosen."""
    layers = {layer: m[f"{layer}.self_s"] for layer in ("ingest", "graph", "diffusion", "deletion",
                                                          "estimator", "experiment")}
    if workload == "grid":
        top = max(layers, key=layers.get)
        return f"largest layer by self time: {top} ({layers[top]:.3f} s); expected estimator"
    load = m["ingest.self_s"] + m["graph.build_graph_s"]
    others = {k: v for k, v in layers.items() if k != "ingest"}
    others["graph"] -= m["graph.build_graph_s"]
    top = max(others, key=others.get)
    return (f"ingest + graph.build_graph = {load:.3f} s; next largest: {top} {others[top]:.3f} s; "
            f"expected ingest + build_graph largest")


def provenance(workload: gen.Workload, seed: int, inputs: Path, runner: Runner) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "cascadecut").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    nodes, edges, kept = runner.loaded
    return {
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "seed": seed,
        "inputs": {**json.loads((inputs / "inputs.json").read_text()),
                   "graph_nodes": nodes, "graph_edges": edges, "cascades_kept": kept},
    }


def record_reference() -> int:
    """Write reference digests of every workload's outputs at REFERENCE_SEED."""
    reference = {}
    for name, workload in gen.WORKLOADS.items():
        runner = Runner(workload, REFERENCE_SEED, ensure_inputs(workload, REFERENCE_SEED))
        runner.reference = None
        runner.sweep()
        if runner.failures:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        files = {k: v for k, v in runner.first_digests.items() if check.is_result_file(k)}
        reference[name] = {"seed": REFERENCE_SEED, "files": files}
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(REFERENCE)
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "cascadecut" / "__init__.py").is_file():
        print(f"error: no cascadecut package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")

    workload = gen.WORKLOADS[args.workload]
    reference_run = Runner(workload, REFERENCE_SEED, ensure_inputs(workload, REFERENCE_SEED), "-reference")
    inputs = ensure_inputs(workload, args.seed)
    runner = Runner(workload, args.seed, inputs)
    try:
        _, printed, rc = timed_setup(workload, inputs)
        if rc != 0 or len(printed) != 4:
            raise BenchError(f"set-up process exited with {rc}")
        loaded_from, *runner.loaded = printed
        if SRC not in Path(loaded_from).parents:
            raise BenchError(f"cascadecut was imported from {loaded_from}, not from {SRC}")
        if reference_run.reference is None:
            raise BenchError(f"{REFERENCE} has no digests for {workload.name} at seed {REFERENCE_SEED}")
        # Warm-up, untimed: byte-compiles the package, and checks the outputs
        # at the reference seed whatever seed this run times.
        reference_run.sweep()
        runner.attempted += reference_run.attempted
        runner.failures += [f"reference {failure}" for failure in reference_run.failures]
        if args.trace:
            metrics, info = run_traced(runner, args.seconds)
            units = tracer.UNITS
        else:
            metrics, info = run_untraced(runner, args.seconds)
            units = E2E_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    prov = provenance(workload, args.seed, inputs, runner)
    failed = len(runner.failures)
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(f"failed_share: {failed}/{runner.attempted} = {failed / runner.attempted:.4f}")
    if args.trace:
        print(f"rationale ({workload.name}): {rationale(workload.name, metrics)}")
        for key in ("missing", "unavailable"):
            if info[key]:
                print(f"{key}: {', '.join(info[key])} (reported as 0)")
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:>16.6f} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in sorted(metrics)},
    }
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "failures": runner.failures, **info, **result}, indent=2) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
