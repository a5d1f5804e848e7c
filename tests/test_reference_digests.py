"""The benchmark's recorded output digests, checked by the suite.

For each benchmark workload this generates the inputs at the reference
seed, runs its sweep in process, and compares the report and summary
digests with ``bench/reference.json``.  The benchmark's warm-up makes the
same check; here output drift fails a test instead of a benchmark run.
``bench/`` is only read.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from cascadecut.cli import EXIT_OK, main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_by_path(name: str):
    """The module ``bench/<name>.py``, imported under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


gen, check = load_by_path("gen"), load_by_path("check")
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_sweep_matches_the_reference_digests(tmp_path, name):
    workload, reference = gen.WORKLOADS[name], REFERENCE[name]
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    gen.generate(name, workload.spec, reference["seed"], inputs)
    code = main(
        [
            "sweep",
            "--edges", str(inputs / "edges.tsv"),
            "--cascades", str(inputs / "cascades.tsv"),
            "--out", str(out),
            *workload.sweep_args,
        ]
    )
    assert code == EXIT_OK
    assert check.result_digests(out) == reference["files"]
