"""The benchmark's recorded output digests, checked by the suite.

For each benchmark workload this generates the inputs at the reference
seed, runs its sweep in process, and compares the report and summary
digests with ``bench/reference.json``.  The benchmark's warm-up makes the
same check; here output drift fails a test instead of a benchmark run.  A
copy of the inputs whose ids are names, not decimals, must give the same
digests.  ``bench/`` is only read.
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


def sweep_digests(name: str, inputs: Path, out: Path) -> dict[str, str]:
    """The result digests of the workload's sweep over ``inputs``."""
    code = main(
        [
            "sweep",
            "--edges", str(inputs / "edges.tsv"),
            "--cascades", str(inputs / "cascades.tsv"),
            "--out", str(out),
            *gen.WORKLOADS[name].sweep_args,
        ]
    )
    assert code == EXIT_OK
    return check.result_digests(out)


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_sweep_matches_the_reference_digests(tmp_path, name):
    reference = REFERENCE[name]
    inputs = tmp_path / "inputs"
    gen.generate(name, gen.WORKLOADS[name].spec, reference["seed"], inputs)
    assert sweep_digests(name, inputs, tmp_path / "out") == reference["files"]


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_named_ids_give_the_decimal_digests(tmp_path, name):
    # With "u" before every edge id and event user the ids are read,
    # ranked and looked up as strings, in the same text order; the reports
    # carry no user id, so every byte stays the same.
    reference = REFERENCE[name]
    inputs, named = tmp_path / "inputs", tmp_path / "named"
    gen.generate(name, gen.WORKLOADS[name].spec, reference["seed"], inputs)
    named.mkdir()
    for file, columns in (("edges.tsv", (0, 1)), ("cascades.tsv", (1,))):
        rows = [line.split("\t") for line in (inputs / file).read_text(encoding="utf-8").splitlines()]
        for row in rows:
            for column in columns:
                row[column] = "u" + row[column]
        (named / file).write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
    assert sweep_digests(name, named, tmp_path / "out") == reference["files"]
