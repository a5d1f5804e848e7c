"""Command-line interface tests: subcommands, config files, exit codes."""

from __future__ import annotations

import logging
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cascadecut import (
    DeletionPlan,
    ExperimentConfig,
    InputError,
    InvariantError,
    ParseError,
    STRATEGIES,
    read_plan_cache,
    read_report_csv,
)
from cascadecut.cli import (
    EXIT_CONVERGENCE,
    EXIT_INPUT,
    EXIT_INVARIANT,
    EXIT_OK,
    SETTINGS,
    main,
    read_config_file,
)
from cascadecut.experiment import load_dataset, load_network
from conftest import assert_same_graph, assert_same_table, write_eight_node_dataset
from oracles import random_digraph, string_plan, string_save_plan


@pytest.fixture
def dataset(tmp_path):
    return write_eight_node_dataset(tmp_path)


class TestStats:
    def test_prints_counts(self, dataset, capsys):
        edges_path, cascades_path = dataset
        code = main(
            ["stats", "--edges", str(edges_path), "--cascades", str(cascades_path), "--min-size", "0"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "user_count=8" in out
        assert "link_count=8" in out
        assert "cascade_count=1" in out
        assert "mean_cascade_size=8" in out

    def test_min_size_filter_applies(self, dataset, capsys):
        edges_path, cascades_path = dataset
        main(["stats", "--edges", str(edges_path), "--cascades", str(cascades_path)])
        out = capsys.readouterr().out
        assert "cascade_count=0" in out  # default min size 100 drops the cascade

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["stats", "--edges", str(tmp_path / "nope.tsv"), "--cascades", str(tmp_path / "c")])
        assert code == EXIT_INPUT
        assert "error" in capsys.readouterr().err


class TestSweep:
    def test_end_to_end(self, dataset, tmp_path, capsys):
        edges_path, cascades_path = dataset
        out = tmp_path / "out"
        code = main(
            [
                "sweep",
                "--edges", str(edges_path),
                "--cascades", str(cascades_path),
                "--min-size", "0",
                "--strategies", "edge-degree,random",
                "--variants", "non-tree,tree-last",
                "--fractions", "0,0.25,1",
                "--seed", "4",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert (out / "summary.csv").exists()
        assert (out / "plan_edge-degree.npz").exists()
        assert (out / "report_random_tree-last_0.25.csv").exists()
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 2 * 2 * 3

    def test_config_file_with_flag_override(self, dataset, tmp_path, capsys):
        edges_path, cascades_path = dataset
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "# sweep configuration",
                    f"edges={edges_path}",
                    f"cascades={cascades_path}",
                    "min_size=0",
                    "strategies=random",
                    "variants=non-tree",
                    "fractions=0,1",
                    "seed=9",
                    f"out={tmp_path / 'cfg-out'}",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "flag-out")])
        assert code == EXIT_OK
        assert (tmp_path / "flag-out" / "summary.csv").exists()
        assert not (tmp_path / "cfg-out").exists()

    def test_strict_parse_failure_exits_1(self, tmp_path, capsys):
        edges_path = tmp_path / "edges.tsv"
        edges_path.write_text("a\tb\nbroken-line\n", encoding="utf-8")
        cascades_path = tmp_path / "cascades.tsv"
        cascades_path.write_text("t\ta\t1\n", encoding="utf-8")
        code = main(
            [
                "sweep",
                "--edges", str(edges_path),
                "--cascades", str(cascades_path),
                "--min-size", "0",
                "--strict-parse",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_INPUT

    def test_fractions_that_print_alike_exit_1(self, dataset, tmp_path, capsys):
        # Both would write report_<s>_<v>_0.1.csv and a summary row "0.1".
        edges_path, cascades_path = dataset
        out = tmp_path / "out"
        assert main(_sweep_args(edges_path, cascades_path, out, "--fractions", "0.1,0.1000001")) == EXIT_INPUT
        assert "error [input]: budget fractions 0.1 and 0.1000001 both print as 0.1" in capsys.readouterr().err
        assert not out.exists()

    def test_netmelt_non_convergence_exits_2(self, tmp_path, capsys):
        edges_path = tmp_path / "edges.tsv"
        # Chained two-cycles: defective leading eigenvalue, no convergence.
        edges_path.write_text("a\tb\nb\ta\nb\tc\nc\td\nd\tc\n", encoding="utf-8")
        cascades_path = tmp_path / "cascades.tsv"
        cascades_path.write_text("t\ta\t1\nt\tb\t2\n", encoding="utf-8")
        code = main(
            [
                "sweep",
                "--edges", str(edges_path),
                "--cascades", str(cascades_path),
                "--min-size", "0",
                "--strategies", "netmelt",
                "--fractions", "0.5",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_CONVERGENCE
        assert "eigensolver" in capsys.readouterr().err

    def test_invariant_violation_exits_3(self, dataset, tmp_path, monkeypatch, capsys):
        edges_path, cascades_path = dataset
        import cascadecut.cli as cli_module

        def boom(config):
            raise InvariantError("totals out of balance")

        monkeypatch.setattr(cli_module, "run_sweep", boom)
        code = main(
            [
                "sweep",
                "--edges", str(edges_path),
                "--cascades", str(cascades_path),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_INVARIANT

    @pytest.mark.parametrize("config", [None, "min_size=0\n"])
    def test_no_edges_flag_or_key_exits_1(self, dataset, tmp_path, capsys, config):
        _, cascades_path = dataset
        out = tmp_path / "out"
        argv = ["sweep", "--cascades", str(cascades_path), "--out", str(out)]
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config, encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == "error [input]: edges: required (flag or config file)\n"
        assert not out.exists()

    def test_a_failing_write_exits_1_as_an_io_error(self, dataset, tmp_path, capsys):
        edges_path, cascades_path = dataset
        out = tmp_path / "out"
        out.write_text("not a directory\n", encoding="utf-8")
        assert main(_sweep_args(edges_path, cascades_path, out, "--strategies", "edge-degree")) == EXIT_INPUT
        [error] = capsys.readouterr().err.splitlines()
        assert error.startswith("error [io]: ") and str(out) in error
        assert out.read_text(encoding="utf-8") == "not a directory\n"

    def test_repeated_names_give_one_summary_row_each(self, dataset, tmp_path, capsys):
        edges_path, cascades_path = dataset
        out = tmp_path / "out"
        argv = _sweep_args(edges_path, cascades_path, out, "--strategies", "random,edge-degree,random",
                           "--variants", "non-tree,non-tree", "--fractions", "0,1")
        assert main(argv) == EXIT_OK
        assert len((out / "summary.csv").read_text().splitlines()) == 1 + 2 * 1 * 2
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == len(set(printed))


class TestPlanCommand:
    def test_writes_plan_file(self, dataset, tmp_path, capsys):
        edges_path, _ = dataset
        out = tmp_path / "plans"
        code = main(
            [
                "plan",
                "--edges", str(edges_path),
                "--strategy", "betweenness",
                "--fraction", "0.5",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = (out / "plan_betweenness.tsv").read_text().splitlines()
        assert lines[0] == "betweenness,4,"
        assert len(lines) == 5

    @pytest.mark.parametrize("strategy", ["netmelt", "edge-degree", "random"])
    def test_writes_the_text_export_and_the_sweep_cache(self, dataset, tmp_path, capsys, strategy):
        edges_path, _ = dataset
        out = tmp_path / "plans"
        argv = ["plan", "--edges", str(edges_path), "--strategy", strategy, "--k", "5", "--seed", "3", "--out", str(out)]
        assert main(argv) == EXIT_OK
        text, cache = out / f"plan_{strategy}.tsv", out / f"plan_{strategy}.npz"
        assert capsys.readouterr().out.splitlines() == [str(text), str(cache)]
        network = load_network(edges_path, False)
        string_save_plan(string_plan(network, strategy, 5, rng_seed=3), tmp_path / "want.tsv")
        assert text.read_bytes() == (tmp_path / "want.tsv").read_bytes()
        header, edge_pos, _ = read_plan_cache(cache)
        assert (header["strategy"], header["k"], header["fingerprint"]) == (strategy, 5, network.fingerprint)
        assert edge_pos.size == 5

    def test_sweep_into_the_same_directory_reuses_the_cache(self, dataset, tmp_path, monkeypatch, caplog):
        edges_path, cascades_path = dataset
        out = tmp_path / "out"
        for strategy in ("netmelt", "random"):
            argv = ["plan", "--edges", str(edges_path), "--strategy", strategy, "--fraction", "1", "--out", str(out)]
            assert main(argv) == EXIT_OK
        calls = []
        view = DeletionPlan.ranked_edges.fget
        monkeypatch.setattr(DeletionPlan, "ranked_edges", property(lambda plan: calls.append(plan) or view(plan)))
        with caplog.at_level("INFO", logger="cascadecut.experiment"):
            assert main(_sweep_args(edges_path, cascades_path, out, "--strategies", "netmelt,random")) == EXIT_OK
        assert calls == []
        for strategy in ("netmelt", "random"):
            assert f"reusing cached {strategy} plan from {out / f'plan_{strategy}.npz'}" in caplog.text

    @pytest.mark.parametrize("budget, error", [
        (["--fraction", "2"], "--fraction must lie in [0, 1]"),
        (["--fraction", "nan"], "--fraction must lie in [0, 1]"),
        (["--k", "-1"], "deletion budget k must be >= 0"),
    ])
    def test_a_bad_budget_exits_1_before_the_edges_are_read(self, tmp_path, capsys, budget, error):
        out = tmp_path / "plans"
        argv = ["plan", "--edges", str(tmp_path / "missing.tsv"), "--strategy", "netmelt", *budget, "--out", str(out)]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"error [input]: {error}\n"
        assert not out.exists()


class TestSeedsCommand:
    def test_writes_rows(self, dataset, tmp_path):
        edges_path, cascades_path = dataset
        out = tmp_path / "seeds-out"
        code = main(
            [
                "seeds",
                "--edges", str(edges_path),
                "--cascades", str(cascades_path),
                "--min-size", "0",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert (out / "seeds.csv").read_text().splitlines() == [
            "cascade_id,original_size,seed_count",
            "t,8,2",
        ]

    def test_negative_max_size_exits_1_and_writes_nothing(self, dataset, tmp_path, capsys):
        edges_path, cascades_path = dataset
        out = tmp_path / "seeds-out"
        code = main(
            [
                "seeds",
                "--edges", str(edges_path),
                "--cascades", str(cascades_path),
                "--min-size", "0",
                "--max-size", "-1",
                "--out", str(out),
            ]
        )
        assert code == EXIT_INPUT
        assert "error [input]: max_size must be >= 0, not -1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_max_size_exits_1_before_any_input_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.tsv")
        argv = ["seeds", "--edges", missing, "--cascades", missing, "--max-size", "-1", "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == "error [input]: max_size must be >= 0, not -1\n"


class TestScatterCommand:
    def test_projects_report(self, dataset, tmp_path):
        edges_path, cascades_path = dataset
        out = tmp_path / "out"
        main(
            [
                "sweep",
                "--edges", str(edges_path),
                "--cascades", str(cascades_path),
                "--min-size", "0",
                "--strategies", "random",
                "--variants", "non-tree",
                "--fractions", "0",
                "--seed", "1",
                "--out", str(out),
            ]
        )
        report = out / "report_random_non-tree_0.csv"
        code = main(["scatter", "--report", str(report), "--out", str(out)])
        assert code == EXIT_OK
        scatter = (out / f"scatter_{report.stem}.csv").read_text().splitlines()
        assert scatter == ["cascade_id,original_size,estimated_size", "t,8,8"]


    def test_malformed_report_exits_1(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        report.write_text(
            "strategy,variant,k,cascade_id,original_size,estimated_size,seed_count\n"
            "random,non-tree,x,t,8,8,2\n",
            encoding="utf-8",
        )
        code = main(["scatter", "--report", str(report), "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error [parse]" in err
        assert "report.csv: line 2" in err

    def test_report_with_another_header_exits_1(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        report.write_text("cascade_id,original_size,estimated_size\nt,8,8\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["scatter", "--report", str(report), "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error [input]: {report}: unexpected report header ['cascade_id', 'original_size', 'estimated_size']\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("row", ["netmelt,non-tree,3,c1,5,9,1", "netmelt,non-tree,3,c1,-4,-5,-6"])
    def test_report_sizes_out_of_order_exit_1(self, tmp_path, capsys, row):
        report = tmp_path / "report.csv"
        report.write_text(
            f"strategy,variant,k,cascade_id,original_size,estimated_size,seed_count\n{row}\n", encoding="utf-8"
        )
        code = main(["scatter", "--report", str(report), "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error [parse]" in err and "report.csv: line 2: " in err
        assert not (tmp_path / "out").exists()

    def test_two_joined_reports_exit_1(self, dataset, tmp_path, capsys):
        edges_path, cascades_path = dataset
        out = tmp_path / "out"
        argv = _sweep_args(edges_path, cascades_path, out, "--strategies", "netmelt,random", "--fractions", "0.5")
        assert main(argv) == EXIT_OK
        first, second = (out / f"report_{s}_non-tree_0.5.csv" for s in ("netmelt", "random"))
        joined = tmp_path / "joined.csv"
        joined.write_text(first.read_text() + "".join(second.read_text().splitlines(True)[1:]))
        capsys.readouterr()
        code = main(["scatter", "--report", str(joined), "--out", str(tmp_path / "scatter")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error [parse]" in err and "joined.csv: line 3: " in err
        assert not (tmp_path / "scatter").exists()


class TestExportDot:
    def test_writes_dot_file(self, dataset, tmp_path):
        edges_path, cascades_path = dataset
        out = tmp_path / "dots"
        code = main(
            [
                "export-dot",
                "--edges", str(edges_path),
                "--cascades", str(cascades_path),
                "--min-size", "0",
                "--cascade-id", "t",
                "--variant", "tree-first",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        text = (out / "t_tree-first.dot").read_text()
        assert text.startswith('digraph "t"')
        assert "lightgreen" in text

    def test_unknown_cascade_exits_1(self, dataset, tmp_path, capsys):
        edges_path, cascades_path = dataset
        code = main(
            [
                "export-dot",
                "--edges", str(edges_path),
                "--cascades", str(cascades_path),
                "--min-size", "0",
                "--cascade-id", "nope",
                "--out", str(tmp_path / "dots"),
            ]
        )
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("cascade_id", ["x/../../escape", "..", ".", "", "a\0b"])
    def test_id_that_is_not_a_file_name_exits_1(self, tmp_path, capsys, cascade_id):
        edges_path, _ = write_eight_node_dataset(tmp_path)
        cascades_path = tmp_path / "escape.tsv"
        cascades_path.write_text("x/../../escape\ta\t1\nx/../../escape\tb\t2\n", encoding="utf-8")
        out = tmp_path / "d" / "sub"
        # With out/x present, writing out/x/../../escape_non-tree.dot would
        # succeed and land in tmp_path/d, outside --out.
        (out / "x").mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        code = main(
            [
                "export-dot",
                "--edges", str(edges_path),
                "--cascades", str(cascades_path),
                "--min-size", "0",
                "--cascade-id", cascade_id,
                "--out", str(out),
            ]
        )
        assert code == EXIT_INPUT
        assert "error [input]" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before


class TestGnuplotCommand:
    def test_emits_script(self, dataset, tmp_path):
        edges_path, cascades_path = dataset
        out = tmp_path / "out"
        main(
            [
                "sweep",
                "--edges", str(edges_path),
                "--cascades", str(cascades_path),
                "--min-size", "0",
                "--strategies", "random",
                "--variants", "non-tree",
                "--fractions", "0,1",
                "--out", str(out),
            ]
        )
        code = main(["gnuplot", "--strategies", "random", "--variants", "non-tree", "--out", str(out)])
        assert code == EXIT_OK
        assert "summary.csv" in (out / "plots.gp").read_text()

    def test_requires_summary(self, tmp_path, capsys):
        code = main(["gnuplot", "--out", str(tmp_path / "empty")])
        assert code == EXIT_INPUT


    @pytest.mark.parametrize("flag, value", [
        ("--strategies", "bogus"),
        ("--strategies", ""),
        ("--variants", "non-tree,bogus"),
        ("--variants", ""),
    ])
    def test_bad_name_list_exits_1(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        out.mkdir()
        (out / "summary.csv").write_text("strategy,variant,k,fraction,total_estimated,total_original\n")
        assert main(["gnuplot", flag, value, "--out", str(out)]) == EXIT_INPUT
        assert f"error [input]: {flag[2:]}:" in capsys.readouterr().err
        assert not (out / "plots.gp").exists()


class TestConfigFile:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("# comment\nedges=/x/e.tsv\nthreads=2\n", encoding="utf-8")
        assert read_config_file(cfg) == {"edges": "/x/e.tsv", "threads": "2"}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("nonsense=1\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_config_file(cfg)

    def test_bad_line_rejected(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("edges\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_config_file(cfg)

    def test_repeated_key_exits_1_naming_both_lines(self, dataset, tmp_path, capsys):
        edges_path, cascades_path = dataset
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"seed=1\nedges={edges_path}\n# later edit\nseed = 2\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"line 4: key 'seed' already set on line 1"):
            read_config_file(cfg)
        out = tmp_path / "out"
        code = main(["plan", "--config", str(cfg), "--strategy", "random", "--k", "2", "--out", str(out)])
        assert code == EXIT_INPUT
        assert "error [parse]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("in_file", [(key,) for key in SETTINGS] + [tuple(SETTINGS)],
                             ids=[*SETTINGS, "all"])
    def test_config_keys_give_the_same_sweep_as_flags(self, dataset, tmp_path, in_file):
        edges_path, cascades_path = dataset

        def sweep(name, in_file):
            out = tmp_path / name
            # Values away from the defaults wherever a default exists.
            values = {
                "edges": str(edges_path), "cascades": str(cascades_path), "out": str(out),
                "min_size": "0", "strategies": "random,edge-degree", "variants": "tree-last,non-tree",
                "fractions": "0.5,0.25,1", "seed": "7", "strict_parse": "on", "threads": "2",
            }
            assert set(values) == set(SETTINGS)
            argv, lines = ["sweep"], []
            for key, value in values.items():
                if key in in_file:
                    lines.append(f"{key}={value}\n")
                elif key == "strict_parse":
                    argv.append("--strict-parse")
                else:
                    argv += [f"--{key.replace('_', '-')}", value]
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text("".join(lines), encoding="utf-8")
            assert main(argv + ["--config", str(cfg)]) == EXIT_OK
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        from_flags = sweep("flags", ())
        assert "report_edge-degree_non-tree_0.25.csv" in from_flags
        assert sweep("file", in_file) == from_flags


def _sweep_args(edges_path, cascades_path, out, *extra):
    return [
        "sweep",
        "--edges", str(edges_path),
        "--cascades", str(cascades_path),
        "--min-size", "0",
        "--out", str(out),
        *extra,
    ]


class TestNumericSettings:
    @pytest.mark.parametrize(
        "line, name",
        [
            ("seed=x", "seed"),
            ("threads=two", "threads"),
            ("min_size=x", "min_size"),
            ("fractions=0.1,abc", "fractions"),
        ],
    )
    def test_unparsable_config_value_exits_1(self, dataset, tmp_path, capsys, line, name):
        edges_path, cascades_path = dataset
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"edges={edges_path}\ncascades={cascades_path}\nout={tmp_path / 'out'}\n{line}\n",
            encoding="utf-8",
        )
        code = main(["sweep", "--config", str(cfg), "--strategies", "random"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"error [input]: {name}:" in err
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_unparsable_fraction_flag_exits_1(self, dataset, tmp_path, capsys):
        edges_path, cascades_path = dataset
        code = main(_sweep_args(edges_path, cascades_path, tmp_path / "out", "--fractions", "0.1,abc"))
        assert code == EXIT_INPUT
        assert "error [input]: fractions: expected float, got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["seed=x", "threads=two"])
    def test_plan_command_reports_unparsable_config_value(self, dataset, tmp_path, capsys, line):
        edges_path, _ = dataset
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n", encoding="utf-8")
        code = main(
            [
                "plan", "--config", str(cfg),
                "--edges", str(edges_path),
                "--strategy", "random",
                "--k", "2",
                "--out", str(tmp_path / "plans"),
            ]
        )
        assert code == EXIT_INPUT
        assert "error [input]" in capsys.readouterr().err
        assert not (tmp_path / "plans").exists()

    def test_negative_seed_exits_1(self, dataset, tmp_path, capsys):
        # random.Random(-1) seeds from abs(-1): seed 1's plan, recorded as seed -1.
        edges_path, cascades_path = dataset
        out = tmp_path / "out"
        argv = _sweep_args(edges_path, cascades_path, out, "--strategies", "random", "--seed", "-1")
        assert main(argv) == EXIT_INPUT
        assert "error [input]: seed: rng seed must be >= 0, not -1" in capsys.readouterr().err
        assert not list(out.glob("*"))
        assert ">= 0" in SETTINGS["seed"][2]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["sweep", *(f"plan-{strategy}" for strategy in STRATEGIES)])
    def test_negative_seed_exits_1_before_any_input_is_read(self, tmp_path, capsys, command, source):
        # The edge and cascade files do not exist, so the seed's error must come first.
        missing, out = tmp_path / "missing.tsv", tmp_path / "out"
        if command == "sweep":
            argv = _sweep_args(missing, missing, out)
        else:
            strategy = command.removeprefix("plan-")
            argv = ["plan", "--edges", str(missing), "--strategy", strategy, "--k", "2", "--out", str(out)]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed=-1\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == "error [input]: seed: rng seed must be >= 0, not -1\n"
        assert sorted(tmp_path.iterdir()) == ([] if source == "flag" else [tmp_path / "run.cfg"])


    @pytest.mark.parametrize(
        "source, key, value",
        [
            (source, key, value)
            for source in ("flag", "config")
            for key, value in [
                ("edges", ""), ("cascades", ""), ("out", ""),
                ("min_size", "x"), ("min_size", "1.5"), ("seed", "x"),
                ("threads", "two"), ("threads", "0"),
                ("fractions", "0.1,abc"), ("fractions", ""),
                ("strategies", ""), ("strategies", "random,bogus"),
                ("variants", ""), ("variants", "bogus"),
                ("strict_parse", "ture"), ("strict_parse", ""),
            ]
            if not (source == "flag" and key == "strict_parse")  # --strict-parse takes no value
        ],
    )
    def test_bad_value_exits_1_naming_the_key(self, dataset, tmp_path, capsys, source, key, value):
        edges_path, cascades_path = dataset
        settings = {
            "edges": str(edges_path), "cascades": str(cascades_path), "out": str(tmp_path / "out"),
            "min_size": "0", "strategies": "random", "variants": "non-tree", "fractions": "0.5",
        }
        settings.pop(key, None)
        argv = ["sweep"]
        for name, setting in settings.items():
            argv += [f"--{name.replace('_', '-')}", setting]
        if source == "flag":
            argv += [f"--{key.replace('_', '-')}", value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={value}\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_INPUT
        assert f"error [input]: {key}:" in capsys.readouterr().err
        assert not list(tmp_path.rglob("summary.csv"))


class TestThreadsOption:
    """``--threads`` and the ``threads`` key are validated but change nothing."""

    @pytest.fixture
    def random_dataset(self, tmp_path):
        # A graph on which summing per-source betweenness partials in three
        # chunks ranks the edges differently from one pass over all sources.
        rng = random.Random(13)
        nodes, edges = random_digraph(rng, 24, 0.12)
        rows = [f"c{i}\t{u}\t{rng.randint(0, 9)}\n" for i in range(3) for u in rng.sample(nodes, 12)]
        edges_path = tmp_path / "edges.tsv"
        cascades_path = tmp_path / "cascades.tsv"
        edges_path.write_text("".join(f"{a}\t{b}\n" for a, b in edges), encoding="utf-8")
        cascades_path.write_text("".join(rows), encoding="utf-8")
        return edges_path, cascades_path

    def test_betweenness_sweep_is_byte_identical_for_any_thread_count(self, random_dataset, tmp_path):
        edges_path, cascades_path = random_dataset
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads=2\n", encoding="utf-8")
        runs = {
            "flag-1": ("--threads", "1"),
            "flag-3": ("--threads", "3"),
            "config-2": ("--config", str(cfg)),
        }
        snapshots = {}
        for name, extra in runs.items():
            out = tmp_path / name
            argv = _sweep_args(edges_path, cascades_path, out, "--strategies", "betweenness",
                               "--fractions", "0.1,0.5", *extra)
            assert main(argv) == EXIT_OK
            snapshots[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert "plan_betweenness.npz" in snapshots["flag-1"]
        assert snapshots["flag-3"] == snapshots["flag-1"]
        assert snapshots["config-2"] == snapshots["flag-1"]

    @pytest.mark.parametrize("command", ["sweep", "plan"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_threads_below_one_exits_1(self, dataset, tmp_path, capsys, command, source):
        edges_path, cascades_path = dataset
        out = tmp_path / "out"
        if command == "sweep":
            argv = _sweep_args(edges_path, cascades_path, out, "--strategies", "random")
        else:
            argv = ["plan", "--edges", str(edges_path), "--strategy", "random", "--k", "1", "--out", str(out)]
        if source == "flag":
            argv += ["--threads", "0"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("threads=0\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_INPUT
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestUsageErrors:
    """A command line the parser rejects exits 1, never argparse's 2 (the eigensolver's code)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--strategy", "random", "--k", "x"],
            ["plan", "--strategy", "random", "--fraction", "x"],
            ["plan", "--strategy", "random"],
            ["plan", "--strategy", "bogus", "--k", "1"],
            ["seeds", "--max-size", "x"],
            ["export-dot", "--cascade-id", "t", "--variant", "bogus"],
            ["sweep", "--no-such-flag"],
            ["no-such-command"],
            [],
        ],
    )
    def test_rejected_command_line_exits_1(self, dataset, tmp_path, capsys, argv):
        edges_path, cascades_path = dataset
        if argv:
            argv = argv + ["--edges", str(edges_path), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_INPUT
        assert "error [input]: cascadecut" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: cascadecut" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["stats", "sweep", "seeds", "export-dot", "plan"])
    def test_missing_edges_file_reports_the_same_error(self, dataset, tmp_path, capsys, command):
        _, cascades_path = dataset
        cascades, out = ["--cascades", str(cascades_path)], ["--out", str(tmp_path / "out")]
        extra = {
            "stats": cascades,
            "sweep": cascades + out,
            "seeds": cascades + out,
            "export-dot": cascades + out + ["--cascade-id", "t"],
            "plan": out + ["--strategy", "random", "--k", "1"],
        }[command]
        argv = [command, "--edges", str(tmp_path / "nope.tsv"), *extra]
        assert main(argv) == EXIT_INPUT
        assert "error [input]: ingest: cannot read edges file" in capsys.readouterr().err


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is dropped, not read into the first id or key."""

    def with_bom(self, path):
        copy = path.with_name(f"bom-{path.name}")
        copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return copy

    def test_dataset_files(self, dataset, tmp_path, capsys, caplog):
        edges_path, cascades_path = dataset
        bom_edges, bom_cascades = self.with_bom(edges_path), self.with_bom(cascades_path)
        outputs = []
        for edges, cascades in ((edges_path, cascades_path), (bom_edges, bom_cascades)):
            assert main(["stats", "--edges", str(edges), "--cascades", str(cascades), "--min-size", "0"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "user_count=8" in outputs[1] and "cascade_count=1" in outputs[1]

        plain = load_dataset(ExperimentConfig(edges_path, cascades_path, tmp_path / "out", min_cascade_size=0))
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="cascadecut.ingest"):
            network, table = load_dataset(ExperimentConfig(bom_edges, bom_cascades, tmp_path / "out",
                                                           min_cascade_size=0))
        assert_same_graph(network, plain[0])
        assert network.fingerprint == plain[0].fingerprint
        assert_same_table(table, plain[1])
        # The mark is no line's text: every record is read, and none is malformed.
        assert [r.getMessage() for r in caplog.records] == ["read 8 edge record(s)", "read 8 event record(s)"]

    def test_config_and_report_files(self, dataset, tmp_path):
        edges_path, cascades_path = dataset
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min_size=0\nseed=3\n", encoding="utf-8")
        assert read_config_file(self.with_bom(cfg)) == read_config_file(cfg) == {"min_size": "0", "seed": "3"}
        out = tmp_path / "out"
        argv = _sweep_args(edges_path, cascades_path, out, "--strategies", "edge-degree", "--variants", "non-tree",
                           "--fractions", "0.25")
        assert main(argv) == EXIT_OK
        report = out / "report_edge-degree_non-tree_0.25.csv"
        want, got = read_report_csv(report), read_report_csv(self.with_bom(report))
        assert (got.strategy, got.variant, got.k, got.cascade_ids) == (want.strategy, want.variant, want.k,
                                                                         want.cascade_ids)
        for name in ("original_sizes", "estimated_sizes", "seed_counts"):
            assert getattr(got, name).tolist() == getattr(want, name).tolist()


class TestTextThatIsNotUtf8:
    """A file of any kind that is not UTF-8 is a parse error naming it, not a traceback."""

    @pytest.mark.parametrize("kind", ["edges", "cascades", "config", "report"])
    def test_exits_1_naming_the_file(self, dataset, tmp_path, kind):
        edges_path, cascades_path = dataset
        bad = tmp_path / f"bad-{kind}"
        bad.write_bytes({
            "edges": b"a\tb\n\xff\tc\n",
            "cascades": b"t\ta\t1\nt\t\xff\t2\n",
            "config": b"min_size=0\n# \xff\n",
            "report": b"strategy,variant,k,cascade_id,original_size,estimated_size,seed_count\n\xff\n",
        }[kind])
        out = tmp_path / "out"
        argv = {
            "edges": ["stats", "--edges", str(bad), "--cascades", str(cascades_path)],
            "cascades": ["stats", "--edges", str(edges_path), "--cascades", str(bad)],
            "config": ["stats", "--config", str(bad), "--edges", str(edges_path), "--cascades", str(cascades_path)],
            "report": ["scatter", "--report", str(bad), "--out", str(out)],
        }[kind]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, "-m", "cascadecut.cli", *argv], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == EXIT_INPUT
        [error] = [line for line in done.stderr.splitlines() if line.startswith("error")]
        assert error.startswith("error [parse]: ") and error.endswith(f"{bad}: not UTF-8 text (invalid start byte)")
        assert "Traceback" not in done.stderr
        assert not out.exists()


class TestUnreadableInput:
    """An input file of any kind that cannot be opened fails in one shape: an input error naming its kind."""

    @pytest.mark.parametrize("unreadable", ["directory", "missing"])
    @pytest.mark.parametrize("kind", ["edges", "cascades", "config", "report"])
    def test_exits_1_naming_the_kind(self, dataset, tmp_path, capsys, kind, unreadable):
        edges_path, cascades_path = dataset
        bad = tmp_path / f"bad-{kind}"
        if unreadable == "directory":
            bad.mkdir()
        out = tmp_path / "out"
        argv = {
            "edges": ["stats", "--edges", str(bad), "--cascades", str(cascades_path)],
            "cascades": ["stats", "--edges", str(edges_path), "--cascades", str(bad)],
            "config": ["stats", "--config", str(bad), "--edges", str(edges_path), "--cascades", str(cascades_path)],
            "report": ["scatter", "--report", str(bad), "--out", str(out)],
        }[kind]
        assert main(argv) == EXIT_INPUT
        [error] = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
        assert error.startswith(f"error [input]: ingest: cannot read {kind} file: ") and str(bad) in error
        assert not out.exists()

    @pytest.mark.parametrize("read, kind", [(read_config_file, "config"), (read_report_csv, "report")])
    def test_config_and_report_readers_raise_input_errors(self, tmp_path, read, kind):
        with pytest.raises(InputError, match=f"^ingest: cannot read {kind} file: ") as caught:
            read(tmp_path)
        assert type(caught.value) is InputError and isinstance(caught.value.__cause__, OSError)
