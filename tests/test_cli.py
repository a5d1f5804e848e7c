"""Command-line interface tests: subcommands, config files, exit codes."""

from __future__ import annotations

import random

import pytest

from cascadecut import DirectedGraph, InvariantError, ParseError, read_plan_cache
from cascadecut.cli import (
    EXIT_CONVERGENCE,
    EXIT_INPUT,
    EXIT_INVARIANT,
    EXIT_OK,
    SETTINGS,
    main,
    read_config_file,
)
from cascadecut.experiment import load_network
from conftest import write_eight_node_dataset
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

    def test_cached_plan_with_bad_seed_exits_1(self, dataset, tmp_path, capsys):
        edges_path, cascades_path = dataset
        out = tmp_path / "out"
        out.mkdir()
        (out / "plan_random.tsv").write_text("random,2,abc\n1\t2\t0.0\n", encoding="utf-8")
        code = main(
            [
                "sweep",
                "--edges", str(edges_path),
                "--cascades", str(cascades_path),
                "--min-size", "0",
                "--strategies", "random",
                "--out", str(out),
            ]
        )
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error [parse]" in err
        assert "plan_random.tsv" in err


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
        resolve = DirectedGraph.edge_positions
        monkeypatch.setattr(DirectedGraph, "edge_positions", lambda *a: calls.append(a) or resolve(*a))
        with caplog.at_level("INFO", logger="cascadecut.experiment"):
            assert main(_sweep_args(edges_path, cascades_path, out, "--strategies", "netmelt,random")) == EXIT_OK
        assert calls == []
        for strategy in ("netmelt", "random"):
            assert f"reusing cached {strategy} plan from {out / f'plan_{strategy}.npz'}" in caplog.text


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
