import concurrent.futures
import csv
import dataclasses
import io
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings, strategies as st

from qnops import cli as qcli, lab
from qnops.cli import (
    LAMBDAS,
    SYSTEM_LABELS,
    ResultRow,
    cli,
    config_for_label,
    emit_table,
    main,
    method_label,
    table2_labels,
    table3_labels,
)
from qnops.pool import run_pool
from qnops.solvers import (
    BGM,
    Broyden,
    GeneralizedPSB,
    ImageTransform,
    NormalEqWindow,
    NoTransform,
    ResidualNorm,
)


runner = CliRunner()


def _fail_on_two(cell):
    # a pool worker: top level, so the pool can pickle it
    if cell == 2:
        raise ArithmeticError(f"cell {cell}")
    return cell


def parse_table(text):
    """(headers, rows) of csv text, blank lines skipped: emit_table read back."""
    cells = [row for row in csv.reader(io.StringIO(text)) if row]
    return cells[0], cells[1:]


class TestMethodLabels:
    def test_round_trip_over_all_grids(self):
        labels = set(table2_labels()) | set(table3_labels()) | set(SYSTEM_LABELS)
        assert len(labels) > 25
        bases = {Broyden(1.0): "DFP", Broyden(0.0): "BFGS", GeneralizedPSB(): "PSB", BGM(): "BGM"}
        modes = {NoTransform(): None, ImageTransform(): "im"}
        for label in labels:
            kind, cfg = config_for_label(label, 50.0)
            base = "LBFGS" if kind == "lbfgs" else bases.get(cfg.rule, "Newton")
            mode = modes.get(cfg.mode, "ip")
            n = cfg.memory if kind == "lbfgs" else None
            d = cfg.mode.d if mode == "ip" else None
            assert method_label(base, mode, n, d) == label

    def test_decode_plain(self):
        kind, cfg = config_for_label("DFP", 50.0)
        assert kind == "dense" and cfg.mode == NoTransform()

    def test_decode_projection_with_window(self):
        kind, cfg = config_for_label("IP-LBFGS(N=3,d=2)", 50.0)
        assert kind == "lbfgs"
        assert cfg.memory == 3 and cfg.mode == NormalEqWindow(2)

    def test_projection_requires_window(self):
        with pytest.raises(ValueError):
            config_for_label("IP-DFP", 50.0)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            config_for_label("SR1", 50.0)

    @pytest.mark.parametrize("label", [
        "LBFGS", "Im-LBFGS", "BFGS(N=3)", "DFP(q=2)", "IP-BFGS(d=1,d=2)", "Newton(d=1)",
        "BGM(N=2)", "IP-BFGS",
    ])
    def test_labels_outside_the_grammar_are_refused(self, label):
        # N on LBFGS and nowhere else, d on IP- and nowhere else, each once
        with pytest.raises(ValueError, match="label"):
            config_for_label(label, 50.0)

    def test_label_formatting(self):
        assert method_label("LBFGS", "ip", n=3, d=1) == "IP-LBFGS(N=3,d=1)"
        assert method_label("DFP", "im") == "Im-DFP"
        assert method_label("BFGS") == "BFGS"


class TestConfigForLabel:
    def test_dense_rules(self):
        kind, cfg = config_for_label("DFP", 50.0)
        assert kind == "dense" and cfg.rule == Broyden(1.0)
        assert cfg.mode == NoTransform()
        kind, cfg = config_for_label("BFGS", 50.0)
        assert cfg.rule == Broyden(0.0)
        kind, cfg = config_for_label("PSB", 50.0)
        assert cfg.rule == GeneralizedPSB()

    def test_image_and_projection_modes(self):
        _, cfg = config_for_label("Im-DFP", 100.0)
        assert cfg.mode == ImageTransform()
        _, cfg = config_for_label("IP-PSB(d=2)", 100.0)
        assert cfg.mode == NormalEqWindow(2)

    def test_lbfgs_kind_and_memory(self):
        kind, cfg = config_for_label("IP-LBFGS(N=5,d=3)", 200.0)
        assert kind == "lbfgs"
        assert cfg.memory == 5
        assert cfg.mode == NormalEqWindow(3)
        assert cfg.b0 == 200.0

    def test_system_labels(self):
        # the systems cells decode their labels here too, at lambda = 1
        expected = {"Newton": (None, NoTransform()), "BGM": (BGM(), NoTransform()),
                    "IP-BGM(d=1)": (BGM(), NormalEqWindow(1))}
        assert set(expected) == set(SYSTEM_LABELS)
        for label, (rule, mode) in expected.items():
            kind, cfg = config_for_label(label, 1.0)
            assert kind == "system"
            assert cfg.rule == rule and cfg.mode == mode
            assert cfg.stop == ResidualNorm(1e-7)
            assert cfg.b0 == 1.0 and cfg.max_iters == 200000


class TestResultRow:
    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            ResultRow("DFP", {}, -1, "converged", 0)

    def test_equality_ignores_wall_time(self):
        a = ResultRow("DFP", {"lambda": 50.0}, 5, "converged", 0, wall_time=0.1)
        b = ResultRow("DFP", {"lambda": 50.0}, 5, "converged", 0, wall_time=9.9)
        assert a == b


class TestTableCodec:
    def test_csv_shape(self):
        text = emit_table(["a", "b"], [["1", "2"], ["3", "4"]], "csv")
        assert text == "a,b\n1,2\n3,4\n"

    def test_markdown_shape(self):
        text = emit_table(["a", "b"], [["1", "2"]], "markdown")
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "| --- | --- |"
        assert lines[2] == "| 1 | 2 |"

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            emit_table(["a"], [], "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_table(["a"], [["1"]], "latex")

    def test_parse_inverts_emit(self):
        headers = ["method", "lambda", "iterations"]
        rows = [["DFP", "50", "124"], ["BFGS", "5000", "279"]]
        assert parse_table(emit_table(headers, rows, "csv")) == (headers, rows)

    @given(
        st.lists(
            st.lists(st.text(alphabet=st.characters(blacklist_characters=",\n\r\x00"),
                             min_size=1, max_size=8),
                     min_size=2, max_size=4),
            min_size=1, max_size=5,
        ).filter(lambda rs: len({len(r) for r in rs}) == 1)
    )
    @settings(deadline=None, max_examples=60)
    def test_round_trip_property(self, rows):
        headers = [f"h{i}" for i in range(len(rows[0]))]
        assert parse_table(emit_table(headers, rows, "csv")) == (headers, rows)


class TestRunCommand:
    def test_single_cell_csv(self):
        result = runner.invoke(
            cli,
            ["run", "--experiment", "table2", "--methods", "DFP",
             "--lambdas", "50", "--workers", "1"],
        )
        assert result.exit_code == 0
        headers, rows = parse_table(result.stdout)
        assert headers == ["method", "lambda", "iterations", "status", "fallbacks"]
        assert rows == [["DFP", "50", "124", "converged", "0"]]

    def test_markdown_pivot(self):
        result = runner.invoke(
            cli,
            ["run", "--experiment", "table2", "--methods", "BFGS",
             "--lambdas", "50,100", "--format", "markdown", "--workers", "1"],
        )
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "| Method | 50 | 100 |"
        assert "| BFGS | 55 | 79 |" in lines

    def test_reruns_are_byte_identical(self):
        args = ["run", "--experiment", "table2", "--methods", "Im-PSB",
                "--lambdas", "50,5000", "--workers", "1"]
        first = runner.invoke(cli, args)
        second = runner.invoke(cli, args)
        assert first.exit_code == second.exit_code == 0
        assert first.stdout == second.stdout
        assert first.stdout.endswith("\n")

    def test_method_base_prefix_filter(self):
        # a bare base name selects its parameterized variants but not the
        # operator-prefixed ones
        result = runner.invoke(
            cli,
            ["run", "--experiment", "table3", "--methods", "LBFGS", "--n", "4",
             "--lambdas", "200", "--workers", "1"],
        )
        assert result.exit_code == 0
        _, rows = parse_table(result.stdout)
        assert rows == [["LBFGS(N=4)", "200", "195", "converged", "0"]]

    def test_exact_method_filter_list(self):
        result = runner.invoke(
            cli,
            ["run", "--experiment", "table3", "--methods",
             "IP-LBFGS(N=4,d=1),IP-LBFGS(N=4,d=2),IP-LBFGS(N=4,d=3)",
             "--lambdas", "200", "--workers", "1"],
        )
        assert result.exit_code == 0
        _, rows = parse_table(result.stdout)
        methods = [r[0] for r in rows]
        assert methods == ["IP-LBFGS(N=4,d=1)", "IP-LBFGS(N=4,d=2)", "IP-LBFGS(N=4,d=3)"]
        assert [r[2] for r in rows] == ["298", "111", "82"]

    def test_worker_pool_preserves_cell_order(self):
        result = runner.invoke(
            cli,
            ["run", "--experiment", "table2", "--methods", "DFP,BFGS",
             "--lambdas", "50,100", "--workers", "2"],
        )
        assert result.exit_code == 0
        _, rows = parse_table(result.stdout)
        assert [(r[0], r[1]) for r in rows] == [
            ("DFP", "50"), ("DFP", "100"), ("BFGS", "50"), ("BFGS", "100"),
        ]
        assert [r[2] for r in rows] == ["124", "235", "55", "79"]

    @pytest.mark.parametrize("cells,workers,started", [
        ([1, 2, 3], 1000, [3]),  # the pool asked for 1000 processes
        ([1, 2, 3], 2, [2]),
        ([1], 8, []),
    ])
    def test_pool_starts_no_more_workers_than_cells(self, monkeypatch, cells, workers, started):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # run_pool imports the pool class from concurrent.futures when it runs
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        assert run_pool(cells, str, workers) == [str(c) for c in cells]
        assert sizes == started

    def test_no_pool_process_outlives_a_failing_cell(self):
        with pytest.raises(ArithmeticError, match="cell 2"):
            run_pool([1, 2, 3, 4], _fail_on_two, 2)
        assert multiprocessing.active_children() == []

    def test_importing_the_cli_loads_no_multiprocessing(self):
        # the pool is imported only when one starts, so importing the lab or
        # the CLI, and a run or verify at --workers 1, load no multiprocessing
        src = str(Path(qcli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        for module in ("qnops.lab", "qnops.cli"):
            code = (f"import sys, {module}; print(sorted(m for m in sys.modules "
                    "if m.split('.')[0] == 'multiprocessing'))")
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True)
            assert out.stdout.strip() == "[]", module

    @pytest.mark.parametrize("affinity, expected", [({0}, 1), (None, 8)])
    def test_default_workers_are_the_usable_cpus(self, monkeypatch, affinity, expected):
        # the default was os.cpu_count(), more workers than an affinity mask allows
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        if affinity is None:  # a platform without sched_getaffinity
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
        asked = []

        def pool(cells, worker, workers):
            asked.append(workers)
            return [worker(c) for c in cells]

        monkeypatch.setattr(qcli, "_run_pool", pool)
        result = runner.invoke(cli, ["run", "--experiment", "systems", "--methods", "Newton"])
        assert result.exit_code == 0
        assert asked == [expected]

    def test_out_file_matches_stdout(self, tmp_path):
        args = ["run", "--experiment", "systems", "--methods", "Newton", "--workers", "1"]
        streamed = runner.invoke(cli, args)
        target = tmp_path / "rows.csv"
        written = runner.invoke(cli, args + ["--out", str(target)])
        assert streamed.exit_code == written.exit_code == 0
        assert target.read_text(encoding="utf-8") == streamed.stdout

    def test_systems_counts(self):
        result = runner.invoke(cli, ["run", "--experiment", "systems", "--workers", "1"])
        assert result.exit_code == 0
        _, rows = parse_table(result.stdout)
        got = {(r[0], r[1]): r[2] for r in rows}
        assert got[("Newton", "circle-cosine")] == "23"
        assert got[("IP-BGM(d=1)", "circle-cosine")] == "51"
        assert got[("Newton", "rosenbrock-10")] == "2"
        assert got[("BGM", "rosenbrock-10")] == "15"
        assert got[("IP-BGM(d=1)", "rosenbrock-10")] == "5"

    def test_example1_angle_table(self):
        result = runner.invoke(cli, ["run", "--experiment", "example1"])
        assert result.exit_code == 0
        headers, rows = parse_table(result.stdout)
        assert headers == ["iteration", "angle_deg"]
        assert len(rows) == 17
        assert rows[0] == ["0", "0.0033"]
        assert rows[-1] == ["16", "44.7988"]
        assert "iterations, mean angle" in result.stderr

    def test_non_convergence_sets_exit_one(self, monkeypatch):
        original = config_for_label

        def starved(label, lam):
            kind, cfg = original(label, lam)
            return kind, dataclasses.replace(cfg, max_iters=3)

        monkeypatch.setattr(qcli, "config_for_label", starved)
        result = runner.invoke(
            cli,
            ["run", "--experiment", "table2", "--methods", "DFP",
             "--lambdas", "50", "--workers", "1"],
        )
        assert result.exit_code == 1
        _, rows = parse_table(result.stdout)
        assert rows[0][3] == "max-iters"

    def test_lambda_column_formatting(self):
        result = runner.invoke(
            cli,
            ["run", "--experiment", "table2", "--methods", "BFGS",
             "--lambdas", "62.5", "--workers", "1"],
        )
        assert result.exit_code == 0
        _, rows = parse_table(result.stdout)
        assert rows[0][1] == "62.5"

    def test_huge_whole_lambda_keeps_exponent_form(self):
        # 1e308 was written as its 309-digit integer expansion
        args = ["run", "--experiment", "table2", "--methods", "DFP", "--lambdas", "1e308",
                "--workers", "1"]
        _, rows = parse_table(runner.invoke(cli, args).stdout)
        assert rows[0][1] == "1e+308"
        markdown = runner.invoke(cli, args + ["--format", "markdown"]).stdout
        assert markdown.splitlines()[0] == "| Method | 1e+308 |"
        grid = runner.invoke(cli, ["run", "--experiment", "table2", "--methods", "BFGS",
                                   "--format", "markdown", "--workers", "1"])
        assert grid.stdout.splitlines()[0] == "| Method | 50 | 100 | 200 | 500 | 1000 | 5000 |"


class TestExitCodeContract:
    def test_usage_error_is_three(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 3

    def test_unknown_method_is_three(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--experiment", "table2", "--methods", "Quantum",
                  "--lambdas", "50", "--workers", "1"])
        assert exc.value.code == 3

    def test_unknown_command_is_three(self):
        with pytest.raises(SystemExit) as exc:
            main(["explode"])
        assert exc.value.code == 3

    def test_lab_experiment_is_removed(self):
        # the oracle suites run only through verify
        with pytest.raises(SystemExit) as exc:
            main(["run", "--experiment", "lab"])
        assert exc.value.code == 3

    @pytest.mark.parametrize("flag, value", [
        ("--config", "bench.cfg"),  # the config-file channel is gone
        ("--N", "3"),               # the alias of --n is gone
        ("--seed", "0"),            # seed belongs to verify only
    ])
    def test_removed_run_option_is_usage_error(self, flag, value, tmp_path, monkeypatch,
                                               capsys):
        (tmp_path / "bench.cfg").write_text("experiment = systems\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        pool_calls = []
        monkeypatch.setattr(qcli, "_run_pool", lambda *args: pool_calls.append(args))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--experiment", "systems", "--workers", "1", flag, value])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert f"No such option '{flag}'" in err
        assert "Traceback" not in err
        assert pool_calls == []

    @pytest.mark.parametrize("parent", ["missing", "file"])
    def test_out_outside_a_directory_is_usage_error(self, parent, tmp_path, monkeypatch,
                                                   capsys):
        # ran the whole experiment, then ended in a FileNotFoundError traceback
        (tmp_path / "file").write_text("", encoding="utf-8")
        target = tmp_path / parent / "x.csv"
        pool_calls = []
        monkeypatch.setattr(qcli, "_run_pool", lambda *args: pool_calls.append(args))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--experiment", "systems", "--workers", "1", "--out", str(target)])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert "--out" in err
        assert "Traceback" not in err
        assert pool_calls == []

    def test_empty_out_is_usage_error(self, monkeypatch, capsys):
        # printed the table to stdout and exited 0, as if --out were absent
        pool_calls = []
        monkeypatch.setattr(qcli, "_run_pool", lambda *args: pool_calls.append(args))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--experiment", "systems", "--methods", "Newton", "--out=",
                  "--workers", "1"])
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert "--out" in captured.err and "empty path" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert pool_calls == []

    @pytest.mark.parametrize("experiment, flags", [
        # both exited 0 with the unfiltered output
        ("systems", ["--lambdas", "5", "--d", "3", "--n", "7"]),
        ("example1", ["--methods", "BFGS", "--lambdas", "9"]),
        ("systems", ["--lambdas", "5"]),
        ("systems", ["--d", "3"]),
        ("systems", ["--n", "7"]),
        ("example1", ["--methods", "BFGS"]),
        ("example1", ["--d", "1"]),
        ("example1", ["--n", "3"]),
    ])
    def test_flag_the_experiment_does_not_read_is_usage_error(self, experiment, flags,
                                                             monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(qcli, "_run_pool", lambda *args: ran.append(args))
        monkeypatch.setattr(qcli, "run_example1", lambda: ran.append("example1"))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--experiment", experiment, "--workers", "1"] + flags)
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags if flag.startswith("--"))
        assert "Traceback" not in err
        assert ran == []

    def test_option_names_are_pinned(self):
        # flags are the one input channel (no config file), each with one
        # spelling; a second way into a setting would show up here
        def names(command):
            return [opt for p in command.params for opt in p.opts + p.secondary_opts]

        assert names(qcli.run) == ["--experiment", "--methods", "--lambdas", "--d", "--n",
                                   "--format", "--out", "--workers"]
        assert names(qcli.verify) == ["--seed", "--trials", "--workers"]

    def test_success_is_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--experiment", "systems", "--methods", "Newton",
                  "--workers", "1"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "Newton,circle-cosine,23,converged,0" in out


class TestVerifySubcommand:
    def test_small_verify_run_is_clean(self):
        result = runner.invoke(cli, ["verify", "--trials", "25", "--seed", "0"])
        assert result.exit_code == 0
        assert "violations=0" in result.stdout
        assert "error-reduction/" in result.stdout

    def test_negative_seed_is_usage_error(self, capsys):
        # was a ValueError traceback from numpy.random.default_rng
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", "-1", "--trials", "1"])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert "--seed" in err
        assert "Traceback" not in err

    def test_report_is_independent_of_workers(self):
        runs = [runner.invoke(cli, ["verify", "--trials", "40", "--workers", workers])
                for workers in ("1", "2")]
        assert runs[0].exit_code == runs[1].exit_code == 0
        assert runs[0].stdout == runs[1].stdout

    def test_default_workers_are_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        asked = []

        def pool(cells, worker, workers, order=None):
            asked.append(workers)
            return [worker(c) for c in cells]

        monkeypatch.setattr(lab, "run_pool", pool)
        result = runner.invoke(cli, ["verify", "--trials", "2"])
        assert result.exit_code == 0
        assert asked == [3]

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_usage_error(self, workers, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--trials", "1", "--workers", workers])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert "--workers" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_nonpositive_trials_is_usage_error(self, trials, capsys):
        # both exited 0 with a clean verdict after running no trial
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--trials", trials])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert "--trials" in err
        assert "Traceback" not in err


class TestLambdaValidation:
    @pytest.mark.parametrize("lambdas,methods", [
        ("0", "LBFGS(N=3)"),  # was a ZeroDivisionError traceback
        ("nan", None),  # was a ValueError traceback
        ("-5", "BFGS"),  # ran and exited 0
    ])
    def test_bad_lambda_is_usage_error(self, lambdas, methods, capsys):
        argv = ["run", "--experiment", "table2", "--lambdas", lambdas, "--workers", "1"]
        if methods is not None:
            argv += ["--methods", methods]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "--lambdas must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--experiment", "table3", "--n", "0"],  # was a ValueError traceback
        ["--experiment", "table2", "--d", "0"],  # printed IP-DFP(d=0) rows of the plain method
        ["--experiment", "table2", "--d", "-1"],
        ["--experiment", "table2", "--workers", "0"],  # was accepted
        ["--experiment", "table2", "--workers", "-3"],
    ])
    def test_sizes_below_one_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--lambdas", "50"] + argv)
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert argv[2] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["--experiment", "table2", "--d", "50"],
        ["--experiment", "table3", "--d", "1,60"],
        ["--experiment", "table3", "--n", "51"],
    ])
    def test_windows_spanning_the_problem_are_usage_errors(self, argv, monkeypatch, capsys):
        # the drivers refuse a window of d >= 50 steps on the 50-dimensional
        # quadratic; each was a ValueError traceback from a pool cell
        ran = []
        monkeypatch.setattr(qcli, "_run_pool", lambda *args: ran.append(args))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--lambdas", "50", "--workers", "1"] + argv)
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert argv[2] in err
        assert "dimension" in err
        assert "Traceback" not in err
        assert ran == []

    def test_widest_window_below_the_dimension_is_accepted(self, monkeypatch):
        # d = 49 reaches the pool; the cells are recorded, not run
        cells = []

        def record(given, worker, workers):
            cells.extend(given)
            raise LookupError("recorded")

        monkeypatch.setattr(qcli, "_run_pool", record)
        with pytest.raises(LookupError):
            main(["run", "--experiment", "table3", "--n", "50", "--d", "49",
                  "--lambdas", "50", "--workers", "1"])
        assert [label for label, _ in cells] == ["LBFGS(N=50)", "IP-LBFGS(N=50,d=49)"]

    @pytest.mark.parametrize("flag", ["--methods", "--lambdas", "--d", "--n"])
    def test_empty_selection_is_usage_error(self, flag, monkeypatch, capsys):
        # each ran the full default list and exited 0 (1 under --lambdas=)
        ran = []
        monkeypatch.setattr(qcli, "_run_pool", lambda *args: ran.append(args))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--experiment", "table3", f"{flag}=", "--workers", "1"])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert flag in err
        assert "Traceback" not in err
        assert ran == []

    def test_unparsable_list_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--experiment", "table2", "--lambdas", "fifty", "--workers", "1"])
        assert exc.value.code == 3


_NUMBERS = st.sampled_from([None, "1", "0", "-1", "nan", "1e-320", "x"])


class TestBoundaryFuzz:
    # systems is the only experiment in the pools that can run (in process,
    # about 25 ms); every other draw must stop at the boundary
    @given(
        experiment=st.sampled_from(["systems", "lab", "bogus", None]),
        methods=st.sampled_from([None, "Newton", "Quantum", ","]),
        lambdas=_NUMBERS, d=_NUMBERS, n=_NUMBERS,
        workers=st.sampled_from(["1", "0", "abc"]),
        fmt=st.sampled_from(["csv", "markdown", "xml"]),
        out=st.sampled_from([None, "tmp", "/nonexistent/dir/x.csv"]),
    )
    @example(experiment="systems", methods="Newton", lambdas=None, d=None, n=None,
             workers="1", fmt="csv", out="/nonexistent/dir/x.csv")
    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_run_ends_in_a_documented_exit_code(self, tmp_path, capsys, experiment, methods,
                                                lambdas, d, n, workers, fmt, out):
        argv = ["run", "--workers", workers, "--format", fmt]
        for flag, value in (("--experiment", experiment), ("--methods", methods),
                            ("--lambdas", lambdas), ("--d", d), ("--n", n)):
            if value is not None:
                argv += [flag, value]
        if out is not None:
            argv += ["--out", str(tmp_path / "rows.csv") if out == "tmp" else out]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in capsys.readouterr().err
