"""Benchmark harness: ``run`` reproduces the iteration-count tables, the 2-D
angle example and the nonlinear-system comparisons; ``verify`` runs the
oracle suites.  A method label becomes a config only in ``config_for_label``;
``run_example1`` takes no labels and builds its own two configs, DFP and
BFGS at ``record="matrix"``, which the angle table needs.

Output is deterministic for a fixed experiment and seed: wall time is reported
on stderr only, never in the emitted table, so reruns are byte-identical.

Exit codes: 0 success, 1 convergence failure (run), 2 oracle violation
(verify), 3 usage error, among them a selection flag that the experiment
does not read.
"""

import csv
import io
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field, replace

import click
import numpy as np

from . import lab
# ``run`` maps its cells through the module global ``_run_pool``, which
# perfbench/cli_probe.py replaces to time the pool
from .pool import default_workers, run_pool as _run_pool
from .problems import (
    circle_cosine_system,
    modified_rosenbrock_10,
    motivating_quadratic_2d,
    quadratic_weighted_50,
)
from .solvers import (
    BGM,
    Broyden,
    GeneralizedPSB,
    GradNorm,
    ImageTransform,
    IterateError,
    NormalEqWindow,
    NoTransform,
    ResidualNorm,
    SolverConfig,
    minimize,
    minimize_lbfgs,
    solve_system,
)

LAMBDAS = (50.0, 100.0, 200.0, 500.0, 1000.0, 5000.0)
EXPERIMENTS = ("table2", "table3", "example1", "systems")
# the selection flags an experiment does not read, refused when given
_UNREAD = {"example1": ("--methods", "--lambdas", "--d", "--n"),
           "systems": ("--lambdas", "--d", "--n")}


@dataclass
class ResultRow:
    method: str
    params: dict
    iterations: int
    status: str
    fallbacks: int
    wall_time: float = field(default=0.0, compare=False)


# ---------------------------------------------------------------------------
# method labels <-> solver configs

# a label's parts; config_for_label refuses those method_label would not write
_LABEL_RE = re.compile(r"(?:(?P<mode>Im|IP)-)?(?P<base>DFP|BFGS|PSB|LBFGS|BGM|Newton)"
                       r"(?:\((?:N=(?P<N>\d+))?,?(?:d=(?P<d>\d+))?\))?")


def method_label(base, mode=None, n=None, d=None):
    args = []
    if n is not None:
        args.append(f"N={n}")
    if mode == "ip":
        args.append(f"d={d}")
    tag = {None: "", "im": "Im-", "ip": "IP-"}[mode]
    return f"{tag}{base}" + (f"({','.join(args)})" if args else "")


def config_for_label(label, lam):
    """Label + lambda -> (driver kind, SolverConfig); the inverse of
    method_label.  ``ValueError`` refuses a label that method_label would
    not write back identically, and an LBFGS label without N or another
    with one."""
    match = _LABEL_RE.fullmatch(label)
    if match is None:
        raise ValueError(f"unrecognized method label {label!r}")
    base, mode = match["base"], match["mode"] and match["mode"].lower()
    n, d = (None if v is None else int(v) for v in match.group("N", "d"))
    if (base == "LBFGS") != (n is not None) or method_label(base, mode, n, d) != label:
        raise ValueError(f"method label {label!r} breaks the label grammar")
    transform = (NormalEqWindow(d) if mode == "ip"
                 else ImageTransform() if mode == "im" else NoTransform())
    kwargs = dict(b0=lam, mode=transform, max_iters=200000)
    if base in ("Newton", "BGM"):
        rule = None if base == "Newton" else BGM()
        return "system", SolverConfig(rule=rule, stop=ResidualNorm(1e-7), **kwargs)
    kwargs["stop"] = IterateError(1e-7)
    if base == "LBFGS":
        kwargs["max_iters"] = 60000
        return "lbfgs", SolverConfig(rule=None, memory=n, **kwargs)
    rule = {"DFP": Broyden(1.0), "BFGS": Broyden(0.0), "PSB": GeneralizedPSB()}[base]
    return "dense", SolverConfig(rule=rule, **kwargs)


def run_label(label, lam, problem, record="full"):
    """Run one labelled method on ``problem`` from B0 = lam * I at recording
    level ``record`` (see ``SolverConfig.record``); returns the trace.  The
    decoder and the driver are looked up as module globals at call time, so
    a patched ``config_for_label`` or ``minimize`` is used."""
    kind, config = config_for_label(label, lam)
    driver = {"dense": minimize, "lbfgs": minimize_lbfgs, "system": solve_system}[kind]
    return driver(problem, replace(config, record=record))


def table2_labels(n_list=(3, 10), d_list=(1, 2)):
    labels = []
    for base in ("DFP", "BFGS", "PSB"):
        labels.append(method_label(base))
        labels.append(method_label(base, "im"))
        labels.extend(method_label(base, "ip", d=d) for d in d_list)
    for n in n_list:
        labels.append(method_label("LBFGS", n=n))
        labels.append(method_label("LBFGS", "im", n=n))
        labels.extend(method_label("LBFGS", "ip", n=n, d=d) for d in d_list if d <= n - 1)
    return labels


def table3_labels(n_list=(3, 4, 5), d_list=None):
    labels = []
    for n in n_list:
        labels.append(method_label("LBFGS", n=n))
        for d in range(1, n):
            if d_list is None or d in d_list:
                labels.append(method_label("LBFGS", "ip", n=n, d=d))
    return labels


SYSTEM_PROBLEMS = {"circle-cosine": circle_cosine_system,
                   "rosenbrock-10": modified_rosenbrock_10}
SYSTEM_LABELS = ("Newton", "BGM", "IP-BGM(d=1)")


# ---------------------------------------------------------------------------
# experiment cells (top level so the process pool can pickle them)


def _timed_row(label, params, lam, problem):
    # a row reads only the counts and the status, so no per-iteration records
    start = time.perf_counter()
    trace = run_label(label, lam, problem, record="summary")
    return ResultRow(label, params, trace.iterations, trace.status, trace.fallbacks,
                     time.perf_counter() - start)


def _bench_cell(args):
    label, lam = args
    return _timed_row(label, {"lambda": lam}, lam, quadratic_weighted_50())


def _system_cell(args):
    label, name = args
    return _timed_row(label, {"problem": name}, 1.0, SYSTEM_PROBLEMS[name]())


def run_example1():
    """The 2-D motivating runs; returns (summary rows, BFGS angle rows)."""
    problem, setup = motivating_quadratic_2d()
    rows = []
    for label, theta in (("DFP", 1.0), ("BFGS", 0.0)):
        config = SolverConfig(rule=Broyden(theta), stop=GradNorm(setup["grad_rtol"]),
                              b0=setup["b0"], max_iters=60000, record="matrix")
        start = time.perf_counter()
        trace = minimize(problem, config)
        row = ResultRow(label, {"lambda": None}, trace.iterations, trace.status,
                        trace.fallbacks, time.perf_counter() - start)
        row.mean_angle = float(np.mean(trace.angles))
        rows.append(row)
    return rows, list(enumerate(trace.angles))


# ---------------------------------------------------------------------------
# table emission


def _fmt_lambda(lam):
    # a whole lambda prints as an integer only where that is short: 1e308
    # stays 1e+308 rather than 309 digits
    return str(int(lam)) if abs(lam) < 1e16 and float(lam) == int(lam) else str(lam)


def emit_table(headers, rows, fmt):
    """Render string cells as csv or a markdown pipe table.

    csv cells are minimally quoted, so method labels that contain commas
    (IP-LBFGS(N=4,d=3)) survive a csv.reader round trip.
    """
    if not rows:
        raise ValueError("refusing to emit an empty table")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "markdown":
        lines = ["| " + " | ".join(headers) + " |",
                 "|" + "|".join(" --- " for _ in headers) + "|"]
        lines += ["| " + " | ".join(r) + " |" for r in rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


# the two cell-table formatters: csv is one row per cell in cell order; the
# markdown pivot is one row per method and one column per params[key] value.
# The defaults are the lambda grid's, which perfbench renders as csv.


def _grid_cells(rows, columns, key="lambda", show=_fmt_lambda):
    headers = ["method", key, "iterations", "status", "fallbacks"]
    out = [[r.method, show(r.params[key]), str(r.iterations), r.status,
            str(r.fallbacks)] for r in rows]
    return headers, out


def _pivot(rows, columns, key, show):
    headers = ["Method"] + [show(c) for c in columns]
    by_method = {}
    for r in rows:
        cell = str(r.iterations) if r.status == "converged" else r.status
        by_method.setdefault(r.method, {})[r.params[key]] = cell
    out = [[m] + [cells.get(c, "") for c in columns] for m, cells in by_method.items()]
    return headers, out


# ---------------------------------------------------------------------------
# the command line


def _parse_list(text, conv, flag):
    try:
        values = [conv(item) for item in text.split(",") if item.strip()]
    except ValueError:
        raise click.UsageError(f"{flag} takes a comma-separated list, got {text!r}") from None
    if not values:
        raise click.UsageError(f"{flag} names no values")
    return values


def _parse_sizes(text, flag):
    # window sizes and memories count pairs, so each must be at least 1
    sizes = _parse_list(text, int, flag)
    if min(sizes) < 1:
        raise click.UsageError(f"{flag} values must be at least 1, got {text!r}")
    return sizes


def _check_windows(experiment, d_list, n_list):
    # a window of d steps must leave the quadratic a direction to project
    # onto (the drivers refuse d >= n), and table3's windows run d = 1, ...,
    # N - 1 when --d is not given
    dim = quadratic_weighted_50().n
    if d_list is not None and max(d_list) >= dim:
        raise click.UsageError(f"--d values must be below the problem's dimension {dim}, "
                               f"got {','.join(map(str, d_list))!r}")
    if experiment == "table3" and d_list is None and n_list is not None and max(n_list) > dim:
        raise click.UsageError(f"--n values must be at most {dim} without --d: table3's "
                               f"windows run d = 1, ..., N - 1 below the problem's dimension")


def _parse_lambdas(text):
    # B0 = lambda * I must be a finite positive multiple of the identity
    lams = _parse_list(text, float, "--lambdas")
    if not all(math.isfinite(lam) and lam > 0 for lam in lams):
        raise click.UsageError(f"--lambdas must be finite and positive, got {text!r}")
    return lams


def _check_out_dir(ctx, param, path):
    # click.Path checks only a file that exists; a missing or read-only
    # directory would otherwise fail after every cell has run
    if path is None:
        return None
    if not path:  # --out= is refused, not read as stdout
        raise click.BadParameter("an empty path names no file", ctx, param)
    parent = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise click.BadParameter(f"directory {parent!r} is missing or not writable", ctx, param)
    return path


def _filter_methods(labels, methods):
    if methods is None:
        return labels
    # label arguments contain commas inside parentheses (IP-LBFGS(N=4,d=3)),
    # so a comma separates labels only outside parentheses
    wanted = [m.strip().lower() for m in re.split(r",(?![^()]*\))", methods) if m.strip()]
    picked = []
    for label in labels:
        low = label.lower()
        if any(low == w or low.startswith(w + "(") for w in wanted):
            picked.append(label)
    if not picked:
        raise click.UsageError(f"--methods {methods!r} matches no method")
    return picked


_WORKERS_HELP = "worker processes (default: one per CPU this process may run on)"


@click.group()
def cli():
    """Quasi-Newton operator benchmarks and verification suites."""


@cli.command()
@click.option("--experiment", type=click.Choice(EXPERIMENTS), required=True)
@click.option("--methods", default=None, help="comma-separated method labels")
@click.option("--lambdas", default=None, help="comma-separated B0 scales")
@click.option("--d", default=None, help="comma-separated window sizes")
@click.option("--n", default=None, help="comma-separated memory sizes")
@click.option("--format", "fmt", type=click.Choice(["csv", "markdown"]), default="csv",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              callback=_check_out_dir, help="output path (default: stdout)")
@click.option("--workers", type=click.IntRange(min=1), default=None, help=_WORKERS_HELP)
def run(experiment, methods, lambdas, d, n, fmt, out, workers):
    """Run one experiment and emit its result table."""
    given = {"--methods": methods, "--lambdas": lambdas, "--d": d, "--n": n}
    unread = [flag for flag in _UNREAD.get(experiment, ()) if given[flag] is not None]
    if unread:
        raise click.UsageError(f"--experiment {experiment} reads no {', '.join(unread)}")
    if workers is None:
        workers = default_workers()
    # an empty value (--d=) is refused, not read as the default
    lam_list = _parse_lambdas(lambdas) if lambdas is not None else list(LAMBDAS)
    d_list = _parse_sizes(d, "--d") if d is not None else None
    n_list = _parse_sizes(n, "--n") if n is not None else None
    if experiment in ("table2", "table3"):
        _check_windows(experiment, d_list, n_list)

    start = time.perf_counter()
    if experiment == "example1":
        rows, angle_rows = run_example1()
        for r in rows:
            click.echo(
                f"{r.method}: {r.iterations} iterations, mean angle "
                f"{r.mean_angle:.4f} deg ({r.status})",
                err=True,
            )
        headers = ["iteration", "angle_deg"]
        body = [[str(k), f"{a:.4f}"] for k, a in angle_rows]
    else:
        if experiment == "systems":
            labels = _filter_methods(list(SYSTEM_LABELS), methods)
            columns, key, show, worker = list(SYSTEM_PROBLEMS), "problem", str, _system_cell
            cells = [(label, name) for name in columns for label in labels]
        else:
            if experiment == "table2":
                labels = table2_labels(n_list=n_list or (3, 10), d_list=d_list or (1, 2))
            else:
                labels = table3_labels(n_list=n_list or (3, 4, 5), d_list=d_list)
            labels = _filter_methods(labels, methods)
            columns, key, show, worker = lam_list, "lambda", _fmt_lambda, _bench_cell
            cells = [(label, lam) for label in labels for lam in columns]
        rows = _run_pool(cells, worker, workers)
        table = _pivot if fmt == "markdown" else _grid_cells
        headers, body = table(rows, columns, key, show)

    text = emit_table(headers, body, fmt)
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
    click.echo(f"wall time: {time.perf_counter() - start:.2f}s", err=True)
    sys.exit(int(any(r.status != "converged" for r in rows)))


@cli.command()
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=500, show_default=True)
@click.option("--workers", type=click.IntRange(min=1), default=None, help=_WORKERS_HELP)
def verify(seed, trials, workers):
    """Run every oracle suite and report one line per suite."""
    start = time.perf_counter()
    rows = lab.verify_all(seed=seed, trials=trials, workers=workers)
    for row in rows:
        click.echo(str(row))
    bad = sum(r.violations for r in rows)
    click.echo(f"wall time: {time.perf_counter() - start:.2f}s", err=True)
    if bad:
        click.echo(f"{bad} oracle violation(s)", err=True)
        sys.exit(2)


def main(argv=None):
    """Entry point with the documented exit-code contract (usage errors -> 3)."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        exc.show()
        sys.exit(3)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(130)
    return 0


if __name__ == "__main__":
    main()
