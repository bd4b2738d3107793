"""One workload pass in a fresh interpreter: the in-process half of perfbench/run.py.

Drives the workload once through qnops' public API at ``--workers 1`` and
prints one JSON line: the pass time, the per-cell record, the rendered output
(checked against the goldens by run.py), the peak RSS of this process and the
BLAS build and thread variables this process sees.  With ``--trace 1`` it adds
one traced pass, times the kernels and reports the per-layer metrics.
"""

import argparse
import contextlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

import numpy as np

from qnops import cli, lab, solvers

import kernels
import reference
import spans
from run import THREAD_VARS

SHORT_CELL_S = 0.1
SWEEPS = 1


@contextlib.contextmanager
def ticking(clock, points):
    """Make every call through ``points`` (module, attribute) tick ``clock``."""
    saved = [(module, attr, getattr(module, attr)) for module, attr in points]

    def ticker(fn):
        def call(*args, **kwargs):
            clock.tick()
            return fn(*args, **kwargs)
        return call

    for module, attr, fn in saved:
        setattr(module, attr, ticker(fn))
    try:
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def grid(labels, order_seed, clock):
    """The table2/table3 cells one at a time through ``cli._bench_cell``, in a
    shuffled order so that cells of every size are spread over the pass; the
    table keeps the CLI order and is rendered by the CLI's own code.

    With a ``clock``, every cell is timed by it, and the cells shorter than
    SHORT_CELL_S then run again in SWEEPS more shuffled sweep(s): those cells
    set the µs/iter percentiles, and one execution of a few milliseconds is a
    poor sample.  The sweeps are not part of the pass time, and each rerun
    must repeat the cell's iterations, status and fallbacks.
    """
    specs = [(label, lam) for label in labels for lam in cli.LAMBDAS]
    order = list(range(len(specs)))
    rng = random.Random(order_seed)
    rng.shuffle(order)
    rows = [None] * len(specs)
    walls = [[] for _ in specs]
    scaled = [[] for _ in specs]

    def run_cell(i):
        row = cli._bench_cell(specs[i])
        if clock is None:
            walls[i].append(row.wall_time)
        else:
            raw, at_reference = clock.lap()
            walls[i].append(raw)
            scaled[i].append(at_reference)
        return row

    if clock is not None:
        clock.lap()
    start = time.perf_counter()
    for i in order:
        rows[i] = run_cell(i)
    wall = time.perf_counter() - start
    headers, body = cli._grid_cells(rows, cli.LAMBDAS)
    out = {"wall_s": wall, "stdout": cli.emit_table(headers, body, "csv"),
           "reruns": 0, "rerun_mismatches": 0}
    short = [i for i in order if walls[i][0] < SHORT_CELL_S] if clock else []
    for _ in range(SWEEPS if short else 0):
        rng.shuffle(short)
        for i in short:
            # ResultRow equality leaves out the wall time
            out["rerun_mismatches"] += run_cell(i) != rows[i]
        out["reruns"] += len(short)
    out["cells"] = [{"label": r.method, "lambda": r.params["lambda"], "iterations": r.iterations,
                     "status": r.status, "fallbacks": r.fallbacks, "wall_s": walls[i],
                     "scaled_s": scaled[i]} for i, r in enumerate(rows)]
    return out


def verify(seed, clock):
    """``verify_all`` as one cell; the oracle trials stand in for iterations."""
    if clock is not None:
        clock.lap()
    start = time.perf_counter()
    rows = lab.verify_all(seed=seed, trials=500)
    wall = time.perf_counter() - start
    scaled = []
    if clock is not None:
        wall, at_reference = clock.lap()
        scaled.append(at_reference)
    cells = [{"label": "verify_all", "lambda": None, "iterations": sum(r.trials for r in rows),
              "suites": len(rows), "violations": sum(r.violations for r in rows),
              "wall_s": [wall], "scaled_s": scaled}]
    # the lines `qnops-bench verify` prints
    return {"wall_s": wall, "cells": cells, "stdout": "".join(f"{r}\n" for r in rows)}


# calls made many times a second throughout each workload, where the probe
# clock may stop the work for a probe
TICK_POINTS = {
    "grid": [(solvers, "line_search")],
    "verify": [(lab, "weighted_frobenius_error"), (lab, "random_spd_matrix"),
               (lab, "kernel_basis"), (lab, "run_process")],
}


def one_pass(workload, seed, index, measured):
    """One pass; when ``measured``, timed at the reference speed by a probe
    clock that the workload's tick points drive."""
    clock = reference.ProbeClock() if measured else None
    kind = "verify" if workload == "verify" else "grid"
    with ticking(clock, TICK_POINTS[kind]) if measured else contextlib.nullcontext():
        if workload == "verify":
            return verify(seed, clock)
        labels = cli.table2_labels() if workload == "table2" else cli.table3_labels()
        return grid(labels, index, clock)


def blas_record():
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": config.get("name"),
            "blas_version": config.get("version"),
            "openblas_configuration": config.get("openblas configuration"),
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS}}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True, help="pass number; shuffles the grid")
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--root", required=True)
    args = parser.parse_args()

    src = Path(args.root).resolve() / "src"
    if Path(cli.__file__).resolve().parents[1] != src:
        sys.exit(f"qnops imported from {cli.__file__}, not from {src}")

    untraced = one_pass(args.workload, args.seed, args.index, measured=not args.trace)
    out = {"blas": blas_record(), "pass": untraced}
    if args.trace:
        tracer = spans.Tracer()
        with tracer.installed():
            start = time.perf_counter()
            traced = one_pass(args.workload, args.seed, args.index + 1, measured=False)
            traced_wall = time.perf_counter() - start
        spans_path = Path(args.root) / "perfbench" / "results" / (
            f"{args.workload}.seed{args.seed}.spans.npz")
        spans_path.parent.mkdir(exist_ok=True)
        tracer.save(spans_path)
        layers = tracer.metrics(traced_wall)
        layers["trace.overhead_ratio"] = (traced_wall / untraced["wall_s"], "ratio")
        layers.update(kernels.measure())
        out.update(traced=traced, layers=layers, spans_file=str(spans_path))
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))


if __name__ == "__main__":
    main()
