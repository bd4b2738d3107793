"""The public names: every entry of a module's ``__all__`` and of the package's
resolves, the package's list is the join of its modules' lists, and
``from qnops import *`` imports them all; and every package
function the benchmark in ``perfbench/`` patches resolves and is called."""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import qnops
from qnops import cli, lab, solvers

MODULES = sorted(m.name for m in pkgutil.iter_modules(qnops.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"qnops.{name}")
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []


def test_package_all_is_the_join_of_the_module_lists():
    # each public name is stated once, in its module's __all__
    modules = ("linalg", "updates", "operators", "problems", "solvers", "lab")
    joined = [n for m in modules for n in importlib.import_module(f"qnops.{m}").__all__]
    assert qnops.__all__ == joined


def test_package_all_resolves_and_star_import_works():
    assert len(qnops.__all__) == len(set(qnops.__all__))
    assert [n for n in qnops.__all__ if not hasattr(qnops, n)] == []
    namespace = {}
    exec("from qnops import *", namespace)
    assert set(qnops.__all__) <= set(namespace)


# ---------------------------------------------------------------------------
# the benchmark's hooks: perfbench/ patches package functions by (module,
# attribute); a renamed or inlined one would stop its probe clock or empty its
# trace without any other test failing


class _NoClock:
    def tick(self):
        pass


@pytest.fixture(scope="module")
def perfbench():
    path = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, path)
    try:
        return importlib.import_module("spans"), importlib.import_module("worker")
    finally:
        sys.path.remove(path)


def test_benchmark_hooks_resolve(perfbench):
    spans, worker = perfbench
    points = [(module, attr) for module, attr, _ in spans.SPANS + spans.CELLS]
    points += [point for tick in worker.TICK_POINTS.values() for point in tick]
    assert [(m.__name__, a) for m, a in points if not callable(getattr(m, a, None))] == []


def test_grid_cell_ticks_the_probe_clock_once_per_iteration(perfbench):
    _, worker = perfbench

    class Clock:
        ticks = 0

        def tick(self):
            self.ticks += 1

    clock = Clock()
    with worker.ticking(clock, worker.TICK_POINTS["grid"]):
        row = cli._bench_cell(("DFP", 50.0))
    assert (row.status, row.iterations) == ("converged", 124)
    assert clock.ticks == row.iterations
    assert solvers.line_search.__name__ == "line_search"  # the patch is undone


def test_traced_grid_cell_counts_its_iterations_and_line_searches(perfbench):
    spans, _ = perfbench
    tracer = spans.Tracer()
    with tracer.installed():
        row = cli._bench_cell(("DFP", 50.0))
    layers = tracer.metrics(1.0)
    assert row.iterations == 124
    assert layers["solvers.iterations"][0] == layers["solvers.line_search.calls"][0] == 124
    assert layers["updates.broyden_update.calls"][0] == 124


def test_traced_verify_pickles_its_pool_tasks(perfbench):
    # the pool pickles each task by name; a task the tracer or the probe
    # clock replaced in lab would no longer be the function under its name
    spans, worker = perfbench
    serial = lab.verify_all(seed=0, trials=5, workers=1)
    with spans.Tracer().installed(), worker.ticking(_NoClock(), worker.TICK_POINTS["verify"]):
        assert lab.verify_all(seed=0, trials=5, workers=2) == serial
