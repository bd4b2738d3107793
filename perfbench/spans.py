"""Span tracing from outside the package, and the per-layer metrics it yields.

The tracer replaces functions at the names their callers resolve at call time:
``solvers`` and ``lab`` import the update, operator and linalg functions by
name, so a wrapper on ``qnops.updates.broyden_update`` alone would record
nothing.  Every wrapped call records a span (name, start, end, parent span,
cell id).  A cell is one solver call (``minimize``, ``minimize_lbfgs``) or one
``verify_all`` call; its spans share the cell id.  Spans stay in memory and
are written out once the run ends.  Self time is a span's duration minus the
time its direct children cover.
"""

import contextlib
import time
from array import array
from collections import Counter

import numpy as np

from qnops import cli, lab, solvers

# (module, attribute, span name); the name is where the function is defined
SPANS = [
    (solvers, "broyden_update", "updates.broyden_update"),
    (solvers, "gpsb_update", "updates.gpsb_update"),
    (lab, "broyden_update", "updates.broyden_update"),
    (lab, "gpsb_update", "updates.gpsb_update"),
    (lab, "dfp_direct_update", "updates.dfp_direct_update"),
    (solvers, "image_direction_broyden", "operators.image_direction_broyden"),
    (solvers, "line_search", "solvers.line_search"),
    (lab, "weighted_frobenius_error", "linalg.weighted_frobenius_error"),
    (lab, "kernel_basis", "linalg.kernel_basis"),
    (lab, "random_spd_matrix", "problems.random_spd_matrix"),
    (lab, "run_process", "lab.run_process"),
    (lab, "oracle_error_reduction", "lab.oracle_error_reduction"),
    (lab, "oracle_image_operator_gain", "lab.oracle_image_operator_gain"),
    (lab, "oracle_projection_gain", "lab.oracle_projection_gain"),
    (lab, "oracle_lemmas", "lab.oracle_lemmas"),
    (lab, "check_kernel_growth", "lab.check_kernel_growth"),
]
# calls that open a new cell: the solvers as ``cli._bench_cell`` resolves them,
# and ``verify_all`` as the benchmark calls it
CELLS = [
    (cli, "minimize", "solvers.minimize"),
    (cli, "minimize_lbfgs", "solvers.minimize_lbfgs"),
    (lab, "verify_all", "lab.verify_all"),
]

CALL_METRICS = {
    "updates.broyden_update": ("calls", "us_per_call", "raised"),
    "updates.gpsb_update": ("calls", "us_per_call", "raised"),
    "updates.dfp_direct_update": ("calls", "us_per_call", "raised"),
    "updates.lbfgs_direction": ("calls", "us_per_call"),
    "operators.normal_eq_projection": ("calls", "us_per_call"),
    "operators.image_direction_broyden": ("calls", "us_per_call"),
    "solvers.line_search": ("calls",),
    "problems.gradient": ("calls", "us_per_call"),
    "problems.random_spd_matrix": ("calls", "us_per_call"),
    "linalg.weighted_frobenius_error": ("calls", "us_per_call"),
    "linalg.kernel_basis": ("calls", "us_per_call"),
    "lab.run_process": ("calls", "self_s", "us_per_call"),
    "lab.oracle_error_reduction": ("calls", "self_s", "us_per_call"),
    "lab.oracle_image_operator_gain": ("calls", "self_s", "us_per_call"),
    "lab.oracle_projection_gain": ("calls", "self_s", "us_per_call"),
    "lab.oracle_lemmas": ("calls", "self_s", "us_per_call"),
    "lab.check_kernel_growth": ("calls", "self_s", "us_per_call"),
    "lab.verify_all": ("self_s",),
}
UNITS = {"calls": "count", "raised": "count", "self_s": "s", "us_per_call": "us"}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.cell = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.cells = -1
        self.raised = Counter()
        self.counts = Counter()  # exact-repeat counts gathered from arguments and results

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name, new_cell=False, after=None):
        nid = self._name_id(name)
        stack, start, end = self.stack, self.start, self.end

        def traced(*args, **kwargs):
            if new_cell:
                self.cells += 1
            idx = len(start)
            self.name_of.append(nid)
            self.parent.append(stack[-1])
            self.cell.append(self.cells)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[name] += 1
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _traced_problem(self, factory):
        """The factory, with a traced gradient on every problem it builds."""
        def build(*args, **kwargs):
            problem = factory(*args, **kwargs)
            problem.gradient = self.wrap(problem.gradient, "problems.gradient")
            return problem

        return build

    def _after_solve(self, name):
        def after(args, result):
            self.counts[f"{name}.iterations"] += result.iterations

        return after

    def _after_lbfgs_direction(self, args, result):
        self.counts["updates.lbfgs_direction.pairs"] += len(args[0])

    def _after_projection(self, args, result):
        m = len(args[1])
        self.counts[f"operators.normal_eq_projection.calls_m{m}"] += 1
        if m:
            self.counts["operators.normal_eq_projection.attempts"] += 1
            reason = result[2]
            key = "projected" if reason is None else reason
            self.counts[f"operators.normal_eq_projection.{key}"] += 1

    @contextlib.contextmanager
    def installed(self):
        """Swap every wrapper in for the duration of the block."""
        saved = []

        def put(module, attr, wrapper):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

        for module, attr, name in SPANS:
            put(module, attr, self.wrap(getattr(module, attr), name))
        put(solvers, "lbfgs_direction", self.wrap(
            solvers.lbfgs_direction, "updates.lbfgs_direction", after=self._after_lbfgs_direction))
        put(solvers, "normal_eq_projection", self.wrap(
            solvers.normal_eq_projection, "operators.normal_eq_projection",
            after=self._after_projection))
        for module, attr, name in CELLS:
            after = self._after_solve(name) if attr.startswith("minimize") else None
            put(module, attr, self.wrap(getattr(module, attr), name, new_cell=True, after=after))
        put(cli, "quadratic_weighted_50", self._traced_problem(cli.quadratic_weighted_50))
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _arrays(self):
        name = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return name, parent, dur, dur - covered

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), name=np.asarray(self.name_of),
                            parent=np.asarray(self.parent), cell=np.asarray(self.cell),
                            start=np.asarray(self.start), end=np.asarray(self.end))

    def metrics(self, wall_s):
        """Per-layer metrics as {name: (value, unit)} for a traced run of wall_s."""
        name, parent, dur, self_t = self._arrays()
        calls = np.bincount(name, minlength=len(self.names))
        total = np.bincount(name, weights=dur, minlength=len(self.names))
        own = np.bincount(name, weights=self_t, minlength=len(self.names))

        def stat(span, quantity):
            i = self.names.index(span) if span in self.names else None
            n = int(calls[i]) if i is not None else 0
            if quantity == "calls":
                return n
            if quantity == "raised":
                return self.raised[span]
            if quantity == "self_s":
                return float(own[i]) if n else 0.0
            return float(total[i]) / n * 1e6 if n else 0.0

        out = {}
        for span, quantities in CALL_METRICS.items():
            for q in quantities:
                out[f"{span}.{q}"] = (stat(span, q), UNITS[q])

        c = self.counts
        n_dir = stat("updates.lbfgs_direction", "calls")
        out["updates.lbfgs_direction.mean_pairs"] = (
            c["updates.lbfgs_direction.pairs"] / n_dir if n_dir else 0.0, "pairs")
        for m in range(1, 5):
            key = f"operators.normal_eq_projection.calls_m{m}"
            out[key] = (c[key], "count")
        attempts = c["operators.normal_eq_projection.attempts"]
        out["operators.normal_eq_projection.accept_ratio"] = (
            c["operators.normal_eq_projection.projected"] / attempts if attempts else 0.0, "ratio")
        for reason in ("discard", "curvature", "singular"):
            key = f"operators.normal_eq_projection.{reason}"
            out[key] = (c[key], "count")

        iterations = 0
        for solver in ("solvers.minimize", "solvers.minimize_lbfgs"):
            its = c[f"{solver}.iterations"]
            iterations += its
            out[f"{solver}.self_us_per_iter"] = (
                stat(solver, "self_s") / its * 1e6 if its else 0.0, "us")
        out["solvers.iterations"] = (iterations, "count")

        top = float(dur[parent < 0].sum())
        out["trace.coverage"] = (top / wall_s, "ratio")
        return out
