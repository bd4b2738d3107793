"""Kernel microbenchmarks at the sizes the workloads run.

Inputs are fixed and seeded, independent of the benchmark seed.  Each kernel
reports ``<module>.<function>.<size>.us_per_call`` (median of repeats) with
``computed_flops`` and ``computed_bytes``: operation and traffic counts worked
out from the formulas, not measured.  Bytes count 8 per float64 element of
every n x n (or n x m) operand read and result written, NumPy temporaries
included, and ignore caches; O(n) vector traffic is left out of the dense
updates.  Next to ``us_per_call`` they show how much of each kernel is call
overhead rather than arithmetic.
"""

import statistics
import time

import numpy as np

from qnops.operators import RawHistory, normal_eq_projection
from qnops.problems import random_spd_matrix
from qnops.linalg import angle_to_subspace
from qnops.updates import SecantPair, broyden_update, gpsb_update, lbfgs_direction

SEED = 20250810
REPEATS = 7
TARGET_S = 0.02  # calls per repeat are calibrated to about this long


def _pairs(rng, a, count):
    pairs = []
    for _ in range(count):
        s = rng.standard_normal(a.shape[0])
        pairs.append(SecantPair(s, a @ s))
    return pairs


def _cases():
    """(name, callable, computed flops, computed bytes) for every kernel."""
    rng = np.random.default_rng(SEED)
    cases = []
    for n in (50, 2):
        a = random_spd_matrix(n, rng)
        b = random_spd_matrix(n, rng)
        pair = _pairs(rng, a, 1)[0]
        thetas = (0.0, 1.0) if n == 50 else (0.0,)
        for theta in thetas:
            # Bs, ||B||_F, two scaled outers, two adds; theta adds w w'
            flops = 10 * n * n + 10 * n + (3 * n * n + 3 * n if theta else 0)
            elems = 14 * n * n + (6 * n * n if theta else 0)
            size = f"n{n}_theta{int(theta)}" if n == 50 else f"n{n}"
            cases.append((f"updates.broyden_update.{size}",
                          lambda b=b, p=pair, t=theta: broyden_update(b, p, t), flops, 8 * elems))
        if n == 50:
            cases.append(("updates.gpsb_update.n50", lambda b=b, p=pair: gpsb_update(b, p),
                          9 * n * n + 6 * n, 8 * 17 * n * n))
            g = rng.standard_normal(n)
            for memory in (3, 5, 10):
                hist = _pairs(rng, a, memory)
                cases.append((f"updates.lbfgs_direction.n50_N{memory}",
                              lambda h=hist: lbfgs_direction(h, g, 1.0 / 50),
                              12 * memory * n + n, 8 * (18 * memory * n + 4 * n)))
            for m in (1, 2, 3, 4):
                raw = RawHistory(m)
                for old in _pairs(rng, a, m):
                    raw.append(old.s, old.y)
                # build S, Y; S'Y + Y'S; right-hand side; s - S beta, y - Y beta
                flops = 4 * m * m * n + 8 * m * n + 8 * n
                cases.append((f"operators.normal_eq_projection.n50_m{m}",
                              lambda r=raw, p=pair: normal_eq_projection(p, r, "broyden"),
                              flops, 8 * (12 * m * n + 10 * n)))
            # the LU solve minimize makes every iteration: 2/3 n^3 + 2 n^2
            cases.append(("solvers.dense_solve.n50", lambda b=b, g=g: np.linalg.solve(b, g),
                          2 * n ** 3 // 3 + 2 * n * n, 8 * (2 * n * n + 2 * n)))
        else:
            basis = rng.standard_normal((n, 1))
            cases.append(("linalg.angle_to_subspace.n2",
                          lambda s=pair.s, v=basis: angle_to_subspace(s, v), 10 * n + 20, 8 * 6 * n))
    return cases


def _us_per_call(fn):
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        took = time.perf_counter() - start
        if took >= TARGET_S / 4:
            break
        calls *= 4
    calls = max(1, int(calls * TARGET_S / took))
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def measure():
    out = {}
    for name, fn, flops, nbytes in _cases():
        out[f"{name}.us_per_call"] = (_us_per_call(fn), "us")
        out[f"{name}.computed_flops"] = (flops, "flop")
        out[f"{name}.computed_bytes"] = (nbytes, "B")
    return out
