"""End-to-end acceptance run.

One test per published reference result, checked at its stated tolerance.
Each test prints a single ``criterion NN ... PASS/FAIL`` line (shown with
``-s``, or in the captured output of a failing test) and asserts on the full
list of sub-checks that missed, naming the reference value next to the
measured one.  The reference tables are inlined verbatim so a regression in
any single cell is loud.  Where the documented method cannot produce a
published entry, the entry is kept next to its correction as a named
erratum, and the evidence for the correction is a test in this file.
"""

from collections import deque
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from qnops.cli import _bench_cell, _system_cell, run_example1
from qnops.lab import verify_all
from qnops.operators import RawHistory, normal_eq_projection
from qnops.problems import circle_cosine_system, random_spd_matrix
from qnops.solvers import BGM, ResidualNorm, SolverConfig, solve_system
from qnops.updates import SecantPair, broyden_update, lbfgs_direction

from test_operators import ref_gram_schmidt_transform

LAMBDAS = (50.0, 100.0, 200.0, 500.0, 1000.0, 5000.0)

# reference iteration counts on the 50-dimensional weighted quadratic,
# one tuple entry per lambda in LAMBDAS order
STANDARD_COUNTS = {
    "DFP": (124, 235, 454, 1121, 2221, 11096),
    "BFGS": (55, 79, 110, 157, 194, 279),
    "PSB": (88, 135, 229, 663, 1554, 9084),
    "LBFGS(N=10)": (81, 128, 223, 240, 313, 453),
}
IMAGE_COUNTS = {
    "Im-DFP": (22, 29, 33, 35, 36, 36),
    "Im-BFGS": (22, 29, 33, 35, 36, 36),
    "Im-PSB": (21, 29, 33, 35, 36, 36),
    "Im-LBFGS(N=10)": (26, 30, 33, 35, 36, 36),
}
PROJECTED_COUNTS = {
    "IP-BFGS(d=2)": (47, 65, 85, 113, 133, 177),
    "IP-DFP(d=2)": (83, 121, 186, 335, 516, 1711),
    "IP-PSB(d=2)": (53, 84, 145, 321, 598, 2717),
}
MEMORY_COUNTS = {
    "LBFGS(N=4)": (91, 137, 195, 570, 647, 3426),
    "IP-LBFGS(N=5,d=3)": (61, 70, 81, 103, 135, 249),
}

# nonlinear systems, residual stop 1e-7, unit steps, B0 = I
SYSTEM_EXACT = {
    ("Newton", "circle-cosine"): 23,
    ("Newton", "rosenbrock-10"): 2,
    ("BGM", "rosenbrock-10"): 15,
}
SYSTEM_NEAR = {
    ("IP-BGM(d=1)", "circle-cosine"): 51,
    ("IP-BGM(d=1)", "rosenbrock-10"): 5,
}
# Plain BGM on circle-cosine ends at the singular root (1, 0) (see
# problems.circle_cosine_system), where its count is a property of the
# rounding, not of the method: relative 1e-12 changes of x0 spread it from
# 50 to 48838 iterations over 900 starts, and an LU solve in place of the QR
# solve gives 1236 instead of 149.  The published count is checked as a
# typical member (10th-90th percentile) of a seeded ensemble of such starts.
BGM_CIRCLE_COSINE = 572
ENSEMBLE_SEED = 0
ENSEMBLE_SIZE = 32
ENSEMBLE_PERTURBATION = 1e-12  # relative, per coordinate


class Erratum(NamedTuple):
    published: float
    corrected: float
    reason: str


# 2-D angle study, BFGS half: published entries that the documented setup
# cannot produce, corrected to the 60-digit replay of that setup
# (test_c06_replay_in_extended_precision)
EXAMPLE1_ERRATA = {
    "BFGS iterations": Erratum(
        16, 17,
        "||g_16|| = 5.778e-6 is above the stop threshold 1e-6 ||g_0||, so a"
        " 17th step (index 16) is taken; the published angle at iteration 16"
        " exists only because of it",
    ),
    "BFGS angle at iteration 5": Erratum(
        4.9044, 4.9944,
        "the replay gives 4.99437537 deg, between 3.0090 (iteration 4) and"
        " 7.9075 (iteration 6); the published value differs in one digit",
    ),
}

TERMINATION_ROWS = (
    "termination/broyden-theta0-image",
    "termination/broyden-theta0-orthogonalized",
    "termination/broyden-theta1-image",
    "termination/broyden-theta1-orthogonalized",
    "termination/psb-image",
    "termination/psb-orthogonalized",
    "termination/bgm-image",
    "termination/bgm-orthogonalized",
)
LEMMA_ROWS = (
    "lemma/projected-contraction",
    "lemma/image-ratio",
    "lemma/one-sided-ratio",
    "lemma/least-change-direct",
    "lemma/least-change-dual",
)
ANGLE_IDENTITY_ROWS = (
    "projection-gain/gpsb-kernel",
    "projection-gain/gpsb-subspace",
    "projection-gain/bgm-kernel",
    "projection-gain/bgm-subspace",
)


@pytest.fixture(scope="module")
def suite():
    """One shared oracle run for criteria 7-9: 500 trials per inequality."""
    return {row.name: row for row in verify_all(seed=0, trials=500)}


@pytest.fixture(scope="module")
def example1():
    """One shared run of the 2-D study for criterion 6 and its replay."""
    return run_example1()


def _report(num, title, failures, passed_note=""):
    verdict = "FAIL" if failures else "PASS"
    line = f"criterion {num:2d} [{title}]: {verdict}"
    if failures:
        line += f" — {failures[0]}"
        if len(failures) > 1:
            line += f" (+{len(failures) - 1} more)"
    elif passed_note:
        line += f" — {passed_note}"
    print(line)
    assert not failures, f"criterion {num} [{title}]:\n" + "\n".join(failures)


def _grid_failures(table, tol_of):
    failures = []
    for label, wanted in table.items():
        for lam, want in zip(LAMBDAS, wanted):
            row = _bench_cell((label, lam))
            tol = tol_of(want)
            if row.status != "converged":
                failures.append(
                    f"{label} @ lambda={lam:g}: {row.status}"
                    f" after {row.iterations} iterations"
                )
            elif abs(row.iterations - want) > tol:
                failures.append(
                    f"{label} @ lambda={lam:g}: {row.iterations} iterations,"
                    f" reference {want} (tolerance ±{tol:g})"
                )
    return failures


def test_c01_standard_method_grid():
    failures = _grid_failures(STANDARD_COUNTS, lambda want: max(2.0, 0.02 * want))
    _report(1, "standard grid, ±max(2, 2%)", failures, "24/24 cells")


def test_c02_image_corrected_grid():
    failures = _grid_failures(IMAGE_COUNTS, lambda want: max(2.0, 0.02 * want))
    _report(2, "image-corrected grid, ±max(2, 2%)", failures, "24/24 cells")


def test_c03_projected_grid():
    failures = _grid_failures(PROJECTED_COUNTS, lambda want: 0.05 * want)
    _report(3, "window-projected grid (d=2), ±5%", failures, "18/18 cells")


def test_c04_limited_memory_rows():
    failures = _grid_failures(MEMORY_COUNTS, lambda want: 0.05 * want)
    _report(4, "limited-memory rows, ±5%", failures, "12/12 cells")


def test_c05_nonlinear_systems():
    failures = []
    for (label, problem), want in SYSTEM_EXACT.items():
        row = _system_cell((label, problem))
        if row.status != "converged" or row.iterations != want:
            failures.append(
                f"{label} on {problem}: {row.iterations} iterations"
                f" ({row.status}), reference {want} (exact)"
            )
    for (label, problem), want in SYSTEM_NEAR.items():
        row = _system_cell((label, problem))
        if row.status != "converged" or abs(row.iterations - want) > 0.10 * want:
            failures.append(
                f"{label} on {problem}: {row.iterations} iterations"
                f" ({row.status}), reference {want} ±10%"
            )

    # BGM on circle-cosine: true convergence from x0 and from every start of
    # the ensemble, and the published count inside the ensemble's q10-q90
    row = _system_cell(("BGM", "circle-cosine"))
    trace, residual = _bgm_circle_cosine()
    if (row.status != "converged" or trace.status != "converged"
            or trace.iterations != row.iterations or not residual <= 1e-7):
        failures.append(
            f"BGM on circle-cosine: {row.iterations} iterations ({row.status}),"
            f" rerun {trace.iterations} ({trace.status}),"
            f" true residual {residual:.2e}, need converged with <= 1e-7"
        )
    x0 = circle_cosine_system().x0
    xis = np.random.default_rng(ENSEMBLE_SEED).standard_normal((ENSEMBLE_SIZE, 2))
    counts = []
    for i, xi in enumerate(xis):
        trace, residual = _bgm_circle_cosine(x0 * (1.0 + ENSEMBLE_PERTURBATION * xi))
        counts.append(trace.iterations)
        if trace.status != "converged" or not residual <= 1e-7:
            failures.append(
                f"BGM on circle-cosine from perturbed start {i}: {trace.status}"
                f" after {trace.iterations} iterations, true residual {residual:.2e}"
            )
    lo, hi = np.percentile(counts, [10, 90])
    if not lo <= BGM_CIRCLE_COSINE <= hi:
        failures.append(
            f"BGM on circle-cosine: reference {BGM_CIRCLE_COSINE} outside"
            f" [{lo:.0f}, {hi:.0f}], the 10th-90th percentiles of"
            f" {ENSEMBLE_SIZE} starts perturbed by {ENSEMBLE_PERTURBATION:g}"
        )
    _report(5, "nonlinear systems", failures,
            f"5/5 cells, BGM circle-cosine q10-q90 {lo:.0f}-{hi:.0f}")


def _bgm_circle_cosine(x0=None):
    """Plain BGM on circle-cosine as the systems experiment runs it.

    Returns the trace and ||F|| re-evaluated at the returned iterate.
    """
    system = circle_cosine_system()
    if x0 is not None:
        system = replace(system, x0=x0)
    config = SolverConfig(rule=BGM(), stop=ResidualNorm(1e-7), b0=1.0, max_iters=200000)
    trace = solve_system(system, config)
    return trace, float(np.linalg.norm(system.residual(trace.x)))


def _erratum(name):
    """Corrected value of a published entry, and a note naming the erratum."""
    e = EXAMPLE1_ERRATA[name]
    return e.corrected, f" (erratum for published {e.published}: {e.reason})"


def test_c06_ill_conditioned_2d_angles(example1):
    failures = []
    rows, angle_rows = example1
    by_method = {r.method: r for r in rows}
    dfp, bfgs = by_method["DFP"], by_method["BFGS"]
    if dfp.iterations != 37554:
        failures.append(f"DFP iterations {dfp.iterations}, reference 37554")
    if abs(dfp.mean_angle - 0.6939) > 0.01:
        failures.append(
            f"DFP mean angle {dfp.mean_angle:.4f} deg, reference 0.6939 ±0.01"
        )
    want_iters, note = _erratum("BFGS iterations")
    if bfgs.iterations != want_iters:
        failures.append(
            f"BFGS iterations {bfgs.iterations}, reference {want_iters}{note}"
        )
    angle5, note5 = _erratum("BFGS angle at iteration 5")
    angles = dict(angle_rows)
    for k, want, note in ((0, 0.0038, ""), (5, angle5, note5), (16, 44.7988, "")):
        got = angles.get(k)
        if got is None:
            failures.append(f"BFGS angle at iteration {k} missing, reference {want}")
        elif abs(got - want) > 0.001:
            failures.append(
                f"BFGS angle at iteration {k}: {got:.6f} deg,"
                f" reference {want} ±0.001{note}"
            )
    _report(6, "2-D angle study", failures,
            f"DFP + BFGS angle traces, {len(EXAMPLE1_ERRATA)} errata")


def _replay_bfgs_2d(mpmath, digits=60):
    """The documented 2-D BFGS run in extended precision.

    A = I, x0 = (cos 89 deg, sin 89 deg), B0 = diag(1, 1e6), unit steps,
    stop once ||g|| <= 1e-6 ||g_0||; the angle at iteration k is the one
    between s_k and the eigenvector of B_k - A whose eigenvalue is smallest
    in magnitude.  Returns (iterations, angles in degrees, gradient norms).
    """
    with mpmath.workdps(digits):
        theta = mpmath.radians(89)
        x = mpmath.matrix([mpmath.cos(theta), mpmath.sin(theta)])
        B = mpmath.diag([1, 10**6])
        g = x  # gradient of 1/2 x'x
        threshold = mpmath.mpf("1e-6") * mpmath.norm(g)
        angles, grad_norms = [], [mpmath.norm(g)]
        while grad_norms[-1] > threshold:
            s = -mpmath.lu_solve(B, g)
            w, V = mpmath.eigsy(B - mpmath.eye(2))
            v = V[:, 0] if abs(w[0]) <= abs(w[1]) else V[:, 1]
            cos = abs((v.T * s)[0]) / (mpmath.norm(v) * mpmath.norm(s))
            angles.append(mpmath.degrees(mpmath.acos(min(cos, 1))))
            y = s  # gradient difference: A s
            Bs = B * s
            B = B - (Bs * Bs.T) / (s.T * Bs)[0] + (y * y.T) / (s.T * y)[0]
            x = x + s
            g = x
            grad_norms.append(mpmath.norm(g))
        return (len(angles), [float(a) for a in angles],
                [float(n) for n in grad_norms])


def test_c06_replay_in_extended_precision(example1):
    mpmath = pytest.importorskip("mpmath")
    iterations, angles, grad_norms = _replay_bfgs_2d(mpmath)
    rows, angle_rows = example1
    bfgs = {r.method: r for r in rows}["BFGS"]

    # the float64 run follows the 60-digit one step for step
    assert bfgs.iterations == iterations
    got = np.array([a for _, a in angle_rows])
    assert got.shape == (iterations,)
    np.testing.assert_allclose(got, angles, rtol=0.0, atol=1e-6)

    # each erratum's correction is the replay's value, its published value is not
    iters = EXAMPLE1_ERRATA["BFGS iterations"]
    assert iters.corrected == iterations != iters.published
    assert grad_norms[16] > 1e-6 * grad_norms[0] >= grad_norms[17]
    angle5 = EXAMPLE1_ERRATA["BFGS angle at iteration 5"]
    assert round(angles[5], 4) == angle5.corrected
    assert abs(angles[5] - angle5.published) > 0.001


def test_c07_finite_termination(suite):
    failures = []
    for name in TERMINATION_ROWS:
        row = suite.get(name)
        if row is None:
            failures.append(f"{name}: suite row missing")
        elif row.trials < 100 or row.violations:
            failures.append(
                f"{name}: {row.violations} failures over {row.trials} instances"
                f" (worst relative error {row.max_residual:.2e})"
            )
    _report(7, "finite termination, 100 seeded runs each", failures,
            f"{len(TERMINATION_ROWS)} family/source combinations clean")


def test_c08_inequality_oracles(suite):
    failures = []
    checked = []
    for name, row in sorted(suite.items()):
        prefix = name.split("/")[0]
        if prefix not in ("error-reduction", "image-gain", "projection-gain"):
            continue
        if name.endswith("-unconstrained"):
            continue  # counterexample hunts, informational by design
        checked.append(name)
        if row.trials < 500:
            failures.append(f"{name}: only {row.trials} trials, need >= 500")
        if row.violations:
            failures.append(f"{name}: {row.violations} violations")
    identity = suite["error-reduction/bgm-identity"]
    if identity.max_residual > 1e-10:
        failures.append(
            "error-reduction/bgm-identity: worst relative residual"
            f" {identity.max_residual:.2e} > 1e-10"
        )
    for name in ANGLE_IDENTITY_ROWS:
        row = suite[name]
        if row.max_residual > 1e-8:
            failures.append(
                f"{name}: worst angle-identity residual"
                f" {row.max_residual:.2e} > 1e-8"
            )
    _report(8, "inequality oracles, 500 trials each", failures,
            f"{len(checked)} suites clean")


def test_c09_lemma_suite(suite):
    failures = []
    for name in LEMMA_ROWS:
        row = suite.get(name)
        if row is None:
            failures.append(f"{name}: suite row missing")
            continue
        if row.trials < 500:
            failures.append(f"{name}: only {row.trials} trials, need >= 500")
        if row.violations:
            failures.append(f"{name}: {row.violations} violations")
    _report(9, "supporting-lemma oracles, 500 trials each", failures,
            f"{len(LEMMA_ROWS)} lemmas clean")


def test_c10_structural_invariants():
    failures = []
    rng = np.random.default_rng(1234)

    # secant equation, symmetry, positive definiteness under curvature
    for t in range(200):
        n = int(rng.integers(2, 9))
        b = random_spd_matrix(n, rng, spectrum=(0.5, 5.0))
        a = random_spd_matrix(n, rng, spectrum=(0.5, 5.0))
        s = rng.standard_normal(n)
        pair = SecantPair(s, a @ s)
        bn = broyden_update(b, pair, float(rng.uniform(0.0, 1.0)))
        scale = max(1.0, np.linalg.norm(bn, "fro"))
        if np.linalg.norm(bn @ pair.s - pair.y) > 1e-9 * max(1.0, np.linalg.norm(pair.y)):
            failures.append(f"secant equation violated, trial {t}")
        if np.linalg.norm(bn - bn.T, "fro") > 1e-10 * scale:
            failures.append(f"symmetry lost, trial {t}")
        if np.linalg.eigvalsh(bn)[0] <= 0.0:
            failures.append(f"positive definiteness lost, trial {t}")

    # the family is affine in its parameter
    for t in range(50):
        n = int(rng.integers(2, 7))
        b = random_spd_matrix(n, rng)
        s = rng.standard_normal(n)
        pair = SecantPair(s, random_spd_matrix(n, rng) @ s)
        lo = broyden_update(b, pair, 0.0)
        hi = broyden_update(b, pair, 1.0)
        theta = float(rng.uniform(-0.5, 1.5))
        mix = (1.0 - theta) * lo + theta * hi
        got = broyden_update(b, pair, theta)
        if np.linalg.norm(got - mix, "fro") > 1e-10 * max(1.0, np.linalg.norm(mix, "fro")):
            failures.append(f"family parameter not affine, trial {t}")

    # orthogonalized window and least-squares projection agree on quadratics
    agreed = 0
    for t in range(50):
        n = int(rng.integers(3, 8))
        a2 = random_spd_matrix(n, rng, spectrum=(0.5, 5.0))
        m = int(rng.integers(1, min(4, n)))
        gs_hist = deque(maxlen=m)
        raw = RawHistory(d=m)
        for s in rng.standard_normal((m, n)):
            ref_gram_schmidt_transform(SecantPair(s, a2 @ s), gs_hist, "broyden")
            raw.append(s, a2 @ s)
        s = rng.standard_normal(n)
        g_out, fell = ref_gram_schmidt_transform(SecantPair(s, a2 @ s), gs_hist, "broyden")
        n_out, _, reason = normal_eq_projection(SecantPair(s, a2 @ s), raw, "broyden")
        if fell or reason is not None:
            continue
        agreed += 1
        scale = max(1.0, np.linalg.norm(g_out.s))
        if (np.linalg.norm(g_out.s - n_out.s) > 1e-8 * scale
                or np.linalg.norm(g_out.y - n_out.y) > 1e-8 * scale):
            failures.append(f"projection routes disagree on a quadratic, trial {t}")
    if agreed < 40:
        failures.append(f"projection-route comparison only exercised {agreed}/50 trials")

    # two-loop recursion equals the dense inverse update (BFGS on H: the
    # DFP update of the swapped pair)
    for t in range(25):
        n = int(rng.integers(2, 8))
        lam = float(rng.uniform(0.5, 4.0))
        h = np.eye(n) / lam
        mem = []
        for _ in range(6):
            a = random_spd_matrix(n, rng, spectrum=(0.5, 5.0))
            s = rng.standard_normal(n)
            pair = SecantPair(s, a @ s)
            mem.append(pair)
            h = broyden_update(h, SecantPair(pair.y, pair.s), 1.0)
        g = rng.standard_normal(n)
        direct = lbfgs_direction(mem, g, 1.0 / lam)
        dense = h @ g
        if np.linalg.norm(direct - dense) > 1e-10 * max(1.0, np.linalg.norm(dense)):
            failures.append(f"two-loop direction differs from dense inverse, trial {t}")

    _report(10, "structural invariants", failures,
            "secant/symmetry/SPD, affinity, projection routes, two-loop")
