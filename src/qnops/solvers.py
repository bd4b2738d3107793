"""Iteration drivers: quasi-Newton minimization, L-BFGS, and nonlinear systems.

Every driver runs the same per-iteration pipeline: (1) direction and
step, (2) raw pair formation, (3) operator transform per the configured
mode, (4) fallback handling, (5) matrix (or memory) update.  Traces
record one entry per iteration plus the initial state, and every
fallback is logged -- no pair is silently replaced.

The drivers are single-threaded.  Each iteration allocates a handful of
n-vectors and, for a dense rule, the new n x n matrix and at most one n x n
scratch buffer besides it; the records hold the iterates the loop made, not
copies.  Runs with the same configuration are bitwise reproducible (fixed
evaluation order, no parallel reductions).

Every run ends in one status: ``converged``, ``max-iters``, ``breakdown``
(a singular solve or an update that refuses its pair) or ``nonfinite`` (a
NaN or infinite gradient or residual norm, which never counts as
converged).
"""

import math
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np
import scipy.linalg as sla

from .linalg import angle_to_subspace, euclidean_norm
from .operators import (
    DISCARD_TOL,
    OrthogonalHistory,
    RawHistory,
    gram_schmidt_transform,
    image_direction_broyden,
    image_direction_gpsb,
    normal_eq_projection,
    secondary_secant,
)
from .updates import (
    CurvatureError,
    DegenerateUpdateError,
    SecantPair,
    bfgs_inverse_update,
    bgm_update,
    broyden_update,
    gpsb_inverse_update,
    gpsb_update,
    lbfgs_direction,
)

__all__ = [
    "Broyden",
    "GeneralizedPSB",
    "BGM",
    "NoTransform",
    "ImageTransform",
    "GramSchmidtWindow",
    "NormalEqWindow",
    "Unit",
    "Backtracking",
    "GradNorm",
    "IterateError",
    "ResidualNorm",
    "SolverConfig",
    "StepRecord",
    "IterationTrace",
    "line_search",
    "minimize",
    "minimize_lbfgs",
    "solve_system",
]


# ---------------------------------------------------------------------------
# configuration types


@dataclass(frozen=True)
class Broyden:
    theta: float = 0.0
    form: str = "direct"  # direct | inverse (inverse only for theta == 0)


@dataclass(frozen=True)
class GeneralizedPSB:
    minv2: Optional[np.ndarray] = None  # None means M = I (standard PSB)
    form: str = "direct"


@dataclass(frozen=True)
class BGM:
    pass


@dataclass(frozen=True)
class NoTransform:
    pass


@dataclass(frozen=True)
class ImageTransform:
    t_rule: str = "fixed"  # fixed | step_matched
    t: float = 1.0


@dataclass(frozen=True)
class GramSchmidtWindow:
    d: int
    classical: bool = False


@dataclass(frozen=True)
class NormalEqWindow:
    d: int
    lam: float = 0.0
    discard_tol: float = DISCARD_TOL


@dataclass(frozen=True)
class Unit:
    pass


@dataclass(frozen=True)
class Backtracking:
    c1: float = 1e-4
    shrink: float = 0.5


@dataclass(frozen=True)
class GradNorm:
    eps: float
    relative: bool = True


@dataclass(frozen=True)
class IterateError:
    eps_rel: float


@dataclass(frozen=True)
class ResidualNorm:
    eps: float


@dataclass
class SolverConfig:
    rule: Union[Broyden, GeneralizedPSB, BGM, None]
    stop: Union[GradNorm, IterateError, ResidualNorm]
    b0: Union[float, np.ndarray] = 1.0  # scalar lambda means lambda * I
    mode: Union[NoTransform, ImageTransform, GramSchmidtWindow, NormalEqWindow] = NoTransform()
    step: Union[Unit, Backtracking] = Unit()
    max_iters: int = 200000
    memory: int = 10  # L-BFGS only
    x0: Optional[np.ndarray] = None  # default: the problem's start
    record_angles: bool = False
    record_matrix_error: bool = False


@dataclass
class StepRecord:
    x: np.ndarray
    grad_norm: float
    step: Optional[np.ndarray] = None
    pair: Optional[SecantPair] = None
    event: Optional[str] = None
    matrix_error: Optional[float] = None
    angle: Optional[float] = None


@dataclass
class IterationTrace:
    records: List[StepRecord] = field(default_factory=list)
    status: str = "running"

    @property
    def iterations(self):
        return len(self.records) - 1

    @property
    def x(self):
        return self.records[-1].x

    @property
    def fallbacks(self):
        return sum(1 for r in self.records if r.event is not None)

    @property
    def angles(self):
        return np.array([r.angle for r in self.records if r.angle is not None])


# ---------------------------------------------------------------------------
# helpers


def _family_of(rule):
    if isinstance(rule, Broyden):
        return "broyden"
    if isinstance(rule, GeneralizedPSB):
        return "gpsb"
    if isinstance(rule, BGM):
        return "bgm"
    raise ValueError(f"unknown update rule {rule!r}")


def _b0_matrix(b0, n):
    if np.isscalar(b0):
        return b0 * np.eye(n)
    b0 = np.asarray(b0, dtype=float)
    if b0.shape != (n, n):
        raise ValueError(f"b0 shape {b0.shape} does not match dimension {n}")
    return b0.copy()


def _near_kernel_direction(E):
    # eigenvector of symmetric E with the smallest-magnitude eigenvalue:
    # the numerically dominant kernel candidate of B - A
    w, V = np.linalg.eigh(E)
    return V[:, np.argmin(np.abs(w))]


def _stop_threshold(stop, problem, x0, g0):
    if isinstance(stop, IterateError):
        if problem.x_star is None:
            raise ValueError("iterate-error stopping needs a known minimizer")
        return stop.eps_rel * euclidean_norm(x0 - problem.x_star)
    if isinstance(stop, GradNorm):
        return stop.eps * euclidean_norm(g0) if stop.relative else stop.eps
    raise ValueError(f"stop rule {stop!r} not usable here")


def _terminal_status(gnorm, measure, threshold, k, max_iters):
    """The status a run ends in at this iterate, or None to keep iterating.

    ``gnorm`` is the gradient (residual) norm the driver holds for the
    iterate and ``measure`` the quantity its stop rule compares with
    ``threshold``.  A non-finite ``gnorm`` ends the run as ``nonfinite``, and
    only ``measure <= threshold`` converges, so a NaN never does.
    """
    if not math.isfinite(gnorm):
        return "nonfinite"
    if measure <= threshold:
        return "converged"
    if k >= max_iters:
        return "max-iters"
    return None


def line_search(problem, x, direction, rule):
    """Step length for the given direction: 1 for Unit, Armijo backtracking else.

    Backtracking returns the largest alpha in {1, shrink, shrink^2, ...}
    with f(x + alpha p) <= f(x) + c1 * alpha * g'p; after 60 shrinks the
    smallest trial is returned with a warning.
    """
    if isinstance(rule, Unit):
        return 1.0
    f0 = problem.objective(x)
    slope = problem.gradient(x) @ direction
    alpha = 1.0
    for _ in range(61):
        if problem.objective(x + alpha * direction) <= f0 + rule.c1 * alpha * slope:
            return alpha
        alpha *= rule.shrink
    warnings.warn("backtracking exhausted 60 step halvings", RuntimeWarning)
    return alpha / rule.shrink


def _update_rule(rule):
    """The matrix update of a minimization ``rule`` as ``update(B, pair)``.

    The update functions are looked up as module globals on every call, so
    a function swapped in on this module (a tracer, a probe) is the one run.
    """
    if isinstance(rule, Broyden):
        if rule.form == "inverse":
            return lambda B, pair: bfgs_inverse_update(B, pair)
        theta = rule.theta
        return lambda B, pair: broyden_update(B, pair, theta)
    if isinstance(rule, GeneralizedPSB):
        minv2 = rule.minv2
        if rule.form == "inverse":
            return lambda B, pair: gpsb_inverse_update(B, pair, minv2)
        return lambda B, pair: gpsb_update(B, pair, minv2)
    raise ValueError(f"unknown update rule {rule!r}")


def _image_pair(u, s, y, problem, xn, mode):
    """Image pair (u, v) for the image direction u, or the raw pair with the fallback reason."""
    if euclidean_norm(u) == 0.0:
        return SecantPair(s, y, "raw"), "zero-image"
    if problem.hessian is not None:
        v = problem.hessian @ u  # exact directional difference for a quadratic
    else:
        t = mode.t if mode.t_rule == "fixed" else euclidean_norm(s) / euclidean_norm(u)
        v = secondary_secant(problem.gradient, xn, u, t)
    if u @ v > 0:
        return SecantPair(u, v, "image"), None
    return SecantPair(s, y, "raw"), "curvature"


# ---------------------------------------------------------------------------
# drivers


def _start(x0, problem):
    return np.asarray(x0 if x0 is not None else problem.x0, dtype=float).copy()


def minimize(problem, config):
    """Full-matrix quasi-Newton minimization with the configured transform mode."""
    rule = config.rule
    if isinstance(rule, BGM):
        raise ValueError("BGM is a nonlinear-system rule; use solve_system")
    family = _family_of(rule)
    if isinstance(rule, Broyden) and rule.form == "inverse" and rule.theta != 0.0:
        raise ValueError("inverse form is only maintained for theta = 0")
    inverse = rule.form == "inverse"
    minv2 = rule.minv2 if isinstance(rule, GeneralizedPSB) else None
    update = _update_rule(rule)
    mode = config.mode
    image = isinstance(mode, ImageTransform)
    if image and minv2 is not None:
        m2_apply = lambda v: np.linalg.solve(minv2, v)  # noqa: E731
    else:
        m2_apply = None
    gs_hist = OrthogonalHistory(mode.d) if isinstance(mode, GramSchmidtWindow) else None
    raw_hist = RawHistory(mode.d) if isinstance(mode, NormalEqWindow) else None
    step_rule = config.step
    max_iters = config.max_iters

    x = _start(config.x0, problem)
    n = x.size
    B = _b0_matrix(config.b0, n)
    if inverse:
        B = np.linalg.inv(B)
    g = problem.gradient(x)
    threshold = _stop_threshold(config.stop, problem, x, g)
    x_star = problem.x_star if isinstance(config.stop, IterateError) else None

    ref = problem.hessian if (config.record_matrix_error or config.record_angles) else None
    track_error = ref is not None and not inverse
    record_angles = config.record_angles and track_error

    trace = IterationTrace()
    records = trace.records
    gnorm = euclidean_norm(g)
    records.append(
        StepRecord(x, gnorm, matrix_error=euclidean_norm(B - ref) if track_error else None)
    )

    k = 0
    while True:
        measure = gnorm if x_star is None else euclidean_norm(x - x_star)
        status = _terminal_status(gnorm, measure, threshold, k, max_iters)
        if status is not None:
            break
        try:
            p = (-(B @ g)) if inverse else -np.linalg.solve(B, g)
        except np.linalg.LinAlgError:
            status = "breakdown"
            break
        alpha = line_search(problem, x, p, step_rule)
        s = p if alpha == 1.0 else alpha * p
        xn = x + s
        gn = problem.gradient(xn)
        gnorm = euclidean_norm(gn)
        y = gn - g
        pair = SecantPair(s, y)

        event = None
        angle = None
        if record_angles:
            v = _near_kernel_direction(B - ref)
            angle = angle_to_subspace(s, v[:, None])

        if image:
            if family == "gpsb":
                u = image_direction_gpsb(m2_apply, alpha, g, gn)
            else:
                Bk = B
                b_solve = (lambda rhs: Bk @ rhs) if inverse else (lambda rhs: np.linalg.solve(Bk, rhs))
                u = image_direction_broyden(b_solve, s, y)
            pair, event = _image_pair(u, s, y, problem, xn, mode)
        elif gs_hist is not None:
            pair, fell = gram_schmidt_transform(pair, gs_hist, family, minv2, classical=mode.classical)
            if fell:
                event = "gs-restart"
        elif raw_hist is not None:
            pair, _, event = normal_eq_projection(
                pair, raw_hist, family, mode.lam, mode.discard_tol, minv2
            )
            raw_hist.append(s, y)

        try:
            B = update(B, pair)
        except (CurvatureError, DegenerateUpdateError) as exc:
            records.append(StepRecord(xn, gnorm, s, pair, f"update-breakdown: {exc}"))
            status = "breakdown"
            break

        x, g = xn, gn
        k += 1
        records.append(
            StepRecord(x, gnorm, s, pair, event,
                       euclidean_norm(B - ref) if track_error else None, angle)
        )
    trace.status = status
    return trace


def minimize_lbfgs(problem, config):
    """Limited-memory driver: matrix-free directions from the two-loop recursion.

    The initial inverse is (1/lambda) * I for b0 = lambda * I.  Image mode
    stores the transformed (u, v) pairs in memory; projection modes
    transform against a raw step window before storage.  Any pair is
    stored only when s'y > 0.
    """
    if not np.isscalar(config.b0):
        raise ValueError("L-BFGS seeding expects b0 = lambda * I (scalar lambda)")
    h0 = 1.0 / config.b0
    mode = config.mode
    if isinstance(mode, (GramSchmidtWindow, NormalEqWindow)) and mode.d > config.memory - 1:
        raise ValueError("projection window d must be at most N - 1")
    image = isinstance(mode, ImageTransform)
    gs_hist = OrthogonalHistory(mode.d) if isinstance(mode, GramSchmidtWindow) else None
    raw_hist = RawHistory(mode.d) if isinstance(mode, NormalEqWindow) else None
    step_rule = config.step
    max_iters = config.max_iters

    x = _start(config.x0, problem)
    g = problem.gradient(x)
    threshold = _stop_threshold(config.stop, problem, x, g)
    x_star = problem.x_star if isinstance(config.stop, IterateError) else None

    mem = deque(maxlen=config.memory)
    trace = IterationTrace()
    records = trace.records
    gnorm = euclidean_norm(g)
    records.append(StepRecord(x, gnorm))

    k = 0
    while True:
        measure = gnorm if x_star is None else euclidean_norm(x - x_star)
        status = _terminal_status(gnorm, measure, threshold, k, max_iters)
        if status is not None:
            break
        p = -lbfgs_direction(mem, g, h0)
        alpha = line_search(problem, x, p, step_rule)
        s = p if alpha == 1.0 else alpha * p
        xn = x + s
        gn = problem.gradient(xn)
        gnorm = euclidean_norm(gn)
        y = gn - g
        pair = SecantPair(s, y)

        event = None
        if image:
            u = s - lbfgs_direction(mem, y, h0)
            pair, event = _image_pair(u, s, y, problem, xn, mode)
        elif gs_hist is not None:
            pair, fell = gram_schmidt_transform(pair, gs_hist, "broyden", classical=mode.classical)
            if fell:
                event = "gs-restart"
        elif raw_hist is not None:
            pair, _, event = normal_eq_projection(
                pair, raw_hist, "broyden", mode.lam, mode.discard_tol
            )
            raw_hist.append(s, y)

        if pair.s @ pair.y > 0:
            mem.append(pair)
        else:
            event = event or "skip-storage"

        x, g = xn, gn
        k += 1
        records.append(StepRecord(x, gnorm, s, pair, event))
    trace.status = status
    return trace


def _qr_solve(B, rhs):
    # QR-factorized solve: stable across equivalent assembly orders of B
    q, r = np.linalg.qr(B)
    return sla.solve_triangular(r, q.T @ rhs)


def solve_system(system, config):
    """Nonlinear-system driver: Newton (rule None), BGM, or windowed IP-BGM.

    Unit steps; stopping on the absolute residual norm.  The BGM path
    updates on raw pairs; with a NormalEqWindow mode each pair is first
    projected against the raw step window (family ``bgm``).  A zero step
    ends the BGM run as ``breakdown``; a non-finite residual or matrix
    ends any run as ``nonfinite``.
    """
    if not isinstance(config.stop, ResidualNorm):
        raise ValueError("solve_system stops on the residual norm")
    eps = config.stop.eps
    max_iters = config.max_iters
    x = _start(config.x0, system)
    n = x.size
    g = system.residual(x)

    trace = IterationTrace()
    records = trace.records
    gnorm = euclidean_norm(g)
    records.append(StepRecord(x, gnorm))

    if config.rule is None:  # Newton with the analytic Jacobian
        if system.jacobian is None:
            raise ValueError("Newton mode needs an analytic Jacobian")
        k = 0
        while True:
            status = _terminal_status(gnorm, gnorm, eps, k, max_iters)
            if status is not None:
                break
            try:
                x = x - _qr_solve(system.jacobian(x), g)
            except np.linalg.LinAlgError:
                status = "breakdown"
                break
            except ValueError:  # the triangular solve refuses non-finite factors
                status = "nonfinite"
                break
            g = system.residual(x)
            gnorm = euclidean_norm(g)
            k += 1
            records.append(StepRecord(x, gnorm))
        trace.status = status
        return trace

    if not isinstance(config.rule, BGM):
        raise ValueError("solve_system supports Newton (rule None) and BGM rules")
    B = _b0_matrix(config.b0, n)
    mode = config.mode
    raw_hist = RawHistory(mode.d) if isinstance(mode, NormalEqWindow) else None

    k = 0
    while True:
        status = _terminal_status(gnorm, gnorm, eps, k, max_iters)
        if status is not None:
            break
        try:
            s = -_qr_solve(B, g)
        except np.linalg.LinAlgError:
            status = "breakdown"
            break
        except ValueError:  # the triangular solve refuses non-finite factors
            status = "nonfinite"
            break
        xn = x + s
        gn = system.residual(xn)
        gnorm = euclidean_norm(gn)
        y = gn - g
        pair = SecantPair(s, y)

        event = None
        if raw_hist is not None:
            pair, _, event = normal_eq_projection(
                pair, raw_hist, "bgm", mode.lam, mode.discard_tol
            )
            raw_hist.append(s, y)

        try:
            B = bgm_update(B, pair)
        except DegenerateUpdateError as exc:
            records.append(StepRecord(xn, gnorm, s, pair, f"update-breakdown: {exc}"))
            status = "breakdown"
            break
        x, g = xn, gn
        k += 1
        records.append(StepRecord(x, gnorm, s, pair, event))
    trace.status = status
    return trace
