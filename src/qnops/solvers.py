"""Iteration drivers: quasi-Newton minimization, L-BFGS, and nonlinear systems.

The three drivers share one loop, ``_iterate``: direction, step, raw pair,
secant transform per the mode (none, image, or ``NormalEqWindow``: the one
projection route, ``normal_eq_projection`` against the raw step window),
model update, record.  A driver validates its configuration and builds the
model that gives the loop directions, image directions and updates
(``minimize``): a dense H_k = B_k^-1 updated by the dual for BFGS and DFP,
or a dense B_k solved by LU for generalized PSB and any other Broyden
theta; the limited memory applied by the two-loop recursion, which refuses
a pair with s'y <= 0 (``minimize_lbfgs``); or a Jacobian solved by QR,
BGM's B_k or the analytic one for Newton (``solve_system``).  A request a
run cannot honour is refused with ``ValueError`` at entry: each driver
checks its rule, mode, step and shapes, and the loop, before it evaluates
the start, refuses a stop rule the problem cannot evaluate, and
``record="matrix"`` unless the model tracks a reference matrix (a dense
model of a problem with a ``hessian``).  A trace counts the iterations and
the fallbacks (steps whose pair was replaced or refused): no pair is
silently replaced.  ``SolverConfig.record`` is the one recording setting:
at ``"full"`` (the default) the trace keeps the initial state and one
record per iteration; at ``"matrix"`` each of those records also holds
||B_k - A||_F and the step's angle to the near-kernel direction of B_k - A;
at ``"summary"`` only the initial and the final record, so the records of a
long run take constant memory.  At that level the loop builds no per-step
record: it keeps the latest step's fields in locals and builds the final
record once, when the run ends.

The drivers are single-threaded.  Each iteration allocates a handful of
n-vectors (x - x* among them, under ``IterateError``) and, for a dense
rule, the new n x n matrix and at most one n x n scratch buffer besides it;
a dense BFGS or DFP run at ``record="matrix"`` holds and updates two n x n
matrices, H_k and B_k.  The loop's norms are Python floats, the square
root of one ``ndarray.dot`` each, and it looks the model's methods and the
step rule up once per run.  The records that are kept hold the iterates
the loop made, not copies.  Runs with the same
configuration are bitwise reproducible (fixed evaluation order, no parallel
reductions) at every recording level, and the level changes no iterate.

Every run ends in one status: ``converged``, ``max-iters``, ``breakdown``
(a singular solve, a singular matrix b0, or an update that refuses its
pair) or ``nonfinite`` (a NaN or infinite gradient or residual norm, which
never counts as converged).
"""

import math
import numbers
import operator
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from .linalg import angle_to_subspace, euclidean_norm
from .operators import RawHistory, image_direction_broyden, normal_eq_projection, secondary_secant
from .problems import NonlinearSystem
from .updates import (
    CurvatureError,
    DegenerateUpdateError,
    SecantPair,
    bgm_update,
    bgm_update_stack,
    broyden_update,
    broyden_update_stack,
    gpsb_update,
    gpsb_update_stack,
    lbfgs_direction,
)

__all__ = [
    "Broyden",
    "GeneralizedPSB",
    "BGM",
    "NoTransform",
    "ImageTransform",
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


def _count(name, value, low):
    """``value`` as an int, refused unless it is an integer of at least ``low``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < low:
        raise ValueError(f"{name} must be at least {low}, got {value!r}")
    return count


def _check_tolerance(name, value):
    # inf would converge at the start and NaN or a negative value never
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


# ---------------------------------------------------------------------------
# configuration types; a rule's ``update`` looks its formula up as a module
# global on every call, so a function swapped in here (a tracer) is the one run.
# ``update_stack(B, s, y, minv2)`` is the rule's stacked formula, which the
# lab's process runs: B of shape (k, n, n), s and y of shape (k, n), and
# ``minv2`` the slices' own M^-2 stack, read by ``GeneralizedPSB`` alone.


@dataclass(frozen=True)
class Broyden:
    theta: float = 0.0
    family = "broyden"

    def __post_init__(self):
        # a string or None fails inside NumPy once a run has started, and a
        # NaN or infinite theta runs on to a nonfinite matrix
        if not (isinstance(self.theta, numbers.Real) and math.isfinite(self.theta)):
            raise ValueError(f"theta must be a finite real number, got {self.theta!r}")

    def update(self, B, pair):
        return broyden_update(B, pair, self.theta)

    def update_stack(self, B, s, y, minv2=None):
        return broyden_update_stack(B, s, y, self.theta)


@dataclass(frozen=True)
class GeneralizedPSB:
    minv2: Optional[np.ndarray] = None  # None means M = I (standard PSB)
    family = "gpsb"

    def update(self, B, pair):
        return gpsb_update(B, pair, self.minv2)

    def update_stack(self, B, s, y, minv2=None):
        return gpsb_update_stack(B, s, y, minv2)


@dataclass(frozen=True)
class BGM:
    family = "bgm"

    def update(self, B, pair):
        return bgm_update(B, pair)

    def update_stack(self, B, s, y, minv2=None):
        return bgm_update_stack(B, s, y)


@dataclass(frozen=True)
class NoTransform:
    pass


@dataclass(frozen=True)
class ImageTransform:
    pass


@dataclass(frozen=True)
class NormalEqWindow:
    d: int  # the number of most recent raw steps projected against

    def __post_init__(self):
        _count("window size d", self.d, 1)


@dataclass(frozen=True)
class Unit:
    pass


@dataclass(frozen=True)
class Backtracking:
    pass  # the Armijo search of ``line_search``, c1 = 1e-4 with halving


@dataclass(frozen=True)
class GradNorm:
    eps: float  # relative: converged once ||g|| <= eps * ||g_0||

    def __post_init__(self):
        _check_tolerance("eps", self.eps)


@dataclass(frozen=True)
class IterateError:
    eps_rel: float

    def __post_init__(self):
        _check_tolerance("eps_rel", self.eps_rel)


@dataclass(frozen=True)
class ResidualNorm:
    eps: float

    def __post_init__(self):
        _check_tolerance("eps", self.eps)


@dataclass
class SolverConfig:
    rule: Union[Broyden, GeneralizedPSB, BGM, None]
    stop: Union[GradNorm, IterateError, ResidualNorm]
    b0: Union[float, np.ndarray] = 1.0  # scalar lambda means lambda * I
    mode: Union[NoTransform, ImageTransform, NormalEqWindow] = NoTransform()
    step: Union[Unit, Backtracking] = Unit()
    max_iters: int = 200000
    memory: int = 10  # L-BFGS only
    # "summary": the initial and the final record; "full": every iteration's;
    # "matrix": every iteration's, each with its matrix_error and angle
    record: str = "full"

    def __post_init__(self):
        if self.record not in ("summary", "full", "matrix"):
            raise ValueError(f"record must be 'summary', 'full' or 'matrix', got {self.record!r}")
        # a matrix b0 is checked against the dimension by the driver
        if np.isscalar(self.b0) and not (isinstance(self.b0, numbers.Real)
                                         and math.isfinite(self.b0) and self.b0 > 0):
            raise ValueError(f"b0 must be finite and positive, got {self.b0!r}")
        if not isinstance(self.mode, (NoTransform, ImageTransform, NormalEqWindow)):
            raise ValueError("mode must be NoTransform(), ImageTransform() or NormalEqWindow(d), "
                             f"got {self.mode!r}")
        if not isinstance(self.step, (Unit, Backtracking)):
            raise ValueError(f"step must be Unit() or Backtracking(), got {self.step!r}")
        self.memory = _count("memory", self.memory, 1)
        self.max_iters = _count("max_iters", self.max_iters, 0)


@dataclass
class StepRecord:
    x: np.ndarray
    grad_norm: float
    pair: Optional[SecantPair] = None
    event: Optional[str] = None
    matrix_error: Optional[float] = None
    angle: Optional[float] = None


@dataclass
class IterationTrace:
    records: List[StepRecord] = field(default_factory=list)
    status: str = "running"
    iterations: int = 0  # steps taken, an update-breakdown step included
    fallbacks: int = 0  # of those, the steps with an event

    @property
    def x(self):
        return self.records[-1].x

    @property
    def angles(self):
        return np.array([r.angle for r in self.records if r.angle is not None])


# ---------------------------------------------------------------------------
# helpers


def _check_square(name, m, n):
    if np.shape(m) != (n, n):
        raise ValueError(f"{name} shape {np.shape(m)} does not match dimension {n}")


def _b0_matrix(b0, n):
    if np.isscalar(b0):
        return b0 * np.eye(n)
    _check_square("b0", b0, n)
    return np.array(b0, dtype=float)


def _near_kernel_direction(E):
    # eigenvector of symmetric E with the smallest-magnitude eigenvalue:
    # the numerically dominant kernel candidate of B - A
    w, V = np.linalg.eigh(E)
    return V[:, np.argmin(np.abs(w))]


def _check_stop(stop, problem):
    # the refusal half of the stop rule; the threshold needs the start's gradient
    if isinstance(stop, IterateError) and problem.x_star is None:
        raise ValueError("iterate-error stopping needs a known minimizer")
    if not (isinstance(stop, (GradNorm, IterateError))
            or isinstance(stop, ResidualNorm) and isinstance(problem, NonlinearSystem)):
        raise ValueError(f"stop rule {stop!r} not usable here")


def _stop_threshold(stop, problem, x0, g0):
    if isinstance(stop, IterateError):
        return stop.eps_rel * euclidean_norm(x0 - problem.x_star)
    if isinstance(stop, GradNorm):
        return stop.eps * euclidean_norm(g0)
    return stop.eps


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


def line_search(problem, x, g, direction, rule):
    """Step length for the given direction: 1 for Unit, Armijo backtracking else.

    ``g`` is the gradient at x, which the caller already holds.
    Backtracking is the Armijo test at the fixed c1 = 1e-4, with halving: it
    returns the largest alpha in {1, 1/2, 1/4, ...} with
    f(x + alpha p) <= f(x) + 1e-4 * alpha * g'p; after 60 halvings the
    smallest trial, 2^-60, is returned with a warning.
    """
    if isinstance(rule, Unit):
        return 1.0
    f0 = problem.objective(x)
    slope = g @ direction
    alpha = 1.0
    for _ in range(61):
        if problem.objective(x + alpha * direction) <= f0 + 1e-4 * alpha * slope:
            return alpha
        alpha *= 0.5
    warnings.warn("backtracking exhausted 60 step halvings", RuntimeWarning)
    return alpha * 2.0


def _image_pair(u, s, y, problem, xn):
    """Image pair (u, v) for the image direction u, or the raw pair with the fallback reason."""
    if euclidean_norm(u) == 0.0:
        return SecantPair(s, y, "raw"), "zero-image"
    if problem.hessian is not None:
        v = problem.hessian @ u  # exact directional difference for a quadratic
    else:
        v = secondary_secant(problem.gradient, xn, u)
    if u @ v > 0:
        return SecantPair(u, v, "image"), None
    return SecantPair(s, y, "raw"), "curvature"


def _qr_solve(B, rhs):
    """B^-1 rhs by QR (stable across equivalent assembly orders of B) and row back-substitution.

    Raises ``ValueError`` on a non-finite factor or right-hand side and
    ``numpy.linalg.LinAlgError`` on a zero diagonal entry of R.
    """
    q, r = np.linalg.qr(B)
    b = q.T @ rhs
    if not (np.isfinite(r).all() and np.isfinite(b).all()):
        raise ValueError("QR factors must not contain infs or NaNs")
    if not np.diag(r).all():
        raise np.linalg.LinAlgError("singular matrix: zero diagonal in the QR factor")
    x = np.empty(b.size)
    for i in reversed(range(b.size)):
        x[i] = (b[i] - r[i, i + 1:] @ x[i + 1:]) / r[i, i]
    return x


# ---------------------------------------------------------------------------
# models: what the loop asks for a direction, an image direction and an update


class _DenseModel:
    """A dense model updated by the rule of its family.

    BFGS and DFP (``Broyden`` with theta 0 or 1) carry H_k = B_k^-1 and
    solve nothing: the direction is -H g, the image direction s - H y, and
    H is updated by the dual, the other end of the family on the swapped
    pair.  A scalar b0 seeds H_0 = (1 / b0) I; a matrix b0 is inverted by the
    first direction, so a singular one ends the run as ``breakdown``.  B_k
    itself is carried beside H only at ``record="matrix"``, and read only by
    ``error`` and ``angle``.  Generalized PSB and any other
    theta (whose dual parameter depends on the pair) keep B_k and solve
    with it by LU.
    """

    def __init__(self, rule, b0, n, problem, config):
        self.rule = rule
        self.family, self.minv2 = rule.family, getattr(rule, "minv2", None)
        self.ref = problem.hessian if config.record == "matrix" else None
        self.track = self.ref is not None
        theta = getattr(rule, "theta", None)
        self.dual = 1.0 - theta if theta in (0.0, 1.0) else None  # H's theta; None: LU on B
        self.H = (1.0 / b0) * np.eye(n) if self.dual is not None and np.isscalar(b0) else None
        self.B = None if self.H is not None and not self.track else _b0_matrix(b0, n)

    def direction(self, x, g):
        if self.dual is None:
            return -np.linalg.solve(self.B, g)
        if self.H is None:  # a matrix b0, inverted inside the loop
            self.H = np.linalg.inv(self.B)
        return -(self.H @ g)

    def image(self, s, y, alpha, g, gn):
        if self.family == "gpsb":
            # u = M^2 [(1 - alpha) g - gn], with M^2 applied as a solve with M^-2
            u = (1.0 - alpha) * g - gn
            return u if self.minv2 is None else np.linalg.solve(self.minv2, u)
        if self.dual is not None:
            H = self.H
            return image_direction_broyden(lambda rhs: H @ rhs, s, y)
        B = self.B
        return image_direction_broyden(lambda rhs: np.linalg.solve(B, rhs), s, y)

    def update(self, pair):
        if self.dual is not None:
            self.H = broyden_update(self.H, SecantPair(pair.y, pair.s), self.dual)
        if self.dual is None or self.track:
            self.B = self.rule.update(self.B, pair)

    def error(self):
        return euclidean_norm(self.B - self.ref)

    def angle(self, s):
        return angle_to_subspace(s, _near_kernel_direction(self.B - self.ref)[:, None])


class _LimitedMemory:
    """The last ``memory`` pairs and their 1 / s'y, applied as H_k by the two-loop recursion."""

    family, minv2, track = "broyden", None, False

    def __init__(self, memory, h0):
        self.mem = deque(maxlen=memory)
        self.rhos = deque(maxlen=memory)
        self.h0 = h0

    def direction(self, x, g):
        return -lbfgs_direction(self.mem, g, self.h0, self.rhos)

    def image(self, s, y, alpha, g, gn):
        return s - lbfgs_direction(self.mem, y, self.h0, self.rhos)

    def update(self, pair):
        sy = float(pair.s.dot(pair.y))
        if sy <= 0:
            return "skip-storage"
        self.mem.append(pair)
        self.rhos.append(1.0 / sy)


class _Jacobian:
    """A Jacobian solved by QR: BGM's B_k, or the analytic one for Newton (rule None)."""

    family, minv2, track = "bgm", None, False

    def __init__(self, rule, B, jacobian):
        self.rule, self.B, self.jacobian = rule, B, jacobian

    def direction(self, x, g):
        return -_qr_solve(self.B if self.rule is not None else self.jacobian(x), g)

    def update(self, pair):
        if self.rule is not None:
            self.B = self.rule.update(self.B, pair)


# ---------------------------------------------------------------------------
# the loop and its drivers


def _iterate(problem, evaluate, config, model, x):
    """Iterate from x to a terminal status; return the trace.

    Per iteration: the model's direction, a step by ``line_search``, the raw
    pair, its transform per ``config.mode``, the model's update, a record.  A
    transform fallback or a pair the model refuses is the record's event; an
    update that raises ends the run as ``breakdown`` with an
    ``update-breakdown`` record, which counts as an iteration and a fallback.
    At ``config.record == "summary"`` the loop keeps the latest step's
    fields in locals and builds no record per iteration; the final record is
    built from them once the loop ends, so the trace holds the initial and
    the final record.

    The norms the loop takes (of each gradient or residual, and of x - x*)
    are ``math.sqrt(v.dot(v))`` on a contiguous 1-D vector: ``euclidean_norm``
    inlined without its call and ravel, bit for bit the same Python float.
    """
    track = config.record == "matrix"
    if track and not model.track:
        raise ValueError("record='matrix' needs a dense model of a problem with a hessian")
    _check_stop(config.stop, problem)
    mode = config.mode
    if isinstance(mode, NormalEqWindow) and mode.d >= x.size:
        # a window of n steps spans the whole space: no projected step is left
        raise ValueError(f"projection window d = {mode.d} must be below the dimension {x.size}")
    g = evaluate(x)
    image = isinstance(mode, ImageTransform)
    raw_hist = RawHistory(mode.d) if isinstance(mode, NormalEqWindow) else None
    threshold = _stop_threshold(config.stop, problem, x, g)
    x_star = problem.x_star if isinstance(config.stop, IterateError) else None
    summary = config.record == "summary"
    max_iters, step = config.max_iters, config.step
    direction, update = model.direction, model.update

    trace = IterationTrace()
    records = trace.records
    gnorm = math.sqrt(g.dot(g))
    records.append(StepRecord(x, gnorm, matrix_error=model.error() if track else None))

    k = fallbacks = 0
    while True:
        if x_star is None:
            measure = gnorm
        else:
            e = x - x_star
            measure = math.sqrt(e.dot(e))
        status = _terminal_status(gnorm, measure, threshold, k, max_iters)
        if status is not None:
            break
        try:
            p = direction(x, g)
        except np.linalg.LinAlgError:
            status = "breakdown"
            break
        except ValueError:  # the QR solve refuses non-finite factors
            status = "nonfinite"
            break
        alpha = line_search(problem, x, g, p, step)
        s = p if alpha == 1.0 else alpha * p
        xn = x + s
        gn = evaluate(xn)
        gnorm = math.sqrt(gn.dot(gn))
        y = gn - g
        pair = SecantPair(s, y)

        event = None
        angle = model.angle(s) if track else None
        if image:
            u = model.image(s, y, alpha, g, gn)
            pair, event = _image_pair(u, s, y, problem, xn)
        elif raw_hist is not None:
            pair, _, event = normal_eq_projection(pair, raw_hist, model.family, model.minv2)
            raw_hist.append(s, y)

        try:
            refused = update(pair)
        except (CurvatureError, DegenerateUpdateError) as exc:
            status = "breakdown"
            event = f"update-breakdown: {exc}"
            error = angle = None
        else:
            event = event or refused
            error = model.error() if track else None
        k += 1
        fallbacks += event is not None
        if not summary:
            records.append(StepRecord(xn, gnorm, pair, event, error, angle))
        if status is not None:
            break
        x, g = xn, gn
    if summary and k:
        # no tracking at this level, so no matrix_error or angle to keep
        records.append(StepRecord(xn, gnorm, pair, event))
    trace.status, trace.iterations, trace.fallbacks = status, k, fallbacks
    return trace


def _start(problem):
    # a run starts from the problem's x0; another start is replace(problem, x0=...)
    x = np.asarray(problem.x0, dtype=float).copy()
    if x.shape != (problem.n,):  # a missing start reads as a NaN scalar
        raise ValueError(f"the problem's x0 of shape {x.shape} does not match "
                         f"dimension {problem.n}")
    return x


def minimize(problem, config):
    """Full-matrix quasi-Newton minimization with the configured transform mode."""
    rule = config.rule
    if not isinstance(rule, (Broyden, GeneralizedPSB)):  # BGM runs in solve_system
        raise ValueError(f"minimize takes a Broyden or GeneralizedPSB rule, not {rule!r}")
    x = _start(problem)
    if isinstance(rule, GeneralizedPSB) and rule.minv2 is not None:
        _check_square("minv2", rule.minv2, x.size)
    model = _DenseModel(rule, config.b0, x.size, problem, config)
    return _iterate(problem, problem.gradient, config, model, x)


def minimize_lbfgs(problem, config):
    """Limited-memory driver: matrix-free directions from the two-loop recursion.

    The initial inverse is (1/lambda) * I for b0 = lambda * I.  Image mode
    stores the transformed (u, v) pairs in memory; NormalEqWindow projects
    each pair against a raw step window before storage.  Any pair is
    stored only when s'y > 0.  The pairs are BFGS pairs, so the rule must be
    None or Broyden(0.0), and no matrix exists to record angles or errors of.
    """
    if config.rule not in (None, Broyden(0.0)):
        raise ValueError(f"minimize_lbfgs runs BFGS pairs only, not rule {config.rule!r}")
    if not np.isscalar(config.b0):
        raise ValueError("L-BFGS seeding expects b0 = lambda * I (scalar lambda)")
    if isinstance(config.mode, NormalEqWindow) and config.mode.d > config.memory - 1:
        raise ValueError("projection window d must be at most N - 1")
    x = _start(problem)
    model = _LimitedMemory(config.memory, 1.0 / config.b0)
    return _iterate(problem, problem.gradient, config, model, x)


def solve_system(system, config):
    """Nonlinear-system driver: Newton (rule None), BGM, or windowed IP-BGM.

    Unit steps; stopping on the absolute residual norm.  The BGM path
    updates on raw pairs; with a NormalEqWindow mode each pair is first
    projected against the raw step window (family ``bgm``).  Newton takes
    no transform.  A zero step ends the BGM run as ``breakdown``; a
    non-finite residual or matrix ends any run as ``nonfinite``.
    """
    rule = config.rule
    if not (isinstance(config.stop, ResidualNorm) and isinstance(config.step, Unit)):
        raise ValueError("solve_system takes unit steps and stops on the residual norm")
    if not (rule is None or isinstance(rule, BGM)):
        raise ValueError("solve_system supports Newton (rule None) and BGM rules")
    if rule is None and system.jacobian is None:
        raise ValueError("Newton mode needs an analytic Jacobian")
    if not isinstance(config.mode, NoTransform if rule is None else (NoTransform, NormalEqWindow)):
        raise ValueError("Newton takes no transform, BGM only a NormalEqWindow")
    x = _start(system)
    B = None if rule is None else _b0_matrix(config.b0, x.size)
    model = _Jacobian(rule, B, system.jacobian)
    return _iterate(system, system.residual, config, model, x)
