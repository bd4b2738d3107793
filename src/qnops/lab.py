"""Fixed-target approximation laboratory.

Runs the abstract process B_{k+1} = update(B_k, s_k, y_k) with exact data
y_k = A s_k against a known target A, and turns the matrix-approximation
theory into seeded numerical oracles: per-update error-reduction bounds,
image-operator gain, projection gain with angle identities, the
supporting lemmas, and finite termination of the approximation sequence.

A process runs one of the solvers' update rules, ``Broyden(theta)``,
``GeneralizedPSB(minv2)`` or ``BGM()``, and measures in the rule's
inner-product weight W, <u, v>_W = u' W v: W = A for the Broyden family,
W = M^-2 (``minv2``) for generalized PSB, and W = I for PSB and BGM.  The
image operator maps s to W^-1 (B - A)' s, and the orthogonalized source and
the kernel-growth check measure orthogonality in the same W.  DFP appears
twice: as ``Broyden(1.0)`` and as ``GeneralizedPSB(minv2=A)``.  On the exact
pairs y = A s direct DFP is the least-change update weighted by A (Dennis and
More, SIAM Rev. 19, 1977), and the second form is the direct DFP formula bit
for bit, since its ``minv2 @ s`` is the product ``a @ s`` that made y.

Oracle verdicts use a 1e-9 relative slack (with a unit floor), chosen
above accumulation error for the dense n <= 10 algebra used here.  Every
suite runs its seeded trials through one loop, ``_tally``; ``verify_all``
reports one row per suite.
"""

from dataclasses import dataclass, field, replace
from functools import partial
from typing import List, Optional, Union

import numpy as np

from .linalg import (
    KERNEL_TOL,
    ORTHO_TOL,
    euclidean_norm,
    kernel_basis,
    weighted_frobenius_error,
    weighted_inner,
)
from .pool import default_workers, run_pool
from .problems import random_spd_matrix
from .solvers import BGM, Broyden, GeneralizedPSB, _check_square, _count
from .updates import SecantPair, bgm_update, gpsb_update

# the lab no longer calls these two; they stay importable here because the
# benchmark's span tracer wraps them under these names
from .updates import broyden_update, dfp_direct_update  # noqa: F401

__all__ = [
    "SLACK",
    "ANGLE_SLACK",
    "HALT_RTOL",
    "ProcessConfig",
    "ProcessTrace",
    "KernelGrowthReport",
    "SuiteRow",
    "run_process",
    "check_kernel_growth",
    "oracle_error_reduction",
    "oracle_image_operator_gain",
    "oracle_projection_gain",
    "oracle_lemmas",
    "verify_all",
]

#: relative slack for inequality oracles (unit floor keeps near-zero cases sane)
SLACK = 1e-9
#: slack for the sin^2-angle identities
ANGLE_SLACK = 1e-8
#: relative residual allowed for the BGM error identity (an equality, not a bound)
BGM_IDENTITY_TOL = 1e-10
#: the process halts once ||B_k - A||_F <= HALT_RTOL * ||A||_F
HALT_RTOL = 1e-10


def _slacked(scale):
    return SLACK * max(1.0, abs(scale))


def _m_ratio(E, m, v):
    # ||M E v||^2 / ||M^-1 v||^2, the gpsb reduction functional (m=None: M=I)
    ev = E @ v
    num = euclidean_norm(ev if m is None else m @ ev) ** 2
    den = euclidean_norm(v if m is None else np.linalg.solve(m, v)) ** 2
    return num / den


def _e_ratio(E, v):
    # ||E v||^2 / v'v, the Euclidean reduction functional
    return euclidean_norm(E @ v) ** 2 / (v @ v)


def _w_residual(s, basis, wmat):
    # s minus its W-orthogonal projection onto span(basis)
    wb = basis if wmat is None else wmat @ basis
    coef = np.linalg.solve(basis.T @ wb, wb.T @ s)
    return s - basis @ coef


# ---------------------------------------------------------------------------
# the approximation process


@dataclass
class ProcessConfig:
    a: np.ndarray
    b0: np.ndarray
    rule: Union[Broyden, GeneralizedPSB, BGM]
    direction_source: str = "random"  # random | image | orthogonalized
    seed: int = 0


@dataclass
class ProcessTrace:
    matrices: List[np.ndarray] = field(default_factory=list)
    steps: List[np.ndarray] = field(default_factory=list)
    errors: List[float] = field(default_factory=list)
    events: List[str] = field(default_factory=list)
    weight: Optional[np.ndarray] = None  # inner-product matrix (None = identity)
    target: Optional[np.ndarray] = None  # the fixed A, kept for post-hoc analysis
    status: str = "running"

    @property
    def terminated(self):
        return self.status == "terminated"


@dataclass
class KernelGrowthReport:
    dims: List[int]
    violations: List[str]

    @property
    def ok(self):
        return not self.violations


def run_process(config):
    """Drive the update rule toward A with exact pairs (s, As), one step per
    dimension at most.

    Halts once ||B_k - A||_F <= HALT_RTOL * ||A||_F (status ``terminated``),
    after n steps (``exhausted``), or on a recorded update breakdown
    (``breakdown``).  ``ValueError`` refuses a rule other than ``Broyden``,
    ``GeneralizedPSB`` or ``BGM``, a target A that is not square, a ``minv2``
    that is not n x n, a seed that is not an integer of at least 0, and a
    direction source other than ``random``, ``image`` or ``orthogonalized``.
    """
    rule = config.rule
    if not isinstance(rule, (Broyden, GeneralizedPSB, BGM)):
        raise ValueError(f"rule must be Broyden, GeneralizedPSB or BGM, not {rule!r}")
    source = config.direction_source
    if source not in ("random", "image", "orthogonalized"):
        raise ValueError(f"unknown direction source {source!r}")
    a = np.asarray(config.a, dtype=float)
    n = a.shape[0] if a.ndim else 0
    _check_square("a", a, n)
    B = np.asarray(config.b0, dtype=float).copy()
    if B.shape != a.shape:
        raise ValueError("A and B0 must be conformable")
    if isinstance(rule, GeneralizedPSB) and rule.minv2 is not None:
        _check_square("minv2", rule.minv2, n)
    # the rule's inner-product weight W (None = I)
    w = a if isinstance(rule, Broyden) else getattr(rule, "minv2", None)
    rng = np.random.default_rng(_count("seed", config.seed, 0))
    halt = HALT_RTOL * euclidean_norm(a)

    trace = ProcessTrace(weight=w, target=a)

    def record_state():
        trace.matrices.append(B.copy())
        trace.errors.append(euclidean_norm(B - a))

    record_state()
    ortho_hist: List[np.ndarray] = []
    for k in range(n):
        if trace.errors[-1] <= halt:
            trace.status = "terminated"
            return trace
        event = ""
        if source == "orthogonalized":
            s0 = np.eye(n)[:, k]
            s = s0.copy()
            for h in ortho_hist:
                s = s - (weighted_inner(s, h, w) / weighted_inner(h, h, w)) * h
            if euclidean_norm(s) <= 1e-12 * euclidean_norm(s0):
                trace.events.append(f"step {k}: dependent direction skipped")
                continue
            ortho_hist.append(s)
        elif source == "image":
            # W^-1 (B - A)' s: lands in the W-orthogonal complement of ker(B - A)
            s0 = rng.standard_normal(n)
            s = (B - a).T @ s0
            s = s if w is None else np.linalg.solve(w, s)
            if euclidean_norm(s) <= 1e-14 * euclidean_norm(s0):
                event = "degenerate-image"
                s = s0
        else:
            s = rng.standard_normal(n)
        try:
            B = rule.update(B, SecantPair(s, a @ s))
        except ArithmeticError as exc:
            trace.events.append(f"step {k}: breakdown: {exc}")
            trace.status = "breakdown"
            return trace
        trace.steps.append(s)
        if event:
            trace.events.append(f"step {k}: {event}")
        record_state()
    trace.status = "terminated" if trace.errors[-1] <= halt else "exhausted"
    return trace


def _kernel_basis_scaled(E, tol, scale):
    """kernel_basis with a matrix-zero floor: an E that vanishes relative
    to the process scale has the whole space as its kernel (the plain
    relative-sigma rule would see only noise there)."""
    if euclidean_norm(E) <= tol * scale:
        return np.eye(E.shape[0])
    return kernel_basis(E, tol)


def check_kernel_growth(trace, tol=KERNEL_TOL):
    """Kernel dimensions of B_k - A must never shrink, and must grow
    strictly whenever the step was W-orthogonal to the whole current
    kernel (within ORTHO_TOL, relative).

    A step that merely leans away from the kernel does not force growth:
    the update evicts the kernel slice the step is W-correlated with while
    admitting the step itself, so the dimension can stand still.  Strict
    growth is guaranteed exactly when nothing is evicted, i.e. when the
    step is W-orthogonal to every current kernel direction - which is how
    the image-operator and orthogonalized sources construct their steps.
    """
    scale = euclidean_norm(trace.target)
    dims = []
    bases = []
    for Bk in trace.matrices:
        basis = _kernel_basis_scaled(Bk - trace.target, tol, scale)
        bases.append(basis)
        dims.append(basis.shape[1])
    violations = []
    w = trace.weight
    for j, s in enumerate(trace.steps):
        if dims[j + 1] < dims[j]:
            violations.append(f"step {j}: kernel dimension fell {dims[j]} -> {dims[j + 1]}")
            continue
        basis = bases[j]
        ws = s if w is None else w @ s
        s_norm = np.sqrt(s @ ws)
        if basis.shape[1]:
            cols_w = np.sqrt(np.einsum("ij,ij->j", basis, basis if w is None else w @ basis))
            ortho = np.all(np.abs(basis.T @ ws) <= ORTHO_TOL * s_norm * cols_w)
        else:
            ortho = True
        if ortho and dims[j] < basis.shape[0] and dims[j + 1] <= dims[j]:
            violations.append(
                f"step {j}: W-orthogonal direction did not grow the kernel "
                f"({dims[j]} -> {dims[j + 1]})"
            )
    return KernelGrowthReport(dims=dims, violations=violations)


# ---------------------------------------------------------------------------
# inequality oracles


def oracle_error_reduction(family, a, b, m, s):
    """Both sides of the per-update error-reduction statement.

    family ``gpsb``: ||PSB_M(B,A,s) - A||_{M,F}^2 <= ||B - A||_{M,F}^2
    - ||M(B-A)s||^2 / ||M^-1 s||^2 (m=None means M=I).  family ``bgm``:
    the same statement with Euclidean norms holds as an exact identity.
    Returns (lhs, rhs, holds).
    """
    s = np.asarray(s, dtype=float)
    y = a @ s
    E = b - a
    if family == "gpsb":
        minv2 = None if m is None else np.linalg.inv(m @ m)
        bplus = gpsb_update(b, SecantPair(s, y), minv2)
        lhs = weighted_frobenius_error(bplus - a, m) ** 2
        rhs = weighted_frobenius_error(E, m) ** 2 - _m_ratio(E, m, s)
        return lhs, rhs, lhs <= rhs + _slacked(rhs)
    if family == "bgm":
        bplus = bgm_update(b, SecantPair(s, y))
        lhs = euclidean_norm(bplus - a) ** 2
        rhs = euclidean_norm(E) ** 2 - _e_ratio(E, s)
        return lhs, rhs, abs(lhs - rhs) <= BGM_IDENTITY_TOL * max(1.0, abs(rhs))
    raise ValueError(f"unknown family {family!r}")


def _image_setup(family, a, b, m):
    """(E, apply_w, (base_ratio, improved_ratio)) for each image-gain
    theorem; ``b`` is the inverse approximation H for the bfgs variants.
    The two functionals coincide except for bgm, whose nonsymmetric E
    needs the transpose on the base side."""
    if family == "gpsb":
        E = b - a
        m2 = None if m is None else m @ m

        def apply_w(v):
            return E @ v if m2 is None else m2 @ (E @ v)

        ratio = partial(_m_ratio, E, m)

    elif family in ("dfp", "dfp-ordered", "bfgs", "bfgs-ordered"):
        # dfp weighs with W = A; bfgs is its dual, H against A^-1 with
        # W = A^-1, so A v and A^-1 v swap roles.  The ordered variants map
        # E v by B^-1 (H^-1) in place of W^-1.
        a_v, ainv_v = partial(np.matmul, a), partial(np.linalg.solve, a)
        dual = family.startswith("bfgs")
        w_v, winv_v = (ainv_v, a_v) if dual else (a_v, ainv_v)
        E = b - (np.linalg.inv(a) if dual else a)
        map_v = partial(np.linalg.solve, b) if family.endswith("ordered") else winv_v

        def apply_w(v):
            return map_v(E @ v)

        def ratio(v):
            ev = E @ v
            return (ev @ winv_v(ev)) / (v @ w_v(v))

    elif family == "bgm":
        E = b - a

        def apply_w(v):
            return E.T @ v

        # The Cauchy-Schwarz argument bounds ||E(E^T s)||^2/||E^T s||^2 from
        # below by ||E^T s||^2/||s||^2 (both are Rayleigh quotients of EE^T);
        # a base of ||Es||^2/||s||^2 would be false for nonsymmetric E, so
        # the base functional carries the transpose.
        return E, apply_w, (partial(_e_ratio, E.T), partial(_e_ratio, E))

    else:
        raise ValueError(f"unknown family {family!r}")
    return E, apply_w, (ratio, ratio)


def _one_signed(sym, tol):
    w = np.linalg.eigvalsh(sym)
    return np.all(w >= -tol) or np.all(w <= tol)


def _image_gain(setup, s):
    # the gain comparison of oracle_image_operator_gain without its gate
    E, apply_w, (base_ratio, ratio) = setup
    ws = apply_w(s)
    s_norm = euclidean_norm(s)
    scale = euclidean_norm(E) * s_norm
    # an s whose sum of squares underflows leaves the base ratio 0 / 0
    if s_norm == 0.0 or euclidean_norm(ws) <= 1e-13 * max(scale, 1e-300):
        return 0.0, 0.0, "degenerate"
    base = base_ratio(s)
    improved = ratio(ws)
    return base, improved, bool(improved >= base - _slacked(base))


def oracle_image_operator_gain(family, a, b, m, s):
    """Gain of the family's image operator: the reduction functional does
    not decrease when s is replaced by Ws.

    Returns (base, improved, holds); ``holds`` is True/False or one of the
    strings ``"hypothesis not met"`` / ``"degenerate"`` (neither counts as
    a violation); a step is degenerate when Ws vanishes relative to
    ||E|| ||s||, or when the norm of s is 0 or underflows.  For the bfgs
    variants ``b`` is the inverse approximation H and ``s`` plays the role
    of y.  The ordered variants need SPD A and B with B - A (H - A^-1 for
    bfgs) one-signed.
    """
    s = np.asarray(s, dtype=float)
    setup = _image_setup(family, a, b, m)
    if family in ("dfp-ordered", "bfgs-ordered"):
        E = setup[0]  # B - A, or H - A^-1 for bfgs
        tol = 1e-12 * max(1.0, euclidean_norm(E))
        if (
            np.any(np.linalg.eigvalsh(a) <= 0)
            or np.any(np.linalg.eigvalsh(b) <= 0)
            or not _one_signed(E, tol)
        ):
            return 0.0, 0.0, "hypothesis not met"
    return _image_gain(setup, s)


def oracle_projection_gain(family, a, b, m, subspace_basis, s):
    """Gain from W-orthogonal projection of s against a subspace of
    ker(B - A): family ``gpsb`` (W = M^-2, m=None meaning M=I) or ``bgm``
    (Euclidean).  Returns (base, improved, holds, angle_identity_residual)
    where the identity is base = sin^2(angle(s, subspace)) * improved.
    ``ValueError`` refuses an s whose norm is 0, all zeros or so small that
    its sum of squares underflows: both ratios would divide by it.
    """
    s = np.asarray(s, dtype=float)
    if euclidean_norm(s) == 0.0:
        raise ValueError("s must have a nonzero norm: both gain ratios divide by it")
    E = b - a
    if family == "gpsb":
        wmat = None if m is None else np.linalg.inv(m @ m)
        ratio = partial(_m_ratio, E, m)
    elif family == "bgm":
        wmat, ratio = None, partial(_e_ratio, E)
    else:
        raise ValueError(f"unknown family {family!r}")

    C = np.asarray(subspace_basis, dtype=float)
    if C.ndim == 1:
        C = C[:, None]
    stilde = s if C.shape[1] == 0 else _w_residual(s, C, wmat)
    if euclidean_norm(stilde) <= 1e-12 * euclidean_norm(s):
        return ratio(s), 0.0, "degenerate", 0.0
    base = ratio(s)
    improved = ratio(stilde)
    sin2 = weighted_inner(stilde, stilde, wmat) / weighted_inner(s, s, wmat)
    angle_residual = abs(base - sin2 * improved) / max(1.0, abs(base))
    holds = bool(improved >= base - _slacked(base))
    return base, improved, holds, angle_residual


# ---------------------------------------------------------------------------
# the trial loop and the lemma oracles


@dataclass
class SuiteRow:
    name: str
    trials: int
    violations: int
    max_residual: float
    skipped: int = 0
    note: str = ""

    def __str__(self):
        line = (
            f"{self.name}: trials={self.trials} violations={self.violations} "
            f"max_residual={self.max_residual:.3e}"
        )
        if self.skipped:
            line += f" skipped={self.skipped}"
        if self.note:
            line += f" [{self.note}]"
        return line

    @property
    def ok(self):
        return self.violations == 0


def _tally(name, trials, seed, trial):
    """Run ``trial(rng, t)`` on one ``default_rng(seed)`` until ``trials``
    trials count; ``t`` is the number counted so far.  A trial returns None
    (skipped, not counted) or (residual, violations); the row keeps the
    worst residual and the total of the violations."""
    rng = np.random.default_rng(seed)
    max_res = 0.0
    violations = skipped = done = 0
    while done < trials:
        out = trial(rng, done)
        if out is None:
            skipped += 1
            continue
        res, bad = out
        max_res = max(max_res, res)
        violations += int(bad)
        done += 1
    return SuiteRow(name, trials, violations, max_res, skipped)


def _rand_sym(rng, n):
    z = rng.standard_normal((n, n))
    return (z + z.T) / 2.0


def _sym_with_kernel(rng, n, kd):
    """Symmetric E with exactly a kd-dimensional kernel; returns (E, U)
    with U an orthonormal kernel basis."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    U, V = q[:, :kd], q[:, kd:]
    d = rng.uniform(0.5, 2.0, n - kd) * rng.choice([-1.0, 1.0], n - kd)
    return V @ np.diag(d) @ V.T, U


def _nonsym_with_kernel(rng, n, kd):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    U = q[:, :kd]
    R = rng.standard_normal((n, n)) + n * np.eye(n)
    return R @ (np.eye(n) - U @ U.T), U


def _lemma_projected_contraction(rng):
    n = int(rng.integers(2, 9))
    C = _rand_sym(rng, n)
    s = rng.standard_normal(n)
    P = np.eye(n) - np.outer(s, s) / (s @ s)
    D = P @ C @ P
    lhs = euclidean_norm(D) ** 2
    rhs = euclidean_norm(C) ** 2 - _e_ratio(C, s)
    return max(0.0, lhs - rhs) / max(1.0, abs(rhs))


def _lemma_image_ratio(rng):
    n = int(rng.integers(2, 9))
    B = _rand_sym(rng, n)
    u = rng.standard_normal(n)
    bu = B @ u
    if euclidean_norm(bu) <= 1e-12 * euclidean_norm(u):
        return None
    l_u = euclidean_norm(bu) ** 2 / (u @ u)
    l_bu = _e_ratio(B, bu)
    return max(0.0, l_u - l_bu) / max(1.0, abs(l_u))


def _lemma_one_sided_ratio(rng):
    n = int(rng.integers(2, 9))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if rng.integers(2):
        lam = np.exp(rng.uniform(0.0, np.log(10.0), n))  # L >= I
    else:
        lam = np.exp(rng.uniform(np.log(0.1), 0.0, n))  # L <= I
    L = q @ np.diag(lam) @ q.T
    u = rng.standard_normal(n)
    ilu = (np.eye(n) - L) @ u
    if euclidean_norm(ilu) <= 1e-10 * euclidean_norm(u):
        return None
    K = np.linalg.inv(L) - np.eye(n)
    lhs = _e_ratio(K, ilu)
    rhs = _e_ratio(K, u)
    return max(0.0, rhs - lhs) / max(1.0, abs(rhs))


def _least_change(rng, dual):
    n = int(rng.integers(2, 9))
    B = _rand_sym(rng, n)
    M = random_spd_matrix(n, rng, spectrum=(0.5, 2.0))
    minv2 = np.linalg.inv(M @ M)
    s = rng.standard_normal(n)
    y = rng.standard_normal(n)
    # the dual update acts on the inverse: the direct update of the swapped pair
    con, target = (y, s) if dual else (s, y)
    bplus = gpsb_update(B, SecantPair(con, target), minv2)
    res = euclidean_norm(bplus @ con - target) / max(1.0, euclidean_norm(target))
    res = max(res, euclidean_norm(bplus - bplus.T))
    dist = weighted_frobenius_error(bplus - B, M)
    P = np.eye(n) - np.outer(con, con) / (con @ con)
    # 100 competitors in one stack, drawn from the stream that 100
    # _rand_sym calls would read: symmetric, same secant action
    Z = rng.standard_normal((100, n, n))
    competitors = bplus + P @ ((Z + Z.transpose(0, 2, 1)) / 2.0) @ P
    cdists = weighted_frobenius_error(competitors - B, M)
    worst = ((dist - cdists) / np.maximum(1.0, cdists)).max(initial=0.0)
    return max(res, worst)


_LEMMAS = {
    "projected-contraction": _lemma_projected_contraction,
    "image-ratio": _lemma_image_ratio,
    "one-sided-ratio": _lemma_one_sided_ratio,
    "least-change-direct": lambda rng: _least_change(rng, dual=False),
    "least-change-dual": lambda rng: _least_change(rng, dual=True),
}


def _check_trials(trials, seed):
    # no trial would run at trials < 1, and default_rng refuses a negative seed
    return _count("trials", trials, 1), _count("seed", seed, 0)


def oracle_lemmas(which, trials=500, seed=0):
    """Seeded verification of one supporting lemma; see _LEMMAS for ids.
    ``ValueError`` refuses an unknown id, ``trials`` below 1 and a negative
    ``seed``, and any of them that is not an integer."""
    if which not in _LEMMAS:
        raise ValueError(f"unknown lemma {which!r}; the ids are {', '.join(_LEMMAS)}")
    gen = _LEMMAS[which]
    trials, seed = _check_trials(trials, seed)

    def trial(rng, t):
        res = gen(rng)
        return None if res is None else (res, res > SLACK)

    return _tally(f"lemma/{which}", trials, seed, trial)


# ---------------------------------------------------------------------------
# suite runners


def _suite_error_reduction(seed, trials):
    def gpsb_trial(rng, t):
        n = int(rng.integers(2, 9))
        a = _rand_sym(rng, n)
        b = _rand_sym(rng, n)
        m = None if t % 3 == 0 else random_spd_matrix(n, rng, spectrum=(0.5, 2.0))
        s = rng.standard_normal(n)
        lhs, rhs, holds = oracle_error_reduction("gpsb", a, b, m, s)
        return max(0.0, lhs - rhs) / max(1.0, abs(rhs)), not holds

    def bgm_trial(rng, t):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        s = rng.standard_normal(n)
        lhs, rhs, holds = oracle_error_reduction("bgm", a, b, None, s)
        return abs(lhs - rhs) / max(1.0, abs(rhs)), not holds

    return [
        _tally("error-reduction/gpsb", trials, seed, gpsb_trial),
        _tally("error-reduction/bgm-identity", trials, seed + 1, bgm_trial),
    ]


def _image_trial(family, rng):
    n = int(rng.integers(2, 9))
    m = None
    if family == "gpsb":
        a, b = _rand_sym(rng, n), _rand_sym(rng, n)
        m = random_spd_matrix(n, rng, spectrum=(0.5, 2.0))
    elif family in ("dfp", "bfgs"):
        a = random_spd_matrix(n, rng)
        b = _rand_sym(rng, n)  # plays H for bfgs
    elif family in ("dfp-ordered", "bfgs-ordered"):
        # B (H for bfgs) one-sidedly around its target A (A^-1 for bfgs)
        a = random_spd_matrix(n, rng)
        center = a if family == "dfp-ordered" else np.linalg.inv(a)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        pert = q @ np.diag(rng.uniform(0.1, 1.0, n)) @ q.T
        if rng.integers(2):
            b = center + pert
        else:
            scale = 0.4 * np.linalg.eigvalsh(center)[0] / np.linalg.eigvalsh(pert)[-1]
            b = center - scale * pert
    else:  # bgm
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
    s = rng.standard_normal(n)
    return oracle_image_operator_gain(family, a, b, m, s)


def _suite_image_gain(seed, trials):
    rows = []
    for i, family in enumerate(["gpsb", "dfp", "dfp-ordered", "bfgs", "bfgs-ordered", "bgm"]):

        def trial(rng, t):
            base, improved, holds = _image_trial(family, rng)
            if isinstance(holds, str):  # hypothesis not met, or degenerate
                return None
            return max(0.0, base - improved) / max(1.0, abs(base)), not holds

        rows.append(_tally(f"image-gain/{family}", trials, seed + 10 + i, trial))
    # counterexample hunt: the ordered functionals evaluated WITHOUT their
    # ordering hypothesis.  Breaches are reported in the note, never as
    # violations.
    for j, family in enumerate(["dfp-ordered", "bfgs-ordered"]):

        def hunt(rng, t):
            n = int(rng.integers(2, 9))
            a = random_spd_matrix(n, rng)
            b = random_spd_matrix(n, rng)
            s = rng.standard_normal(n)
            base, improved, holds = _image_gain(_image_setup(family, a, b, None), s)
            if holds == "degenerate":
                return None
            breach = improved < base - _slacked(base)
            return ((base - improved) / max(1.0, abs(base)) if breach else 0.0), breach

        row = _tally(f"image-gain/{family}-unconstrained", trials, seed + 17 + j, hunt)
        note = f"informational hunt: {row.violations} breaches without the ordering hypothesis"
        rows.append(replace(row, violations=0, note=note))
    return rows


def _suite_projection_gain(seed, trials):
    rows = []
    specs = [("gpsb", False), ("gpsb", True), ("bgm", False), ("bgm", True)]
    for i, (family, proper) in enumerate(specs):

        def trial(rng, t):
            n = int(rng.integers(3 if proper else 2, 9))
            kd = int(rng.integers(2, n)) if proper else int(rng.integers(1, n))
            if family == "gpsb":
                a = _rand_sym(rng, n)
                E, U = _sym_with_kernel(rng, n, kd)
                m = None if rng.integers(3) == 0 else random_spd_matrix(n, rng, spectrum=(0.5, 2.0))
            else:
                a = rng.standard_normal((n, n))
                E, U = _nonsym_with_kernel(rng, n, kd)
                m = None
            b = a + E
            s = rng.standard_normal(n)
            basis = U[:, : kd - 1] if proper else U
            base, improved, holds, angle_res = oracle_projection_gain(family, a, b, m, basis, s)
            if holds == "degenerate":
                return None
            res = max(max(0.0, base - improved) / max(1.0, abs(base)), angle_res)
            if proper:
                # monotonicity: the full-kernel angle is no larger than the
                # subspace angle (sin theta <= sin gamma)
                wmat = None if m is None else np.linalg.inv(m @ m)
                sin_g = _sin_to_complement(s, basis, wmat)
                sin_t = _sin_to_complement(s, U, wmat)
                res = max(res, max(0.0, sin_t - sin_g))
            return res, (not holds) or angle_res > ANGLE_SLACK

        tag = "subspace" if proper else "kernel"
        rows.append(_tally(f"projection-gain/{family}-{tag}", trials, seed + 20 + i, trial))
    return rows


def _sin_to_complement(s, basis, wmat):
    """sin of the W-angle between s and span(basis): norm ratio of the
    W-orthogonal residual of s against the basis."""
    resid = _w_residual(s, basis, wmat)
    return np.sqrt(max(0.0, weighted_inner(resid, resid, wmat) / weighted_inner(s, s, wmat)))


def _gpsb_rule(rng, n):
    # generalized PSB in the norm of a random SPD M: minv2 = M^-2
    m = random_spd_matrix(n, rng, spectrum=(0.5, 2.0))
    return GeneralizedPSB(np.linalg.inv(m @ m))


def _suite_termination(seed, instances=100):
    rows = []
    # None: generalized PSB, with a fresh M drawn for each instance
    cases = [("broyden-theta0", Broyden(0.0)), ("broyden-theta1", Broyden(1.0)),
             ("psb", GeneralizedPSB()), ("gpsb", None), ("bgm", BGM())]
    for fi, (tag, rule) in enumerate(cases):
        for source in ("image", "orthogonalized"):

            def trial(rng, t):
                n = 2 + t % 9
                a = random_spd_matrix(n, rng)
                trace = run_process(ProcessConfig(
                    a=a, b0=np.eye(n), rule=rule or _gpsb_rule(rng, n),
                    direction_source=source, seed=seed + t,
                ))
                rel = trace.errors[-1] / euclidean_norm(a)
                return rel, rel > 1e-8 or len(trace.steps) > n

            # both sources replay the same seeded instances
            rows.append(_tally(f"termination/{tag}-{source}", instances, seed + 40 + fi, trial))
    return rows


def _suite_kernel_growth(seed, instances=50):
    def trial(rng, t):
        n = 2 + t % 9
        source = ("random", "image", "orthogonalized")[t % 3]
        a = random_spd_matrix(n, rng)
        # direct DFP, PSB, BGM, generalized PSB
        rule = (GeneralizedPSB(minv2=a), GeneralizedPSB(), BGM(), None)[t % 4] or _gpsb_rule(rng, n)
        trace = run_process(ProcessConfig(
            a=a, b0=np.eye(n), rule=rule, direction_source=source, seed=seed + t,
        ))
        reports = [check_kernel_growth(trace, tol) for tol in (KERNEL_TOL, 10 * KERNEL_TOL)]
        return 0.0, sum(len(report.violations) for report in reports)

    return [_tally("process/kernel-growth", instances, seed + 60, trial)]


def _suite_span_inclusion(seed, instances=50):
    def trial(rng, t):
        n = 2 + t % 9
        a = random_spd_matrix(n, rng)
        # BFGS, direct DFP, PSB, BGM
        rule = (Broyden(0.0), GeneralizedPSB(minv2=a), GeneralizedPSB(), BGM())[t % 4]
        trace = run_process(ProcessConfig(
            a=a, b0=np.eye(n), rule=rule, direction_source="orthogonalized", seed=seed + t,
        ))
        halt = HALT_RTOL * euclidean_norm(a)
        worst, violations = 0.0, 0
        for k in range(1, len(trace.matrices)):
            Ek = trace.matrices[k] - a
            if euclidean_norm(Ek) <= halt:
                break
            for j in range(k):
                sj = trace.steps[j]
                res = euclidean_norm(Ek @ sj) / (euclidean_norm(Ek) * euclidean_norm(sj))
                worst = max(worst, res)
                violations += res > 1e-8
        return worst, violations

    return [_tally("process/span-inclusion", instances, seed + 70, trial)]


def _suite_image_space(seed, trials=200):
    def trial(rng, t):
        n = int(rng.integers(2, 9))
        kd = int(rng.integers(0, n))
        if t % 2:
            E, _ = _sym_with_kernel(rng, n, kd) if kd else (_rand_sym(rng, n), None)
        else:
            E, _ = _nonsym_with_kernel(rng, n, kd) if kd else (rng.standard_normal((n, n)), None)
        W = random_spd_matrix(n, rng, spectrum=(0.5, 2.0))
        K = kernel_basis(E, 1e-8)
        X = np.linalg.solve(W, E.T)
        rank = np.linalg.matrix_rank(X, tol=1e-8 * max(1.0, np.linalg.norm(X, 2)))
        if rank + K.shape[1] != n:
            return 0.0, 1
        worst, violations = 0.0, 0
        if K.shape[1] == 0 or rank == 0:
            return worst, violations
        for i in range(n):
            xi = X[:, i]
            nx = euclidean_norm(xi)
            if nx <= 1e-12:
                continue
            for j in range(K.shape[1]):
                res = abs(xi @ (W @ K[:, j])) / (
                    np.sqrt(xi @ (W @ xi)) * np.sqrt(K[:, j] @ (W @ K[:, j]))
                )
                worst = max(worst, res)
                violations += res > SLACK
        return worst, violations

    return [_tally("process/image-space-characterization", trials, seed + 80, trial)]


def _lemma_suite(which, trials, seed):
    # oracle_lemmas as a pool task: a pool pickles a task by its name, and
    # tracers replace oracle_lemmas in this module, not this helper
    return [oracle_lemmas(which, trials, seed)]


def _run_suite(task):
    runner, args = task
    return runner(*args)


# verify_all's tasks by their index in its list, longest first: at trials=500
# on a 2-vCPU Xeon, image gain (1) takes about 0.6 s, termination (8) 0.45 s,
# projection gain (2) 0.4 s, the least-change lemmas (7, 6) 0.15 s each and
# every other task at most 0.09 s, 2.1 s in all
_LONGEST_FIRST = (1, 8, 2, 7, 6, 11, 0, 9, 5, 10, 3, 4)


def verify_all(seed=0, trials=500, workers=None):
    """Run every oracle suite; returns a list of SuiteRow.

    The suites share nothing (each draws from its own seeded generator), so
    they run as separate tasks on up to ``workers`` processes, by default one
    per CPU this process may run on (``pool.default_workers``).  The rows, in
    order and value, are the same for every ``workers``; at ``workers=1`` no
    pool starts and the tasks run here in row order.  ``ValueError`` refuses
    ``trials`` or ``workers`` below 1 and a negative ``seed``, and any of them
    that is not an integer, before a suite runs.
    """
    trials, seed = _check_trials(trials, seed)
    workers = default_workers() if workers is None else _count("workers", workers, 1)
    tasks = [(_suite_error_reduction, (seed, trials)), (_suite_image_gain, (seed, trials)),
             (_suite_projection_gain, (seed, trials))]
    tasks += [(_lemma_suite, (which, trials, seed + 30)) for which in _LEMMAS]
    tasks += [(runner, (seed,)) for runner in (_suite_termination, _suite_kernel_growth,
                                                 _suite_span_inclusion, _suite_image_space)]
    done = run_pool(tasks, _run_suite, workers, _LONGEST_FIRST)
    return [row for rows in done for row in rows]
