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

The process runs on stacks: ``_process_stack`` drives k targets of one n
under one rule type and direction source at once, through the rule's
``update_stack``, and a member leaves the stack when it halts, breaks down
or runs out of steps.  ``run_process`` is that process on a stack of one.

Oracle verdicts use a 1e-9 relative slack (with a unit floor), chosen
above accumulation error for the dense n <= 10 algebra used here.  Every
suite runs its seeded trials through one loop, ``_tally``, which asks the
suite for chunks of at most ``_CHUNK`` trials; ``verify_all`` reports one
row per suite.  Each suite draws all the trials of a chunk first, in the
order one trial at a time would, then runs each group of one shape as a
stack (``_by_shape``), through stacked linear algebra that runs on each
slice the call a trial alone makes, so every trial's result is bit for bit
its result alone.  The error-reduction, image-gain and projection-gain
suites run the kernel that the public oracle runs on a stack of one, and
the process suites the stack that ``run_process`` runs on a stack of one.
"""

from dataclasses import dataclass, field, replace
from functools import partial
from typing import List, Optional, Union

import numpy as np

from .linalg import (
    KERNEL_TOL,
    ORTHO_TOL,
    _check_kernel_tol,
    _dots,
    _kernel_rows,
    _mv,
    _norms,
    _solve,
    euclidean_norm,
    kernel_basis,
    weighted_frobenius_error,
)
from .pool import default_workers, run_pool
from .problems import _spd_build, _spd_draws
from .solvers import BGM, Broyden, GeneralizedPSB, _check_square, _count
from .updates import DegenerateUpdateError, bgm_update_stack, gpsb_update_stack

# the lab no longer calls these; they stay importable here because the
# benchmark's span tracer and probe clock wrap them under these names
from .problems import random_spd_matrix  # noqa: F401
from .updates import broyden_update, dfp_direct_update, gpsb_update  # noqa: F401

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


def _check_m_read(family, m, unread):
    # the families in ``unread`` never read m, which would be ignored silently
    if m is not None and family in unread:
        raise ValueError(f"family {family!r} does not read m: pass m=None")


def _check_finite(**arrays):
    # a NaN or inf entry would run on to NaN results, read as a failed check
    for name, x in arrays.items():
        if x is not None and not np.isfinite(x).all():
            raise ValueError(f"{name} must be finite")


# The ratios below return numerators and denominators per slice; callers
# divide trial by trial.  Squares of norms stay Python floats: Python's x ** 2
# calls libm pow, which differs from NumPy's x ** 2 (x * x) in the last bit
# on about 1 in 1,200 random doubles, and these ratios were always Python's.


def _m_ratios(E, m, v):
    # ||M E v||^2 / ||M^-1 v||^2, the gpsb reduction functional (m=None: M=I)
    ev = _mv(E, v)
    num = _norms(ev if m is None else _mv(m, ev))
    den = _norms(v if m is None else _solve(m, v))
    return [q ** 2 for q in num], [q ** 2 for q in den]


def _e_ratios(E, v):
    # ||E v||^2 / v'v, the Euclidean reduction functional
    return [q ** 2 for q in _norms(_mv(E, v))], _dots(v, v)


def _w_residual(s, basis, wmat):
    # s minus its W-orthogonal projection onto span(basis), per slice
    wb = basis if wmat is None else wmat @ basis
    coef = _solve(basis.swapaxes(-1, -2) @ wb, _mv(wb.swapaxes(-1, -2), s))
    return s - _mv(basis, coef)


def _w_dots(v, wmat):
    # v'Wv of each slice (wmat=None: W=I)
    return _dots(v, v if wmat is None else _mv(wmat, v))


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
    dimension at most: ``_process_stack`` on a stack of one.

    Halts once ||B_k - A||_F <= HALT_RTOL * ||A||_F (status ``terminated``),
    after n steps (``exhausted``), or on a recorded update breakdown
    (``breakdown``).  ``ValueError`` refuses a rule other than ``Broyden``,
    ``GeneralizedPSB`` or ``BGM``, a target A that is not square, a ``minv2``
    that is not n x n, an A, B0 or ``minv2`` with a NaN or infinite entry, a
    seed that is not an integer of at least 0, and a direction source other
    than ``random``, ``image`` or ``orthogonalized``, all before the first
    step.
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
    b0 = np.asarray(config.b0, dtype=float)
    if b0.shape != a.shape:
        raise ValueError("A and B0 must be conformable")
    minv2 = getattr(rule, "minv2", None)
    if minv2 is not None:
        _check_square("minv2", minv2, n)
        minv2 = np.asarray(minv2, dtype=float)[None]
    _check_finite(a=a, b0=b0, minv2=minv2)
    seed = _count("seed", config.seed, 0)
    return _process_stack(rule, source, a[None], b0[None], [seed], minv2)[0]


def _process_stack(rule, source, a, b0, seeds, minv2=None):
    """``run_process`` of each slice of a stack, in slice order: a and b0 of
    shape (k, n, n), one seed per slice, and for a ``GeneralizedPSB`` rule
    the slices' own M^-2 stack (None: M = I).  Each slice draws from its own
    ``default_rng(seed)`` and leaves the stack once it halts, breaks down or
    runs out of steps, so its trace is bit for bit the one it makes alone."""
    k, n = a.shape[:2]
    # the rule's inner-product weight W of each slice (None = I)
    w = a if isinstance(rule, Broyden) else minv2
    traces = [ProcessTrace(weight=None if w is None else w[i], target=a[i]) for i in range(k)]
    halts = [HALT_RTOL * euclidean_norm(x) for x in a]
    rngs = [np.random.default_rng(seed) for seed in seeds] if source != "orthogonalized" else None
    # the live slices, one row each: the trace index, B_k, A, W, M^-2, and
    # the orthogonalized steps so far, one (rows, n) stack per step
    live, B, tgt, hist = np.arange(k), np.array(b0, dtype=float, order="C"), a, []

    def record(rows):
        # each matrix kept is a view of a stack that is never written again
        Bs = B[rows]
        for i, Bi, e in zip(live[rows], Bs, _norms(Bs - tgt[rows])):
            traces[i].matrices.append(Bi)
            traces[i].errors.append(e)

    def keep(rows, status):
        # drop the live rows outside the mask ``rows``, ending them with ``status``
        nonlocal live, B, tgt, w, minv2, hist
        if not rows.all():
            for i in live[~rows]:
                traces[i].status = status
            live, B, tgt, w, minv2 = _rows(rows, live, B, tgt, w, minv2)
            hist = [h[rows] for h in hist]

    record(slice(None))
    for step in range(n):
        keep(np.array([not traces[i].errors[-1] <= halts[i] for i in live]), "terminated")
        if not len(live):
            return traces
        events = [None] * len(live)
        if source == "orthogonalized":
            # e_step, W-orthogonalized against the earlier steps; each of them
            # lies in the span of e_0, ..., e_{step-1}, so entry ``step`` stays
            # exactly 1 and no direction can come out dependent
            s = np.tile(np.eye(n)[step], (len(live), 1))
            for h in hist:
                s = _w_deflate(s, h, w)
            hist.append(s)
        else:
            s = np.stack([rngs[i].standard_normal(n) for i in live])
            if source == "image":
                # W^-1 (B - A)' s: lands in the W-orthogonal complement of ker(B - A)
                s0, s = s, _mv((B - tgt).swapaxes(-1, -2), s)
                s = s if w is None else _solve(w, s)
                for j, (q, q0) in enumerate(zip(_norms(s), _norms(s0))):
                    if q <= 1e-14 * q0:
                        events[j] = f"step {step}: degenerate-image"
                        s[j] = s0[j]
        B, messages = rule.update_stack(B, s, _mv(tgt, s), minv2)
        ok = np.array([message is None for message in messages])
        for j, message in enumerate(messages):
            trace = traces[live[j]]
            if message is not None:
                trace.events.append(f"step {step}: breakdown: {message}")
                continue
            trace.steps.append(s[j])
            if events[j]:
                trace.events.append(events[j])
        if ok.any():
            record(slice(None) if ok.all() else ok)
        keep(ok, "breakdown")
    for i in live:
        traces[i].status = "terminated" if traces[i].errors[-1] <= halts[i] else "exhausted"
    return traces


def _w_deflate(s, h, w):
    # s minus its W-orthogonal projection on h, per slice (w=None: W = I)
    wh = h if w is None else _mv(w, h)
    return s - (_dots(s, wh) / _dots(h, wh))[:, None] * h


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

    ``ValueError`` refuses a ``tol`` that is not a finite positive real: a
    NaN one would read every dimension as 0 and an infinite one every
    dimension as n.
    """
    _check_kernel_tol(tol)
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


def _updated(update_stack, *args):
    # the updated stack; a slice that the 1-D update refuses raises as alone
    B, messages = update_stack(*args)
    for message in messages:
        if message is not None:
            raise DegenerateUpdateError(message)
    return B


def _error_reduction_stack(family, a, b, m, s):
    """``oracle_error_reduction`` of each slice of a stack: a, b and s (and
    m unless None) hold k trials of one n.  Returns the k results, each bit
    for bit the trial's alone: the gpsb norms are NumPy scalars, squared by
    their scalar power as the 2-D norm's were."""
    y = _mv(a, s)
    E = b - a
    out = []
    if family == "gpsb":
        minv2 = None if m is None else np.linalg.inv(m @ m)
        bplus = _updated(gpsb_update_stack, b, s, y, minv2)
        norms = weighted_frobenius_error(bplus - a, m), weighted_frobenius_error(E, m)
        for q, e, num, den in zip(*norms, *_m_ratios(E, m, s)):
            lhs, rhs = q ** 2, e ** 2 - num / den
            out.append((lhs, rhs, lhs <= rhs + _slacked(rhs)))
    elif family == "bgm":
        bplus = _updated(bgm_update_stack, b, s, y)
        for q, e, num, den in zip(_norms(bplus - a), _norms(E), *_e_ratios(E, s)):
            lhs, rhs = q ** 2, e ** 2 - num / den
            out.append((lhs, rhs, abs(lhs - rhs) <= BGM_IDENTITY_TOL * max(1.0, abs(rhs))))
    else:
        raise ValueError(f"unknown family {family!r}")
    return out


def oracle_error_reduction(family, a, b, m, s):
    """Both sides of the per-update error-reduction statement.

    family ``gpsb``: ||PSB_M(B,A,s) - A||_{M,F}^2 <= ||B - A||_{M,F}^2
    - ||M(B-A)s||^2 / ||M^-1 s||^2 (m=None means M=I).  family ``bgm``:
    the same statement with Euclidean norms holds as an exact identity.
    Returns (lhs, rhs, holds).  ``ValueError`` refuses an m for ``bgm``,
    which never reads it, an a, b, m or s with a NaN or infinite entry, and
    an s whose norm is 0, all zeros or so small that its sum of squares
    underflows: the update and the ratio divide by it.  The suite runs the
    same kernel on stacks of trials.
    """
    _check_m_read(family, m, ("bgm",))
    _check_finite(a=a, b=b, m=m, s=s)
    if euclidean_norm(np.asarray(s, dtype=float)) == 0.0:
        raise ValueError("s must have a nonzero norm: the update and the ratio divide by it")
    return _error_reduction_stack(family, *_stack_of_one(a, b, m, s))[0]


_ORDERED = ("dfp-ordered", "bfgs-ordered")


def _image_setup(family, a, b, m):
    """(E, apply_w, (base_ratio, improved_ratio)) of each image-gain theorem
    on stacks of k trials; ``b`` is the inverse approximation H for the
    bfgs variants.  ``apply_w`` maps a (k, n) stack of steps, and a ratio
    maps one to the numerators and denominators of its functional.  The two
    functionals coincide except for bgm, whose nonsymmetric E needs the
    transpose on the base side."""
    if family == "gpsb":
        E = b - a
        m2 = None if m is None else m @ m

        def apply_w(v):
            ev = _mv(E, v)
            return ev if m2 is None else _mv(m2, ev)

        ratio = partial(_m_ratios, E, m)

    elif family in ("dfp", "bfgs") + _ORDERED:
        # dfp weighs with W = A; bfgs is its dual, H against A^-1 with
        # W = A^-1, so A v and A^-1 v swap roles.  The ordered variants map
        # E v by B^-1 (H^-1) in place of W^-1.
        a_v, ainv_v = partial(_mv, a), partial(_solve, a)
        dual = family.startswith("bfgs")
        w_v, winv_v = (ainv_v, a_v) if dual else (a_v, ainv_v)
        E = b - (np.linalg.inv(a) if dual else a)
        map_v = partial(_solve, b) if family in _ORDERED else winv_v

        def apply_w(v):
            return map_v(_mv(E, v))

        def ratio(v):
            ev = _mv(E, v)
            return _dots(ev, winv_v(ev)), _dots(v, w_v(v))

    elif family == "bgm":
        E = b - a
        Et = E.swapaxes(-1, -2)
        # The Cauchy-Schwarz argument bounds ||E(E^T s)||^2/||E^T s||^2 from
        # below by ||E^T s||^2/||s||^2 (both are Rayleigh quotients of EE^T);
        # a base of ||Es||^2/||s||^2 would be false for nonsymmetric E, so
        # the base functional carries the transpose.
        return E, partial(_mv, Et), (partial(_e_ratios, Et), partial(_e_ratios, E))

    else:
        raise ValueError(f"unknown family {family!r}")
    return E, apply_w, (ratio, ratio)


def _ordering_met(a, b, E):
    # the ordered variants' hypothesis on each slice: SPD A and B, and E
    # one-signed up to 1e-12 of its norm (unit floor)
    tol = np.array([1e-12 * max(1.0, q) for q in _norms(E)])[:, None]
    w = np.linalg.eigvalsh(E)
    not_spd = (np.linalg.eigvalsh(a) <= 0).any(-1) | (np.linalg.eigvalsh(b) <= 0).any(-1)
    return ~not_spd & ((w >= -tol).all(-1) | (w <= tol).all(-1))


def _rows(rows, *stacks):
    # the slices ``rows`` of each stack; None stays None
    return [x if x is None else x[rows] for x in stacks]


def _image_gain_stack(family, a, b, m, s, gated=True):
    """``oracle_image_operator_gain`` of each slice of a stack: a, b and s
    (and m unless None) hold k trials of one n.  Returns the k results, each
    bit for bit the trial's alone.  ``gated=False`` drops the ordered
    variants' hypothesis check.  A trial that fails the hypothesis leaves
    the stack before its steps are mapped (its B may be singular), and a
    degenerate one before the ratios: the one-trial oracle never ran those
    steps on them."""
    out = [None] * len(s)
    live = np.arange(len(s))
    if gated and family in _ORDERED:
        met = _ordering_met(a, b, _image_setup(family, a, b, m)[0])
        if not met.all():
            for i in live[~met]:
                out[i] = (0.0, 0.0, "hypothesis not met")
            if not met.any():
                return out
            live = live[met]
            a, b, m, s = _rows(met, a, b, m, s)
    E, apply_w, _ = setup = _image_setup(family, a, b, m)
    ws = apply_w(s)
    keep = []
    for j, (s_norm, e_norm, ws_norm) in enumerate(zip(_norms(s), _norms(E), _norms(ws))):
        # an s whose sum of squares underflows leaves the base ratio 0 / 0
        if s_norm == 0.0 or ws_norm <= 1e-13 * max(e_norm * s_norm, 1e-300):
            out[live[j]] = (0.0, 0.0, "degenerate")
        else:
            keep.append(j)
    if not keep:
        return out
    if len(keep) < len(live):
        live, s, ws = live[keep], s[keep], ws[keep]
        setup = _image_setup(family, *_rows(keep, a, b, m))
    base_ratio, ratio = setup[2]
    for i, bn, bd, n, d in zip(live, *base_ratio(s), *ratio(ws)):
        base, improved = bn / bd, n / d
        out[i] = (base, improved, bool(improved >= base - _slacked(base)))
    return out


def _stack_of_one(*arrays):
    return [x if x is None else np.asarray(x, dtype=float)[None] for x in arrays]


def oracle_image_operator_gain(family, a, b, m, s):
    """Gain of the family's image operator: the reduction functional does
    not decrease when s is replaced by Ws.

    Returns (base, improved, holds); ``holds`` is True/False or one of the
    strings ``"hypothesis not met"`` / ``"degenerate"`` (neither counts as
    a violation); a step is degenerate when Ws vanishes relative to
    ||E|| ||s||, or when the norm of s is 0 or underflows.  For the bfgs
    variants ``b`` is the inverse approximation H and ``s`` plays the role
    of y.  The ordered variants need SPD A and B with B - A (H - A^-1 for
    bfgs) one-signed.  ``ValueError`` refuses an m for any family but
    ``gpsb``, the only one that reads it, and an a, b, m or s with a NaN or
    infinite entry.  The suites run the same kernel on stacks of trials.
    """
    _check_m_read(family, m, ("dfp", "bfgs", "bgm") + _ORDERED)
    _check_finite(a=a, b=b, m=m, s=s)
    return _image_gain_stack(family, *_stack_of_one(a, b, m, s))[0]


def _projection_gain_stack(family, a, b, m, C, s):
    """``oracle_projection_gain`` of each slice of a stack: a, b, the basis
    C and s (and m unless None) hold k trials of one n and one basis width.
    Returns the k results, each bit for bit the trial's alone."""
    s_norms = _norms(s)
    if 0.0 in s_norms:
        raise ValueError("s must have a nonzero norm: both gain ratios divide by it")
    E = b - a
    if family == "gpsb":
        wmat = None if m is None else np.linalg.inv(m @ m)
        ratio = partial(_m_ratios, E, m)
    elif family == "bgm":
        wmat, ratio = None, partial(_e_ratios, E)
    else:
        raise ValueError(f"unknown family {family!r}")
    stilde = s if C.shape[-1] == 0 else _w_residual(s, C, wmat)
    out = []
    for st_norm, s_norm, bn, bd, n, d, st_w, s_w in zip(
        _norms(stilde), s_norms, *ratio(s), *ratio(stilde), _w_dots(stilde, wmat), _w_dots(s, wmat)
    ):
        base = bn / bd
        if st_norm <= 1e-12 * s_norm:
            out.append((base, 0.0, "degenerate", 0.0))
            continue
        improved = n / d
        angle_residual = abs(base - st_w / s_w * improved) / max(1.0, abs(base))
        out.append((base, improved, bool(improved >= base - _slacked(base)), angle_residual))
    return out


def oracle_projection_gain(family, a, b, m, subspace_basis, s):
    """Gain from W-orthogonal projection of s against a subspace of
    ker(B - A): family ``gpsb`` (W = M^-2, m=None meaning M=I) or ``bgm``
    (Euclidean).  Returns (base, improved, holds, angle_identity_residual)
    where the identity is base = sin^2(angle(s, subspace)) * improved.
    ``ValueError`` refuses an m for ``bgm``, which never reads it, an input
    with a NaN or infinite entry, and an s whose norm is 0, all zeros or so
    small that its sum of squares underflows: both ratios would divide by
    it.  The suites run the same kernel on stacks of trials.
    """
    _check_m_read(family, m, ("bgm",))
    _check_finite(a=a, b=b, m=m, subspace_basis=subspace_basis, s=s)
    C = np.asarray(subspace_basis, dtype=float)
    if C.ndim == 1:
        C = C[:, None]
    a, b, m, C, s = _stack_of_one(a, b, m, C, s)
    return _projection_gain_stack(family, a, b, m, C, s)[0]


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


#: the most trials ``_tally`` asks a suite for at once, which bounds what a
#: chunk holds: its draws and its stacks.  No row of the default 500 trials
#: reaches it; it bounds memory for ``verify --trials`` above 500, where a
#: serial ``verify_all(0, 2000)`` peaks at 39.3-39.5 MB with it and
#: 43.2-43.4 MB without, and ``verify_all(0, 8000)`` at 39.7 MB and
#: 60.1-61.0 MB, in the same time (2-vCPU Xeon, fresh processes).  Smaller
#: caps cost time: chunks of 256 or 128 ran the image-gain stacks 6-16 %
#: and the projection-gain stacks 24-46 % slower at 500 trials
_CHUNK = 500


def _tally(name, trials, seed, trial):
    """Run seeded trials on one ``default_rng(seed)`` until ``trials`` count.
    ``trial(rng, t, count)`` runs the next ``count`` trials, numbered t,
    t + 1, ..., and returns their outcomes in order, each None (skipped,
    not counted) or (residual, violations); a trial that reads its number
    must never be skipped.  It is asked for at most ``_CHUNK`` of the
    ``trials - done`` still missing each time, all of which a loop of one
    trial at a time would run too, since at most that many of them can
    count, so the draws are that loop's.  The row keeps the worst residual
    and the total of the violations."""
    rng = np.random.default_rng(seed)
    max_res = 0.0
    violations = skipped = done = 0
    while done < trials:
        for out in trial(rng, done, min(_CHUNK, trials - done)):
            if out is None:
                skipped += 1
                continue
            res, bad = out
            max_res = max(max_res, res)
            violations += int(bad)
            done += 1
    return SuiteRow(name, trials, violations, max_res, skipped)


def _by_shape(draws, run):
    """``run(key, *stacks)`` once per group of ``draws`` that share a key,
    with each field of the group's draws stacked; the results in draw order.
    A draw is (key, fields), and ``run`` returns one result per slice."""
    groups = {}
    for i, (key, _) in enumerate(draws):
        groups.setdefault(key, []).append(i)
    out = [None] * len(draws)
    for key, rows in groups.items():
        stacks = [np.stack(field) for field in zip(*(draws[i][1] for i in rows))]
        for i, result in zip(rows, run(key, *stacks)):
            out[i] = result
    return out


def _rand_sym(rng, n):
    z = rng.standard_normal((n, n))
    return (z + z.T) / 2.0


def _diag(d):
    # np.diag of each vector of a stack
    D = np.zeros(d.shape + d.shape[-1:])
    i = np.arange(d.shape[-1])
    D[..., i, i] = d
    return D


# E with exactly a kd-dimensional kernel, symmetric or not, and U, an
# orthonormal kernel basis: the draws of one, then the build of one draw or
# of a stack of them


def _sym_kernel_draws(rng, n, kd):
    q = rng.standard_normal((n, n))
    return q, rng.uniform(0.5, 2.0, n - kd) * rng.choice([-1.0, 1.0], n - kd)


def _sym_kernel_build(z, d, kd):
    q, _ = np.linalg.qr(z)
    U, V = q[..., :kd], q[..., kd:]
    return V @ _diag(d) @ V.swapaxes(-1, -2), U


def _nonsym_kernel_draws(rng, n):
    q = rng.standard_normal((n, n))
    return q, rng.standard_normal((n, n)) + n * np.eye(n)


def _nonsym_kernel_build(z, R, kd):
    q, _ = np.linalg.qr(z)
    U = q[..., :kd]
    return R @ (np.eye(R.shape[-1]) - U @ U.swapaxes(-1, -2)), U


def _projectors(v):
    # I - v v' / v'v of each slice
    return np.eye(v.shape[-1]) - v[:, :, None] * v[:, None, :] / _dots(v, v)[:, None, None]


def _outcomes(draws, run):
    """``_by_shape(draws, run)`` with each lemma residual as a ``_tally``
    outcome: None (skipped) stays None."""
    return [None if res is None else (res, res > SLACK) for res in _by_shape(draws, run)]


# The lemma trials: each draws n in [2, 9) and then its matrices, and runs
# the trials of one n as a stack


def _sym_vector_draws(rng, count):
    # ``count`` trials' draws of a random symmetric n x n matrix and a vector
    draws = []
    for _ in range(count):
        n = int(rng.integers(2, 9))
        draws.append((n, (_rand_sym(rng, n), rng.standard_normal(n))))
    return draws


def _projected_contraction_stack(n, C, s):
    # ||P C P||^2 <= ||C||^2 - ||C s||^2 / s's for P = I - s s' / s's, on
    # each slice
    out = []
    P = _projectors(s)
    for d, c, num, den in zip(_norms(P @ C @ P), _norms(C), *_e_ratios(C, s)):
        lhs, rhs = d ** 2, c ** 2 - num / den
        out.append(max(0.0, lhs - rhs) / max(1.0, abs(rhs)))
    return out


def _lemma_projected_contraction(rng, t, count):
    return _outcomes(_sym_vector_draws(rng, count), _projected_contraction_stack)


def _image_ratio_stack(n, B, u):
    # ||B u||^2 / u'u <= ||B (B u)||^2 / ||B u||^2 for symmetric B, on each
    # slice; a u with B u near 0 is skipped before its ratio is taken
    bu = _mv(B, u)
    bu_norms = _norms(bu)
    keep = [j for j, (q, q0) in enumerate(zip(bu_norms, _norms(u))) if not q <= 1e-12 * q0]
    out = [None] * len(u)
    if keep:
        for j, uu, num, den in zip(keep, _dots(u[keep], u[keep]), *_e_ratios(B[keep], bu[keep])):
            l_u, l_bu = bu_norms[j] ** 2 / uu, num / den
            out[j] = max(0.0, l_u - l_bu) / max(1.0, abs(l_u))
    return out


def _lemma_image_ratio(rng, t, count):
    return _outcomes(_sym_vector_draws(rng, count), _image_ratio_stack)


def _one_sided_ratio_stack(n, z, lam, u):
    # with L = Q diag(lam) Q' >= I or <= I and K = L^-1 - I, the ratio
    # ||K v||^2 / v'v does not fall from v = u to v = (I - L) u, on each
    # slice; a u with (I - L) u near 0 is skipped before its ratio is taken
    Q, _ = np.linalg.qr(z)
    L = Q @ _diag(lam) @ Q.swapaxes(-1, -2)
    ilu = _mv(np.eye(n) - L, u)
    keep = [j for j, (q, q0) in enumerate(zip(_norms(ilu), _norms(u))) if not q <= 1e-10 * q0]
    out = [None] * len(u)
    if keep:
        K = np.linalg.inv(L[keep]) - np.eye(n)
        for j, ln, ld, rn, rd in zip(keep, *_e_ratios(K, ilu[keep]), *_e_ratios(K, u[keep])):
            lhs, rhs = ln / ld, rn / rd
            out[j] = max(0.0, rhs - lhs) / max(1.0, abs(rhs))
    return out


def _lemma_one_sided_ratio(rng, t, count):
    draws = []
    for _ in range(count):
        n = int(rng.integers(2, 9))
        z = rng.standard_normal((n, n))
        if rng.integers(2):
            lam = np.exp(rng.uniform(0.0, np.log(10.0), n))  # L >= I
        else:
            lam = np.exp(rng.uniform(np.log(0.1), 0.0, n))  # L <= I
        draws.append((n, (z, lam, rng.standard_normal(n))))
    return _outcomes(draws, _one_sided_ratio_stack)


def _least_change(dual, rng, t, count):
    """The generalized PSB update (its dual, on the swapped pair, with
    ``dual``) is symmetric, meets its secant equation and is no farther from
    B in the M-weighted norm than 100 random competitors that do too."""
    draws, states = [], []
    for i in range(count):
        n = int(rng.integers(2, 9))
        draws.append((n, (_rand_sym(rng, n), *_spd_draws(n, rng, (0.5, 2.0)),
                          rng.standard_normal(n), rng.standard_normal(n), i)))
        # the 100 competitors' normals, from the stream that 100 _rand_sym
        # calls would read: the trial keeps the generator's state and draws
        # them again when it runs, so a chunk holds one trial's at a time
        states.append(rng.bit_generator.state)
        rng.standard_normal((100, n, n))
    replay = np.random.Generator(type(rng.bit_generator)())

    def run(n, B, z, lam, s, y, trials):
        M = _spd_build(z, lam)
        con, target = (y, s) if dual else (s, y)
        bplus = _updated(gpsb_update_stack, B, con, target, np.linalg.inv(M @ M))
        secant = _norms(_mv(bplus, con) - target), _norms(target)
        dists = weighted_frobenius_error(bplus - B, M)
        out = []
        for i, b, b0, m, p, dist, r, q, asym in zip(
                trials, bplus, B, M, _projectors(con), dists, *secant,
                _norms(bplus - bplus.swapaxes(-1, -2))):
            # symmetric competitors with the same secant action, one trial's
            # stack at a time: the group's would hold 100 matrices a trial
            replay.bit_generator.state = states[i]
            Z = replay.standard_normal((100, n, n))
            cdists = weighted_frobenius_error(b + p @ ((Z + Z.swapaxes(-1, -2)) / 2.0) @ p - b0, m)
            worst = ((dist - cdists) / np.maximum(1.0, cdists)).max(initial=0.0)
            out.append(max(r / max(1.0, q), asym, worst))
        return out

    return _outcomes(draws, run)


# each lemma's chunk of trials, as _tally takes it
_LEMMAS = {
    "projected-contraction": _lemma_projected_contraction,
    "image-ratio": _lemma_image_ratio,
    "one-sided-ratio": _lemma_one_sided_ratio,
    "least-change-direct": partial(_least_change, False),
    "least-change-dual": partial(_least_change, True),
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
    trials, seed = _check_trials(trials, seed)
    return _tally(f"lemma/{which}", trials, seed, _LEMMAS[which])


# ---------------------------------------------------------------------------
# suite runners


def _error_reduction_trials(family, rng, t, count):
    """``oracle_error_reduction`` of the next ``count`` trials of the error-
    reduction row of ``family``, numbered t, t + 1, ..., in trial order, run
    as stacks as in ``_image_gain_trials``.  A gpsb trial weighs by a drawn
    M unless its number is a multiple of 3 (M = I), so whether M is drawn
    is part of the shape."""
    draws = []
    for i in range(t, t + count):
        n = int(rng.integers(2, 9))
        if family == "gpsb":
            fields = (_rand_sym(rng, n), _rand_sym(rng, n))
            if i % 3:
                fields += _spd_draws(n, rng, (0.5, 2.0))
        else:
            fields = (rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        draws.append(((n, len(fields)), fields + (rng.standard_normal(n),)))

    def run(key, a, b, *fields):
        *m, s = fields
        return _error_reduction_stack(family, a, b, _spd_build(*m) if m else None, s)

    return _by_shape(draws, run)


def _suite_error_reduction(seed, trials):
    def gpsb(rng, t, count):
        return [(max(0.0, lhs - rhs) / max(1.0, abs(rhs)), not holds)
                for lhs, rhs, holds in _error_reduction_trials("gpsb", rng, t, count)]

    def bgm(rng, t, count):
        return [(abs(lhs - rhs) / max(1.0, abs(rhs)), not holds)
                for lhs, rhs, holds in _error_reduction_trials("bgm", rng, t, count)]

    return [
        _tally("error-reduction/gpsb", trials, seed, gpsb),
        _tally("error-reduction/bgm-identity", trials, seed + 1, bgm),
    ]


def _image_draws(kind, rng):
    """One image-gain trial's draws, in the order the trial makes them, as
    (n, fields); ``kind`` is a family or ``"hunt"``, the counterexample
    hunt's pair of SPD matrices."""
    n = int(rng.integers(2, 9))
    if kind == "gpsb":
        fields = (_rand_sym(rng, n), _rand_sym(rng, n), *_spd_draws(n, rng, (0.5, 2.0)))
    elif kind in ("dfp", "bfgs"):
        fields = (*_spd_draws(n, rng), _rand_sym(rng, n))  # the symmetric one plays H for bfgs
    elif kind in _ORDERED:
        fields = (*_spd_draws(n, rng), rng.standard_normal((n, n)), rng.uniform(0.1, 1.0, n),
                  rng.integers(2))
    elif kind == "bgm":
        fields = (rng.standard_normal((n, n)), rng.standard_normal((n, n)))
    else:
        fields = (*_spd_draws(n, rng), *_spd_draws(n, rng))
    return n, fields + (rng.standard_normal(n),)


def _image_build(kind, fields):
    # the (a, b, m, s) stacks of a group of _image_draws
    *mats, s = fields
    m = None
    if kind == "gpsb":
        a, b, z, lam = mats
        m = _spd_build(z, lam)
    elif kind in ("dfp", "bfgs"):
        z, lam, b = mats
        a = _spd_build(z, lam)
    elif kind in _ORDERED:
        # B (H for bfgs) one-sidedly around its target A (A^-1 for bfgs)
        z, lam, qz, u, above = mats
        a = _spd_build(z, lam)
        center = a if kind == "dfp-ordered" else np.linalg.inv(a)
        q, _ = np.linalg.qr(qz)
        pert = q @ _diag(u) @ q.swapaxes(-1, -2)
        scale = 0.4 * np.linalg.eigvalsh(center)[:, 0] / np.linalg.eigvalsh(pert)[:, -1]
        b = np.where(above[:, None, None] != 0, center + pert, center - scale[:, None, None] * pert)
    elif kind == "bgm":
        a, b = mats
    else:
        a, b = _spd_build(*mats[:2]), _spd_build(*mats[2:])
    return a, b, m, s


def _image_gain_trials(family, rng, count, hunt=False):
    """``oracle_image_operator_gain`` of the next ``count`` trials of the
    image-gain row of ``family``, in trial order.  Every trial draws before
    any is evaluated (no draw depends on a linalg result), and the trials of
    one n run as one stack.  ``hunt=True`` runs an ordered family's
    counterexample hunt instead: each trial draws two SPD matrices, and the
    ordering hypothesis is not checked."""
    kind = "hunt" if hunt else family
    draws = [_image_draws(kind, rng) for _ in range(count)]
    return _by_shape(draws, lambda n, *fields: _image_gain_stack(
        family, *_image_build(kind, fields), gated=not hunt))


def _suite_image_gain(seed, trials):
    rows = []
    for i, family in enumerate(["gpsb", "dfp", "dfp-ordered", "bfgs", "bfgs-ordered", "bgm"]):

        def trial(rng, t, count):
            # hypothesis not met, or degenerate: skipped
            return [None if isinstance(holds, str)
                    else (max(0.0, base - improved) / max(1.0, abs(base)), not holds)
                    for base, improved, holds in _image_gain_trials(family, rng, count)]

        rows.append(_tally(f"image-gain/{family}", trials, seed + 10 + i, trial))
    # counterexample hunt: the ordered functionals evaluated WITHOUT their
    # ordering hypothesis.  Breaches are reported in the note, never as
    # violations.
    for j, family in enumerate(_ORDERED):

        def hunt(rng, t, count):
            outs = []
            for base, improved, holds in _image_gain_trials(family, rng, count, hunt=True):
                if holds == "degenerate":
                    outs.append(None)
                    continue
                breach = improved < base - _slacked(base)
                outs.append((((base - improved) / max(1.0, abs(base)) if breach else 0.0), breach))
            return outs

        row = _tally(f"image-gain/{family}-unconstrained", trials, seed + 17 + j, hunt)
        note = f"informational hunt: {row.violations} breaches without the ordering hypothesis"
        rows.append(replace(row, violations=0, note=note))
    return rows


def _projection_draws(family, proper, rng):
    """One projection-gain trial's draws, in the order the trial makes them,
    as ((n, kd, number of fields), fields): whether M is drawn is part of
    the shape."""
    n = int(rng.integers(3 if proper else 2, 9))
    kd = int(rng.integers(2, n)) if proper else int(rng.integers(1, n))
    if family == "gpsb":
        fields = (_rand_sym(rng, n), *_sym_kernel_draws(rng, n, kd))
        if rng.integers(3) != 0:
            fields += _spd_draws(n, rng, (0.5, 2.0))
    else:
        fields = (rng.standard_normal((n, n)), *_nonsym_kernel_draws(rng, n))
    return (n, kd, len(fields)), fields + (rng.standard_normal(n),)


def _projection_gain_trials(family, proper, rng, count):
    """(``oracle_projection_gain``, monotonicity gap) of the next ``count``
    trials of the projection-gain row, in trial order, run as stacks as in
    ``_image_gain_trials``.  The gap, sin theta - sin gamma of the
    full-kernel and the subspace angle, is None for the kernel rows."""

    def run(key, a, *fields):
        kd = key[1]
        *m, s = fields[2:]
        m = _spd_build(*m) if m else None
        build = _sym_kernel_build if family == "gpsb" else _nonsym_kernel_build
        E, U = build(*fields[:2], kd)
        basis = U[..., : kd - 1] if proper else U
        results = _projection_gain_stack(family, a, a + E, m, basis, s)
        if not proper:
            return [(r, None) for r in results]
        wmat = None if m is None else np.linalg.inv(m @ m)
        sin_g, sin_t = (_sin_to_complement(s, C, wmat) for C in (basis, U))
        return [(r, t - g) for r, g, t in zip(results, sin_g, sin_t)]

    return _by_shape([_projection_draws(family, proper, rng) for _ in range(count)], run)


def _suite_projection_gain(seed, trials):
    rows = []
    specs = [("gpsb", False), ("gpsb", True), ("bgm", False), ("bgm", True)]
    for i, (family, proper) in enumerate(specs):

        def trial(rng, t, count):
            outs = []
            for (base, improved, holds, angle_res), gap in _projection_gain_trials(
                    family, proper, rng, count):
                if holds == "degenerate":
                    outs.append(None)
                    continue
                res = max(max(0.0, base - improved) / max(1.0, abs(base)), angle_res)
                if proper:
                    # monotonicity: the full-kernel angle is no larger than
                    # the subspace angle (sin theta <= sin gamma)
                    res = max(res, max(0.0, gap))
                outs.append((res, (not holds) or angle_res > ANGLE_SLACK))
            return outs

        tag = "subspace" if proper else "kernel"
        rows.append(_tally(f"projection-gain/{family}-{tag}", trials, seed + 20 + i, trial))
    return rows


def _sin_to_complement(s, basis, wmat):
    """sin of the W-angle between s and span(basis), per slice: norm ratio
    of the W-orthogonal residual of s against the basis."""
    ratios = _w_dots(_w_residual(s, basis, wmat), wmat) / _w_dots(s, wmat)
    return [np.sqrt(max(0.0, q)) for q in ratios]


# A process suite's instance t has n = 2 + t % 9, a random SPD target A,
# B0 = I and the seed ``seed + t``; its rule is a rule, "dfp" (direct DFP,
# GeneralizedPSB(minv2=A)) or "gpsb" (generalized PSB in the norm of a random
# SPD M, minv2 = M^-2, drawn after A)


def _process_trials(rng, t, count, seed, spec):
    """``run_process`` of the next ``count`` instances of a process suite,
    numbered t, t + 1, ..., as traces in instance order; ``spec(t)`` gives
    instance t's (rule, direction source).  Every instance draws before any
    runs, and the instances of one n, rule and source run as one stack."""
    draws = []
    for i in range(t, t + count):
        n = 2 + i % 9
        rule, source = spec(i)
        fields = _spd_draws(n, rng)
        if rule == "gpsb":
            fields += _spd_draws(n, rng, (0.5, 2.0))
        draws.append(((n, rule, source), fields + (seed + i,)))

    def run(key, z, lam, *fields):
        n, rule, source = key
        *m, seeds = fields
        a = _spd_build(z, lam)
        minv2 = None
        if rule == "gpsb":
            m = _spd_build(*m)
            rule, minv2 = GeneralizedPSB(), np.linalg.inv(m @ m)
        elif rule == "dfp":
            rule, minv2 = GeneralizedPSB(), a
        b0 = np.broadcast_to(np.eye(n), a.shape)
        return _process_stack(rule, source, a, b0, seeds.tolist(), minv2)

    return _by_shape(draws, run)


def _suite_termination(seed, instances=100):
    rows = []
    cases = [("broyden-theta0", Broyden(0.0)), ("broyden-theta1", Broyden(1.0)),
             ("psb", GeneralizedPSB()), ("gpsb", "gpsb"), ("bgm", BGM())]
    for fi, (tag, rule) in enumerate(cases):
        for source in ("image", "orthogonalized"):

            def trial(rng, t, count):
                outs = []
                for trace in _process_trials(rng, t, count, seed, lambda i: (rule, source)):
                    rel = trace.errors[-1] / euclidean_norm(trace.target)
                    outs.append((rel, rel > 1e-8 or len(trace.steps) > trace.target.shape[0]))
                return outs

            # both sources replay the same seeded instances
            rows.append(_tally(f"termination/{tag}-{source}", instances, seed + 40 + fi, trial))
    return rows


def _suite_kernel_growth(seed, instances=50):
    def spec(t):
        # direct DFP, PSB, BGM, generalized PSB
        return (("dfp", GeneralizedPSB(), BGM(), "gpsb")[t % 4],
                ("random", "image", "orthogonalized")[t % 3])

    def trial(rng, t, count):
        return [(0.0, sum(len(check_kernel_growth(trace, tol).violations)
                          for tol in (KERNEL_TOL, 10 * KERNEL_TOL)))
                for trace in _process_trials(rng, t, count, seed, spec)]

    return [_tally("process/kernel-growth", instances, seed + 60, trial)]


def _suite_span_inclusion(seed, instances=50):
    def spec(t):
        # BFGS, direct DFP, PSB, BGM
        return (Broyden(0.0), "dfp", GeneralizedPSB(), BGM())[t % 4], "orthogonalized"

    def trial(rng, t, count):
        outs = []
        for trace in _process_trials(rng, t, count, seed, spec):
            a = trace.target
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
            outs.append((worst, violations))
        return outs

    return [_tally("process/span-inclusion", instances, seed + 70, trial)]


def _image_space_stack(n, E, W):
    """(worst residual, violations) of the image-space check on each slice
    of (k, n, n) stacks E and W: ker(E), as ``kernel_basis(E, 1e-8)``
    finds it, and the range of X = W^-1 E' must have dimensions that add up
    to n and be W-orthogonal, column by column of X."""
    vt, in_kernel = _kernel_rows(E, 1e-8)
    X = np.linalg.solve(W, E.swapaxes(-1, -2))
    # the rank of X as np.linalg.matrix_rank with tol 1e-8 * max(1, ||X||_2)
    sv = np.linalg.svd(X, compute_uv=False)
    out, live = [], []
    for j, (mask, q) in enumerate(zip(in_kernel, sv)):
        rank, dim = np.count_nonzero(q > 1e-8 * max(1.0, q.max())), np.count_nonzero(mask)
        out.append((0.0, int(rank + dim != n)))
        if rank + dim == n and dim and rank:
            live.append(j)
    if not live:
        return out
    # each live slice's kernel basis, one row per vector, and its residuals
    # in the order a trial alone takes them: column c of X, then kernel vector
    kernels = [vt[j][in_kernel[j]] for j in live]
    res = [[] for _ in live]
    X, W = X[live], W[live]
    for c in range(n):
        # a column's norm reads a contiguous copy, as euclidean_norm of
        # X[:, c] does, and its products the strided column, as X[:, c] @ v
        norms = _norms(np.ascontiguousarray(X[:, :, c]))
        rows = [r for r, q in enumerate(norms) if not q <= 1e-12]
        if not rows:
            continue
        x = X[rows][:, :, c]
        xwx = dict(zip(rows, _dots(x, _mv(W[rows], x))))
        for v in range(max(len(kernels[r]) for r in rows)):
            sub = [r for r in rows if v < len(kernels[r])]
            K = np.stack([kernels[r][v] for r in sub])
            wk = _mv(W[sub], K)
            for r, num, kwk in zip(sub, _dots(X[sub][:, :, c], wk), _dots(K, wk)):
                res[r].append(abs(num) / (np.sqrt(xwx[r]) * np.sqrt(kwk)))
    for j, r in zip(live, res):
        out[j] = (max([0.0, *r]), sum(q > SLACK for q in r))
    return out


def _image_space_trials(rng, t, count):
    """``_image_space_stack`` of the next ``count`` image-space trials,
    numbered t, t + 1, ..., in trial order.  Trial i draws n, a kernel
    dimension kd, then E with exactly that kernel (symmetric for odd i) and
    an SPD weight W; the trials of one n, kd and symmetry build as one
    stack, and then those of one n are checked as one."""
    draws = []
    for i in range(t, t + count):
        n = int(rng.integers(2, 9))
        kd = int(rng.integers(0, n))
        if i % 2:
            fields = _sym_kernel_draws(rng, n, kd) if kd else (_rand_sym(rng, n),)
        else:
            fields = _nonsym_kernel_draws(rng, n) if kd else (rng.standard_normal((n, n)),)
        draws.append(((n, kd, i % 2), fields + _spd_draws(n, rng, (0.5, 2.0))))

    def build(key, *fields):
        n, kd, sym = key
        *fields, z, lam = fields
        E = (_sym_kernel_build if sym else _nonsym_kernel_build)(*fields, kd)[0] if kd else fields[0]
        return [(len(e), (e, w)) for e, w in zip(E, _spd_build(z, lam))]

    return _by_shape(_by_shape(draws, build), _image_space_stack)


def _suite_image_space(seed, trials=200):
    return [_tally("process/image-space-characterization", trials, seed + 80,
                   _image_space_trials)]


def _lemma_suite(which, trials, seed):
    # oracle_lemmas as a pool task: a pool pickles a task by its name, and
    # tracers replace oracle_lemmas in this module, not this helper
    return [oracle_lemmas(which, trials, seed)]


def _run_suite(task):
    runner, args = task
    return runner(*args)


def _verify_tasks(seed, trials):
    """verify_all's tasks, (runner, args) pairs for ``_run_suite``, in row order."""
    tasks = [(_suite_error_reduction, (seed, trials)), (_suite_image_gain, (seed, trials)),
             (_suite_projection_gain, (seed, trials))]
    tasks += [(_lemma_suite, (which, trials, seed + 30)) for which in _LEMMAS]
    tasks += [(runner, (seed,)) for runner in (_suite_termination, _suite_kernel_growth,
                                                 _suite_span_inclusion, _suite_image_space)]
    return tasks


# verify_all's tasks by their index in its list, longest first, as
# ``PYTHONPATH=src python tools/suite_times.py`` prints it: at trials=500 on
# a 2-vCPU Xeon, image gain (1) takes about 0.17 s, termination (8) 0.14 s,
# projection gain (2) 0.14 s, the least-change lemmas (6, 7) 0.11 s each
# and every other task at most 0.06 s, 0.86 s in all (serial, one process,
# medians of 21 runs; the order of 6 and 7, and of the tasks after 9,
# varies between runs)
_LONGEST_FIRST = (1, 8, 2, 6, 7, 9, 11, 10, 0, 5, 3, 4)


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
    done = run_pool(_verify_tasks(seed, trials), _run_suite, workers, _LONGEST_FIRST)
    return [row for rows in done for row in rows]
