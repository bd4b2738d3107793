"""Matrix update formulas: Broyden family, generalized PSB family, BGM, L-BFGS.

All updates are pure: they take the current approximation and a secant
pair and return a fresh matrix, so callers can retain the full iterate
history.  ``SecantPair`` tags where its (s, y) came from (``raw``,
``image`` or ``projected``) for trace bookkeeping; the formulas only read
``.s`` and ``.y``.
"""

from typing import NamedTuple

import numpy as np

from .linalg import euclidean_norm

__all__ = [
    "SecantPair",
    "CurvatureError",
    "DegenerateUpdateError",
    "broyden_update",
    "dfp_direct_update",
    "gpsb_update",
    "bgm_update",
    "lbfgs_direction",
]

#: relative curvature threshold: updates needing s'y > 0 reject pairs with
#: s'y <= CURVATURE_TOL * ||s|| * ||y|| (scale-invariant).
CURVATURE_TOL = 1e-12


class SecantPair(NamedTuple):
    s: np.ndarray
    y: np.ndarray
    transformed: str = "raw"


class CurvatureError(ArithmeticError):
    """Raised when s'y is not safely positive; the caller decides the fallback."""


class DegenerateUpdateError(ArithmeticError):
    """Raised when an update denominator is numerically zero."""


def _check_curvature(s, y, sy):
    if sy <= CURVATURE_TOL * euclidean_norm(s) * euclidean_norm(y):
        raise CurvatureError(f"s'y = {sy:.3e} fails the curvature condition")


# The rank-one terms below are written into scratch buffers with a broadcast
# multiply (the elementwise products np.outer computes) and scaled in place;
# every sum keeps the association and operand order of the formula in the
# docstring, so the result is bit for bit the one np.outer temporaries give.


def _outer(a, b, out=None):
    return np.multiply(a[:, None], b, out=out)


def _sym_rank2(B, a, b, c, den):
    # B + (a b' + b a') / den - (c / den**2) * b b'; b a' is (a b').T exactly,
    # since a floating-point product does not depend on the order of its factors
    T = _outer(a, b)
    U = np.add(T, T.T)
    U /= den
    Bn = np.add(B, U, out=U)
    np.multiply(c / den**2, _outer(b, b, out=T), out=T)
    return np.subtract(Bn, T, out=Bn)


def broyden_update(B, pair, theta):
    """One-parameter rank-two family: theta=0 is BFGS, theta=1 is DFP.

    B+ = B - B s s'B / s'Bs + y y' / s'y + theta * w w',
    w = sqrt(s'Bs) * (y / s'y - B s / s'Bs).

    The BFGS update of an inverse approximation H, with H+ y = s, is the
    DFP member of the swapped pair: ``broyden_update(H, SecantPair(y, s), 1.0)``.
    """
    s, y = pair.s, pair.y
    Bs = B @ s
    sBs = s @ Bs
    sy = s @ y
    _check_curvature(s, y, sy)
    if abs(sBs) <= 1e-14 * (s @ s) * euclidean_norm(B):
        raise DegenerateUpdateError("s'Bs is numerically zero")
    T = _outer(Bs, Bs)
    T /= sBs
    Bn = np.subtract(B, T, out=T)
    U = _outer(y, y)
    U /= sy
    Bn += U
    if theta != 0.0:
        w = np.sqrt(sBs) * (y / sy - Bs / sBs)
        _outer(w, w, out=U)
        if theta != 1.0:  # 1.0 * x is x: DFP, and BFGS's dual on H, skip the pass
            U *= theta
        Bn += U
    return Bn


def dfp_direct_update(B, pair):
    """Direct DFP via its rank-two residual expression.

    B+ = B + [(y - Bs) y' + y (y - Bs)'] / s'y - [(y - Bs)'s / (s'y)^2] y y'.
    Independent of broyden_update(theta=1); the two agree to roundoff.
    """
    s, y = pair.s, pair.y
    sy = s @ y
    _check_curvature(s, y, sy)
    r = y - B @ s
    return _sym_rank2(B, r, y, r @ s, sy)


def gpsb_update(B, pair, minv2=None):
    """Least-change symmetric update in the ||M X M||_F norm, parameterized by M^-2.

    B+ = B + [r (M^-2 s)' + (M^-2 s) r'] / (s'M^-2 s)
           - [r's / (s'M^-2 s)^2] (M^-2 s)(M^-2 s)',   r = y - B s.

    ``minv2=None`` means M = I, the standard PSB update.  The dual update
    of an inverse approximation H, with H+ y = s, is this update of the
    swapped pair: ``gpsb_update(H, SecantPair(y, s), minv2)``.
    """
    s, y = pair.s, pair.y
    r = y - B @ s
    if minv2 is None:
        ms = s
    else:
        ms = minv2 @ s
    sms = s @ ms
    if sms <= 0:
        raise DegenerateUpdateError("s'M^-2 s must be positive")
    return _sym_rank2(B, r, ms, r @ s, sms)


def bgm_update(B, pair):
    """Rank-one secant update minimizing the Frobenius change (nonsymmetric).

    B+ = B + (y - B s) s' / s's.
    """
    s, y = pair.s, pair.y
    ss = s @ s
    if ss == 0.0:
        raise DegenerateUpdateError("zero step")
    T = _outer(y - B @ s, s)
    T /= ss
    return np.add(B, T, out=T)


def lbfgs_direction(history, g, h0_scale, rhos=None):
    """Two-loop recursion: returns H g for the implicit limited-memory inverse.

    ``history`` is an ordered (oldest first) sequence of SecantPair with
    s'y > 0 (enforced at storage time by the drivers); the initial matrix
    is h0_scale * I.  ``rhos`` holds 1 / s'y of each pair in the same order
    (the drivers store it with the pair); by default it is computed here.
    The scalars are Python floats and q, r are updated in place.  A product
    is ``0.0 + ndarray.dot``, the value of ``@`` (dot omits the 0.0 at n = 1).
    """
    if rhos is None:
        rhos = [1.0 / float(s.dot(y)) for s, y, _ in history]
    q = g.copy()
    alphas = []
    for (s, y, _), rho in zip(reversed(history), reversed(rhos)):
        a = rho * (0.0 + float(s.dot(q)))
        alphas.append(a)
        q -= a * y
    r = h0_scale * q
    for (s, y, _), rho, a in zip(history, rhos, reversed(alphas)):
        r += (a - rho * (0.0 + float(y.dot(r)))) * s
    return r
