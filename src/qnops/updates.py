"""Matrix update formulas: Broyden family, generalized PSB family, BGM, L-BFGS.

All updates are pure: they take the current approximation and a secant
pair and return a fresh matrix, so callers can retain the full iterate
history.  ``SecantPair`` tags where its (s, y) came from (``raw``,
``image`` or ``projected``) for trace bookkeeping; the formulas only read
``.s`` and ``.y``.  The Broyden, generalized PSB and BGM formulas also come
stacked (``*_update_stack``), for the lab's process on many targets at once;
the solvers run the 1-D formulas.
"""

from functools import partial
from typing import NamedTuple

import numpy as np

from .linalg import _dots, _mv, _norms, euclidean_norm

__all__ = [
    "SecantPair",
    "CurvatureError",
    "DegenerateUpdateError",
    "broyden_update",
    "dfp_direct_update",
    "gpsb_update",
    "bgm_update",
    "broyden_update_stack",
    "gpsb_update_stack",
    "bgm_update_stack",
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


# The rank-one terms below are written into scratch buffers as the BLAS
# product of a column and a row, and scaled in place; every sum keeps the
# association and operand order of the formula in the docstring.  Each entry
# of a b' is the one rounding of a_i * b_j, so every nonzero entry is bit for
# bit the np.outer one.  An entry that rounds to zero takes the sign the BLAS
# gives it: gemm (and syrk, NumPy's route for a vector times itself) gives +0
# for an exact zero product, where np.outer may give -0, while an underflowing
# product can keep its sign.  The values, and so every comparison, are
# np.outer's; at n = 50 the product costs under half the broadcast multiply,
# which runs its inner loop once per row.  The stacks keep that multiply.


def _outer(a, b, out=None):
    return np.dot(a[:, None], b[None, :], out=out)


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
    On a pair y = A s it is ``gpsb_update(B, pair, minv2=A)`` bit for bit,
    which is how the lab runs it; nothing in the package calls this
    function, which stays for the benchmark's span tracer.
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


# The stacked updates below apply one formula to each slice of a stack: B of
# shape (k, n, n), s and y of shape (k, n), and for gpsb a (k, n, n) stack of
# M^-2 or None.  Each returns the new stack and one message per slice: None,
# or the text the 1-D formula would raise with, in which case the slice keeps
# its B and none of its arithmetic runs (nor warns).  Every product is a
# linalg stack helper and every other operation is elementwise in the 1-D
# formula's order, so each slice is bit for bit the 1-D result on it alone.


def _outers(a, b, out=None):
    # _outer of each slice
    return np.multiply(a[:, :, None], b[:, None, :], out=out)


def _col(x):
    # a (k,) array as (k, 1, 1), to scale each slice of a stack
    return x[:, None, None]


def _on_rows(formula, B, messages, *stacks):
    # formula(B, *stacks) on the slices without a message; the others keep B
    ok = [m is None for m in messages]
    if all(ok):
        return formula(B, *stacks), messages
    Bn = B.copy()
    if any(ok):
        rows = np.flatnonzero(ok)
        Bn[rows] = formula(B[rows], *(x if x is None else x[rows] for x in stacks))
    return Bn, messages


def _broyden_rows(B, y, Bs, sBs, sy, theta):
    T = _outers(Bs, Bs)
    T /= _col(sBs)
    Bn = np.subtract(B, T, out=T)
    U = _outers(y, y)
    U /= _col(sy)
    Bn += U
    if theta != 0.0:
        w = np.sqrt(sBs)[:, None] * (y / sy[:, None] - Bs / sBs[:, None])
        _outers(w, w, out=U)
        if theta != 1.0:
            U *= theta
        Bn += U
    return Bn


def broyden_update_stack(B, s, y, theta):
    """``broyden_update`` of each slice; see the stacked updates above."""
    Bs = _mv(B, s)
    sBs = _dots(s, Bs)
    sy = _dots(s, y)
    # the 1-D checks' products, in their order
    curvature = sy <= CURVATURE_TOL * np.array(_norms(s)) * np.array(_norms(y))
    flat = np.abs(sBs) <= 1e-14 * _dots(s, s) * np.array(_norms(B))
    messages = [f"s'y = {q:.3e} fails the curvature condition" if c
                else "s'Bs is numerically zero" if f else None
                for q, c, f in zip(sy, curvature, flat)]
    return _on_rows(partial(_broyden_rows, theta=theta), B, messages, y, Bs, sBs, sy)


def _sym_rank2_rows(B, a, b, c, den):
    T = _outers(a, b)
    U = np.add(T, T.swapaxes(-1, -2))
    U /= _col(den)
    Bn = np.add(B, U, out=U)
    # c / den**2 of NumPy scalars, as _sym_rank2 takes it: a stacked den**2
    # would be den * den, not the scalar power
    coef = np.array([ci / di**2 for ci, di in zip(c, den)])
    np.multiply(_col(coef), _outers(b, b, out=T), out=T)
    return np.subtract(Bn, T, out=Bn)


def gpsb_update_stack(B, s, y, minv2=None):
    """``gpsb_update`` of each slice, with each slice's own M^-2 (None: M = I)."""
    r = y - _mv(B, s)
    ms = s if minv2 is None else _mv(minv2, s)
    sms = _dots(s, ms)
    messages = ["s'M^-2 s must be positive" if q <= 0 else None for q in sms]
    return _on_rows(_sym_rank2_rows, B, messages, r, ms, _dots(r, s), sms)


def _bgm_rows(B, s, y, ss):
    T = _outers(y - _mv(B, s), s)
    T /= _col(ss)
    return np.add(B, T, out=T)


def bgm_update_stack(B, s, y):
    """``bgm_update`` of each slice."""
    ss = _dots(s, s)
    messages = ["zero step" if q == 0.0 else None for q in ss]
    return _on_rows(_bgm_rows, B, messages, s, y, ss)


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
