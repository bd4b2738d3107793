"""Secant-information transforms: image directions and step projections.

Two mechanisms are provided for replacing a raw correction pair (s, y)
before a matrix update:

* image directions -- build u from the current approximation (e.g.
  u = s - B^-1 y) and pair it with a secondary difference v, so the
  update enforces B+ u = v instead of the standard secant equation;
* the projection -- strip from s its components along the recent raw
  steps by small normal equations in a family-specific inner product
  (``normal_eq_projection``, the one route the solvers take).

Both carry explicit fallback signals (curvature failure, near-dependent
projected step) so drivers can revert to the raw pair and log the event.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import euclidean_norm
from .updates import SecantPair

__all__ = [
    "DISCARD_TOL",
    "RawHistory",
    "image_direction_broyden",
    "secondary_secant",
    "normal_eq_projection",
]

#: relative ||s_tilde|| / ||s|| threshold below which a projected step is discarded
DISCARD_TOL = 1e-8


@dataclass
class RawHistory:
    """Window of the most recent raw (s, y) pairs, oldest first (capacity d)."""

    d: int
    s_list: list = field(default_factory=list)
    y_list: list = field(default_factory=list)

    def __len__(self):
        return len(self.s_list)

    def append(self, s, y):
        self.s_list.append(s)
        self.y_list.append(y)
        if len(self.s_list) > self.d:
            self.s_list.pop(0)
            self.y_list.pop(0)


def image_direction_broyden(h_apply, s, y):
    """u = s - B^-1 y, the image of s under B^-1(B - A) on a quadratic.

    ``h_apply`` applies B^-1 to a vector: a product with H = B^-1, or a
    solve with B.  A zero u signals that B already acts exactly along s
    (caller should skip).
    """
    return s - h_apply(y)


def secondary_secant(grad, x_next, u):
    """Secondary difference v = g(x_next + u) - g(x_next), exact (v = A u)
    when the gradient is linear."""
    return grad(x_next + u) - grad(x_next)


def _beta_solve(G, rhs):
    # Solve the m x m projection system, m >= 2.  The closed forms divide by
    # the determinant, so they run only where it is finite and nonzero: one
    # that overflows or underflows says nothing about singularity, and that
    # system goes to the LU path, whose LinAlgError the caller maps to the
    # ``singular`` fallback.
    m = G.shape[0]
    if m == 2:
        # In Python floats, whose products and sums round as NumPy's do and
        # overflow to inf or NaN without a warning.
        (g00, g01), (g10, g11) = G.tolist()
        r0, r1 = rhs.tolist()
        det = g00 * g11 - g01 * g10
        if det != 0.0 and math.isfinite(det):
            return np.array([(r0 * g11 - g01 * r1) / det, (g00 * r1 - r0 * g10) / det])
    elif m == 3:
        # Cramer's rule: det(G) and the three with rhs in column j, in one
        # call, on the system halved.  np.linalg.det goes through log|det|
        # and exp, so unlike in the other routes the halving moves this
        # path's bits, and the pinned counts are measured with it.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            half_g, half_rhs = G / 2.0, rhs / 2.0
            stack = np.stack([half_g] * 4)
            for j in range(3):
                stack[j + 1, :, j] = half_rhs
            dets = np.linalg.det(stack)
            if dets[0] != 0.0 and np.isfinite(dets[0]):
                return dets[1:] / dets[0]
    return np.linalg.solve(G, rhs)


def _scalar_beta(s, y, s0, y0, family, minv2):
    # The m = 1 system in Python floats.  NumPy computes each (1, n) @ (n, 1)
    # product of the matrix path as 0 + ddot, the ddot that ndarray.dot
    # calls; ``0.0 +`` restores the leading zero that dot leaves out at n = 1
    # (a -0.0 product).  A dot is symmetric in its operands, so the entry of
    # S'Y + Y'S is sy + sy.
    if family == "broyden":
        sy = 0.0 + float(s0.dot(y0))
        g = sy + sy
        r = 0.0 + float(s0.dot(y)) + float(y0.dot(s))
    else:
        ms0 = s0 if minv2 is None else minv2 @ s0
        g = 0.0 + float(s0.dot(ms0))
        r = 0.0 + float(ms0.dot(s))
    return r / g if g != 0.0 else math.nan  # r / 0 is never finite


def normal_eq_projection(pair, raw, family, minv2=None):
    """Project (s, y) against the raw step window via small normal equations.

    Solves the family-specific d x d system

        broyden: (S'Y + Y'S) beta = S'y + Y's   (symmetrized)
        gpsb:    (S'M^-2 S) beta = S'M^-2 s
        bgm:     (S'S) beta = S's          (gpsb with M = I)

    and returns ``(SecantPair(s - S beta, y - Y beta), beta, reason)``
    where ``reason`` is None on success, ``"discard"`` when the projected
    step is near-dependent (||s~|| < DISCARD_TOL * ||s||), or
    ``"curvature"`` when s~'y~ <= 0 for the broyden family.  On a
    non-None reason the returned pair is the raw one.  The window itself
    is left untouched; drivers append the raw pair after transforming.
    """
    if family not in ("broyden", "gpsb", "bgm"):  # bgm: the Euclidean gpsb (minv2=None)
        raise ValueError(f"unknown family {family!r}")
    s, y = pair.s, pair.y
    m = len(raw)
    if m == 0:
        return SecantPair(s, y, pair.transformed), np.empty(0), None
    if m == 1:
        s0, y0 = raw.s_list[0], raw.y_list[0]
        b = _scalar_beta(s, y, s0, y0, family, minv2)
        if not math.isfinite(b):
            return SecantPair(s, y, "raw"), np.empty(0), "singular"
        # S @ beta is 0 + s0 * beta, whose zeros are +0.0
        beta = np.array([b])
        st = s - (0.0 + s0 * b)
        yt = y - (0.0 + y0 * b)
    else:
        s_cols, y_cols = raw.s_list, raw.y_list
        if m == 3:
            s_cols, y_cols = s_cols[::-1], y_cols[::-1]
        S = np.column_stack(s_cols)
        Y = np.column_stack(y_cols)
        if family == "broyden":
            G = S.T @ Y + Y.T @ S
            rhs = S.T @ y + Y.T @ s
        else:
            MS = S if minv2 is None else minv2 @ S
            G = S.T @ MS
            rhs = MS.T @ s
        try:
            beta = _beta_solve(G, rhs)
        except np.linalg.LinAlgError:
            return SecantPair(s, y, "raw"), np.empty(0), "singular"
        if not np.isfinite(beta).all():
            return SecantPair(s, y, "raw"), np.empty(0), "singular"
        st = s - S @ beta
        yt = y - Y @ beta
    if euclidean_norm(st) < DISCARD_TOL * euclidean_norm(s):
        return SecantPair(s, y, "raw"), beta, "discard"
    if family == "broyden" and st @ yt <= 0:
        return SecantPair(s, y, "raw"), beta, "curvature"
    return SecantPair(st, yt, "projected"), beta, None
