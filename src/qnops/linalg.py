"""Dense linear-algebra substrate: norms, weighted norms, kernels, angles.

Everything here operates on plain numpy arrays (square real matrices,
1-D vectors), except the stack helpers ``_mv``, ``_solve``, ``_dots``,
``_norms`` and ``_kernel_rows``, which the lab and the stacked updates use
on (k, ...) stacks, and ``weighted_frobenius_error``, which takes either.
"""

import math
import numbers

import numpy as np

__all__ = [
    "euclidean_norm",
    "kernel_basis",
    "angle_to_subspace",
    "weighted_frobenius_error",
]

#: default relative tolerance for rank decisions in kernel_basis
KERNEL_TOL = 1e-8
#: relative W-inner product below which a step counts as W-orthogonal to a
#: kernel direction (lab.check_kernel_growth)
ORTHO_TOL = 1e-8


def euclidean_norm(v):
    """||v||_2 of a real vector (||v||_F of a matrix) as a Python float,
    bit for bit np.linalg.norm(v) on float64 input.

    The same ravel and dot that ``np.linalg.norm`` runs for ``ord=None``,
    without its argument handling, and ``math.sqrt`` in place of ``np.sqrt``:
    both square roots are correctly rounded, so the value is the same, and a
    Python float spares the caller NumPy scalar arithmetic.  ``order="K"``
    keeps the summation order for strided views and Fortran-ordered
    matrices.  An empty input gives 0.0, a sum of squares that overflows
    gives inf, and a NaN entry gives NaN.  Dividing by the result follows
    Python's rules: a zero divisor raises ``ZeroDivisionError``.
    """
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


# The stack helpers below run one BLAS or LAPACK call per slice of a (k, ...)
# stack, the same call that the 2-D expression makes on that slice alone, so
# each slice comes out bit for bit as it would alone.  A product A @ v keeps
# A's per-slice strides, which select the BLAS kernel (a transposed A runs
# another gemv), and a vector product is the (1, n) @ (n, 1) ddot of u @ v.


def _mv(A, v):
    # A_i v_i of each slice: (k, n, p) @ (k, p) -> (k, n)
    return (A @ v[..., None])[..., 0]


def _solve(A, v):
    # A_i^-1 v_i of each slice
    return np.linalg.solve(A, v[..., None])[..., 0]


def _dots(u, v):
    # u_i . v_i of each slice, as a NumPy array
    return (u[:, None, :] @ v[:, :, None]).ravel()


def _norms(x):
    # euclidean_norm of each slice, as Python floats
    f = x.reshape(len(x), -1)
    return [math.sqrt(q) for q in _dots(f, f).tolist()]


def _check_kernel_tol(tol):
    # tol <= 0 alone lets NaN through: a NaN tol reads every kernel
    # dimension as 0 and an infinite one as n
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite positive real, got {tol!r}")


def _kernel_rows(E, tol):
    # the right singular vectors of each slice of E, as the rows of vt, and
    # the mask of those whose singular value is <= tol * sigma_max
    _, sv, vt = np.linalg.svd(E)
    return vt, sv <= tol * sv[..., :1]


def kernel_basis(E, tol=KERNEL_TOL):
    """Orthonormal basis (n x r column block) of the numerical kernel of E.

    Columns are the right singular vectors whose singular value is
    <= tol * sigma_max(E).  r may be zero (an (n, 0) block is returned).
    ``ValueError`` refuses a ``tol`` that is not a finite positive real.
    """
    _check_kernel_tol(tol)
    vt, mask = _kernel_rows(np.asarray(E, dtype=float), tol)
    return vt[mask].T


def angle_to_subspace(s, basis):
    """Principal angle (degrees) between s and the column span of basis.

    Computed as arccos(||proj|| / ||s||) where proj is the orthogonal
    projection of s onto the span.  An empty basis gives 90 degrees.
    """
    s = np.asarray(s, dtype=float)
    if not np.any(s):
        raise ValueError("zero vector has no angle")
    basis = np.asarray(basis, dtype=float)
    if basis.ndim == 1:
        basis = basis[:, None]
    if basis.shape[1] == 0:
        return 90.0
    coef = np.linalg.solve(basis.T @ basis, basis.T @ s)
    proj = basis @ coef
    c = min(np.sqrt(proj @ proj) / np.sqrt(s @ s), 1.0)
    return np.degrees(np.arccos(c))


def weighted_frobenius_error(X, M=None):
    """Weighted Frobenius norm ||M X M||_F; ``M=None`` gives the plain ||X||_F.

    X is one (n, n) matrix, giving a NumPy float, or a stack (k, n, n),
    giving the k norms; M is one (n, n) matrix, or for a stack also a
    (k, n, n) stack of them, one per slice.  Each norm is bit for bit
    ``np.linalg.norm`` of M X M of its slice alone in C order: the sum of
    squares of a slice is the (1, n^2) @ (n^2, 1) product, which NumPy
    computes as the same dot that ``np.linalg.norm`` runs on the raveled
    matrix.  A matrix is measured as a stack of one.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim not in (2, 3):
        raise ValueError(f"expected an (n, n) matrix or a (k, n, n) stack, got shape {X.shape}")
    if M is not None:
        M = np.asarray(M, dtype=float)
        if M.shape not in (X.shape[-2:], X.shape):
            raise ValueError(f"shape mismatch: {X.shape} vs {M.shape}")
        X = M @ X @ M
    stack = X if X.ndim == 3 else X[None]
    f = stack.reshape(stack.shape[0], 1, -1)
    norms = np.sqrt((f @ f.transpose(0, 2, 1)).ravel())
    return norms if X.ndim == 3 else norms[0]
