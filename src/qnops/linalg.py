"""Dense linear-algebra substrate: norms, weighted inner products, kernels, angles.

Everything here operates on plain numpy arrays (square real matrices,
1-D vectors).  A weight ``w`` of ``None`` means the Euclidean inner
product throughout.
"""

import numpy as np

__all__ = [
    "euclidean_norm",
    "weighted_inner",
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
    """||v||_2 of a real vector (||v||_F of a matrix), bit for bit np.linalg.norm(v).

    The same ravel, dot and sqrt that ``np.linalg.norm`` runs for ``ord=None``,
    without its argument handling.  ``order="K"`` keeps its summation order for
    strided views and Fortran-ordered matrices.
    """
    v = v.ravel(order="K")
    return np.sqrt(v.dot(v))


def weighted_inner(a, b, w=None):
    """Inner product <a, b>_W = a^T W b; ``w=None`` is the Euclidean dot."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if w is None:
        return a @ b
    w = np.asarray(w, dtype=float)
    if w.shape != (a.size, a.size):
        raise ValueError(f"weight shape {w.shape} does not match vectors of size {a.size}")
    return a @ (w @ b)


def kernel_basis(E, tol=KERNEL_TOL):
    """Orthonormal basis (n x r column block) of the numerical kernel of E.

    Columns are the right singular vectors whose singular value is
    <= tol * sigma_max(E).  r may be zero (an (n, 0) block is returned).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    E = np.asarray(E, dtype=float)
    _, sv, vt = np.linalg.svd(E)
    smax = sv[0] if sv.size else 0.0
    mask = sv <= tol * smax
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

    X is one (n, n) matrix, giving a float, or a stack (k, n, n), giving
    the k norms, each bit for bit ``np.linalg.norm`` of its slice in C
    order: the sum of squares of a slice is the (1, n^2) @ (n^2, 1)
    product, which NumPy computes as the same dot that ``np.linalg.norm``
    runs on the raveled matrix.  A matrix is measured as a stack of one.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim not in (2, 3):
        raise ValueError(f"expected an (n, n) matrix or a (k, n, n) stack, got shape {X.shape}")
    if M is not None:
        M = np.asarray(M, dtype=float)
        if M.shape != X.shape[-2:]:
            raise ValueError(f"shape mismatch: {X.shape} vs {M.shape}")
        X = M @ X @ M
    stack = X if X.ndim == 3 else X[None]
    f = stack.reshape(stack.shape[0], 1, -1)
    norms = np.sqrt((f @ f.transpose(0, 2, 1)).ravel())
    return norms if X.ndim == 3 else norms[0]
