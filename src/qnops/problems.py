"""Test problems: benchmark quadratics and two small nonlinear systems."""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "SmoothProblem",
    "NonlinearSystem",
    "quadratic_weighted_50",
    "motivating_quadratic_2d",
    "circle_cosine_system",
    "modified_rosenbrock_10",
    "random_spd_quadratic",
    "random_spd_matrix",
]


@dataclass
class SmoothProblem:
    n: int
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Optional[np.ndarray] = None  # exact constant Hessian, when one exists
    x_star: Optional[np.ndarray] = None
    x0: Optional[np.ndarray] = None


@dataclass
class NonlinearSystem:
    n: int
    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    x_star: Optional[np.ndarray] = None
    x0: Optional[np.ndarray] = None


def _quadratic(A, **fields):
    """f(x) = 1/2 x'Ax with its exact Hessian A; ``fields`` are the
    problem's other fields (``x_star``, ``x0``)."""
    def objective(x):
        return 0.5 * (x @ (A @ x))

    def gradient(x):
        return A @ x

    return SmoothProblem(n=A.shape[0], objective=objective, gradient=gradient, hessian=A,
                         **fields)


def quadratic_weighted_50():
    """f(x) = 1/2 sum_i i*x_i^2 on R^50, minimizer 0, start (1, ..., 1)."""
    n = 50
    A = np.diag(np.arange(1, n + 1, dtype=float))
    return _quadratic(A, x_star=np.zeros(n), x0=np.ones(n))


def motivating_quadratic_2d():
    """The 2-D identity-Hessian quadratic with a badly scaled initial matrix.

    Returns (problem, setup) where setup carries the canonical start
    x0 = (cos 89deg, sin 89deg), B0 = diag(1, 1e6) and the relative
    gradient-norm stopping factor 1e-6.
    """
    theta = np.radians(89.0)
    x0 = np.array([np.cos(theta), np.sin(theta)])
    problem = _quadratic(np.eye(2), x_star=np.zeros(2), x0=x0)
    setup = {
        "b0": np.diag([1.0, 1e6]),
        "grad_rtol": 1e-6,
    }
    return problem, setup


def circle_cosine_system():
    """F(x) = (x1^2 + x2^2 - 1, x1 - cos x2), start (0.5, 0.5).

    The only real root is (1, 0): x1 = cos x2 on the unit circle forces
    x2 = +-sin x2, which holds only at x2 = 0.  The Jacobian there,
    [[2, 0], [1, 0]], is singular, so Newton converges only linearly and
    secant (BGM) iteration counts are sensitive to roundoff.
    """

    def residual(x):
        return np.array([x[0] * x[0] + x[1] * x[1] - 1.0, x[0] - np.cos(x[1])])

    def jacobian(x):
        return np.array([[2.0 * x[0], 2.0 * x[1]], [1.0, np.sin(x[1])]])

    return NonlinearSystem(
        n=2, residual=residual, jacobian=jacobian, x0=np.array([0.5, 0.5])
    )


def modified_rosenbrock_10():
    """Ten-dimensional Rosenbrock-type system of five independent 2x2 blocks.

    Per block: F_i = 10 (x_{i+1} - x_i^2), F_{i+1} = 1 - x_i.
    Root (1, ..., 1), start (0.5, ..., 0.5).
    """
    n = 10

    def residual(x):
        F = np.empty(n)
        for i in range(0, n, 2):
            F[i] = 10.0 * (x[i + 1] - x[i] ** 2)
            F[i + 1] = 1.0 - x[i]
        return F

    def jacobian(x):
        J = np.zeros((n, n))
        for i in range(0, n, 2):
            J[i, i] = -20.0 * x[i]
            J[i, i + 1] = 10.0
            J[i + 1, i] = -1.0
        return J

    return NonlinearSystem(
        n=n,
        residual=residual,
        jacobian=jacobian,
        x_star=np.ones(n),
        x0=np.full(n, 0.5),
    )


def _spd_draws(n, rng, spectrum=(1e-2, 1e2)):
    """The draws of ``random_spd_matrix(n, rng, spectrum)``: the (n, n)
    normal matrix whose Q factor becomes Q, then the n eigenvalues, drawn
    log-uniform (all equal to ``lo`` when ``lo == hi``, which draws
    nothing).  No draw depends on a linalg result, so a caller may draw
    many matrices first and build them later as one stack."""
    lo, hi = spectrum
    z = rng.standard_normal((n, n))
    if lo == hi:
        return z, np.full(n, float(lo))
    return z, np.exp(rng.uniform(np.log(lo), np.log(hi), n))


def _spd_build(z, lam):
    """The SPD matrix Q diag(lam) Q' of one draw of ``_spd_draws``, or of a
    stack of them: z of shape (..., n, n) and lam of shape (..., n).  Each
    matrix of a stack is bit for bit the one built alone, since the stacked
    QR and matrix products run the same LAPACK and BLAS calls per slice."""
    Q, _ = np.linalg.qr(z)
    A = (Q * lam[..., None, :]) @ Q.swapaxes(-1, -2)
    return 0.5 * (A + A.swapaxes(-1, -2))


def random_spd_matrix(n, rng, spectrum=(1e-2, 1e2)):
    """SPD matrix Q diag(lam) Q' with seeded random Q and log-uniform
    spectrum: ``_spd_build(*_spd_draws(n, rng, spectrum))``."""
    return _spd_build(*_spd_draws(n, rng, spectrum))


def random_spd_quadratic(n, spectrum=(1e-2, 1e2), seed=0):
    """f = 1/2 x'Ax with a seeded random SPD Hessian (exact A attached)."""
    rng = np.random.default_rng(seed)
    return _quadratic(random_spd_matrix(n, rng, spectrum), x_star=np.zeros(n))
