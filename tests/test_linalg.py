import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnops.linalg import (
    angle_to_subspace,
    kernel_basis,
    weighted_frobenius_error,
)


def e(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


class TestKernelBasis:
    def test_full_rank_empty(self):
        assert kernel_basis(np.eye(3), 1e-8).shape == (3, 0)

    def test_zero_matrix_full_kernel(self):
        K = kernel_basis(np.zeros((3, 3)), 1e-8)
        assert K.shape == (3, 3)
        np.testing.assert_allclose(K.T @ K, np.eye(3), atol=1e-12)

    def test_single_tiny_singular_value(self):
        K = kernel_basis(np.diag([1.0, 1e-16, 2.0]), 1e-8)
        assert K.shape == (3, 1)
        np.testing.assert_allclose(np.abs(K[:, 0]), [0.0, 1.0, 0.0], atol=1e-12)

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            kernel_basis(np.eye(2), 0.0)

    @pytest.mark.parametrize("tol", [-1e-8, np.nan, np.inf, -np.inf, "1e-8"],
                             ids=["negative", "nan", "inf", "-inf", "str"])
    def test_tol_must_be_a_finite_positive_real(self, tol):
        # a NaN tol gave an empty kernel and an inf one the whole space
        with pytest.raises(ValueError, match="tol must be a finite positive real"):
            kernel_basis(np.diag([1.0, 0.0]), tol)

    def test_columns_orthonormal_and_near_null(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(0, n))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            sv = np.concatenate([rng.uniform(0.5, 2.0, n - r), rng.uniform(0, 1e-12, r)])
            E = (q * sv) @ np.linalg.qr(rng.standard_normal((n, n)))[0].T
            tol = 1e-8
            K = kernel_basis(E, tol)
            assert K.shape[1] >= r
            if K.shape[1]:
                np.testing.assert_allclose(K.T @ K, np.eye(K.shape[1]), atol=1e-12)
                smax = np.linalg.norm(E, 2)
                assert np.all(np.linalg.norm(E @ K, axis=0) <= 10 * tol * smax)


class TestAngleToSubspace:
    def test_in_span(self):
        assert angle_to_subspace(e(0, 2), e(0, 2)[:, None]) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal(self):
        assert angle_to_subspace(e(0, 2), e(1, 2)[:, None]) == pytest.approx(90.0)

    def test_diagonal_vector(self):
        a = angle_to_subspace(np.array([1.0, 1.0]), e(0, 2)[:, None])
        assert a == pytest.approx(45.0, abs=1e-10)

    def test_empty_basis(self):
        assert angle_to_subspace(np.ones(3), np.zeros((3, 0))) == 90.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            angle_to_subspace(np.zeros(2), np.eye(2))

    @given(st.integers(2, 7), st.integers(0, 500), st.floats(0.01, 100.0))
    @settings(deadline=None, max_examples=60)
    def test_positive_scale_invariance(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal(n)
        basis = np.linalg.qr(rng.standard_normal((n, n - 1)))[0]
        a1 = angle_to_subspace(s, basis)
        a2 = angle_to_subspace(scale * s, basis)
        assert a1 == pytest.approx(a2, abs=1e-7)


class TestWeightedFrobeniusError:
    def test_zero(self):
        assert weighted_frobenius_error(np.zeros((3, 3))) == 0.0

    def test_identity(self):
        assert weighted_frobenius_error(np.eye(2)) == pytest.approx(np.sqrt(2.0))

    def test_diagonal_weight(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert weighted_frobenius_error(X, np.diag([2.0, 1.0])) == pytest.approx(4.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            weighted_frobenius_error(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_stack_matches_each_slice_bit_for_bit(self, weighted):
        rng = np.random.default_rng(7)
        for n in [2, 3, 4, 5, 6, 7, 8, 50]:
            X = rng.standard_normal((20, n, n))
            M = None
            if weighted:
                q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                M = (q * rng.uniform(0.5, 2.0, n)) @ q.T
            norms = weighted_frobenius_error(X, M)
            assert norms.shape == (20,)
            for x, norm in zip(X, norms):
                want = np.linalg.norm(x if M is None else M @ x @ M, "fro")
                assert float.hex(float(norm)) == float.hex(float(want))
                assert float.hex(float(weighted_frobenius_error(x, M))) == float.hex(float(want))

    def test_weight_stack_matches_each_slice_bit_for_bit(self):
        # one M per slice of a (k, n, n) stack
        rng = np.random.default_rng(8)
        for n in [2, 3, 5, 8]:
            X = rng.standard_normal((6, n, n))
            Ms = []
            for _ in range(6):
                q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                Ms.append((q * rng.uniform(0.5, 2.0, n)) @ q.T)
            M = np.stack(Ms)
            norms = weighted_frobenius_error(X, M)
            assert norms.shape == (6,)
            for x, m, norm in zip(X, M, norms):
                want = weighted_frobenius_error(x, m)
                assert float.hex(float(norm)) == float.hex(float(want))
                assert float.hex(float(want)) == float.hex(float(np.linalg.norm(m @ x @ m, "fro")))

    @pytest.mark.parametrize("x_shape, m_shape", [
        ((4, 3, 3), (3, 3, 3)), ((3, 3), (1, 3, 3)), ((3, 3), (3, 3, 3)),
        ((4, 3, 3), (4, 2, 2)), ((4, 3, 3), (3,)),
    ], ids=["count", "matrix-with-stack", "matrix-with-stack-of-n", "size", "vector"])
    def test_mismatched_weight_stack_is_refused(self, x_shape, m_shape):
        with pytest.raises(ValueError, match="shape mismatch"):
            weighted_frobenius_error(np.ones(x_shape), np.ones(m_shape))

    def test_stack_weight_mismatch(self):
        with pytest.raises(ValueError):
            weighted_frobenius_error(np.ones((4, 3, 3)), np.eye(2))

    def test_vector_rejected(self):
        with pytest.raises(ValueError):
            weighted_frobenius_error(np.ones(3))
