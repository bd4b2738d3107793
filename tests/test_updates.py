import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qnops.linalg import euclidean_norm, weighted_frobenius_error
from qnops.problems import random_spd_matrix
from qnops.solvers import _LimitedMemory
from qnops.updates import (
    CURVATURE_TOL,
    CurvatureError,
    DegenerateUpdateError,
    SecantPair,
    _outer,
    bgm_update,
    bgm_update_stack,
    broyden_update,
    broyden_update_stack,
    dfp_direct_update,
    gpsb_update,
    gpsb_update_stack,
    lbfgs_direction,
)


def curvature_pair(rng, n, spd=None):
    """Random pair with s'y > 0 (y = A s for a random SPD A)."""
    a = spd if spd is not None else random_spd_matrix(n, rng, spectrum=(0.5, 5.0))
    s = rng.standard_normal(n)
    return SecantPair(s, a @ s), a


def bfgs_inverse(H, pair):
    """BFGS on the inverse, H+ y = s: the DFP member of the swapped pair."""
    return broyden_update(H, SecantPair(pair.y, pair.s), 1.0)


class TestBroyden:
    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
    def test_fixed_point(self, theta):
        rng = np.random.default_rng(1)
        A = random_spd_matrix(4, rng)
        s = rng.standard_normal(4)
        Bn = broyden_update(A, SecantPair(s, A @ s), theta)
        assert np.linalg.norm(Bn - A, "fro") <= 1e-12 * np.linalg.norm(A, "fro")

    def test_rank_one_direction_bfgs(self):
        n = 3
        s = np.zeros(n)
        s[0] = 1.0
        Bn = broyden_update(np.eye(n), SecantPair(s, 2 * s), 0.0)
        np.testing.assert_allclose(Bn, np.diag([2.0, 1.0, 1.0]), atol=1e-14)

    def test_curvature_failure_raises(self):
        s = np.array([1.0, 0.0])
        with pytest.raises(CurvatureError):
            broyden_update(np.eye(2), SecantPair(s, -s), 0.0)

    def test_degenerate_sBs_raises(self):
        B = np.diag([1.0, -1.0])
        s = np.array([1.0, 1.0])  # s'Bs = 0
        with pytest.raises(DegenerateUpdateError):
            broyden_update(B, SecantPair(s, s), 0.0)

    def test_secant_residual_thousand_seeds(self):
        rng = np.random.default_rng(0)
        for trial in range(1000):
            n = int(rng.integers(2, 21))
            theta = float(rng.uniform(0.0, 1.0))
            B = random_spd_matrix(n, rng, spectrum=(0.1, 10.0))
            pair, _ = curvature_pair(rng, n)
            Bn = broyden_update(B, pair, theta)
            res = np.linalg.norm(Bn @ pair.s - pair.y)
            scale = np.linalg.norm(Bn, "fro") * np.linalg.norm(pair.s) + np.linalg.norm(pair.y)
            assert res <= 1e-10 * scale, f"trial {trial}"

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            B = rng.standard_normal((n, n))
            B = B + B.T + 2 * n * np.eye(n)
            pair, _ = curvature_pair(rng, n)
            Bn = broyden_update(B, pair, float(rng.uniform()))
            assert np.linalg.norm(Bn - Bn.T, "fro") <= 1e-12 * np.linalg.norm(Bn, "fro")

    def test_spd_preserved_on_convex_range(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            B = random_spd_matrix(n, rng, spectrum=(0.5, 5.0))
            pair, _ = curvature_pair(rng, n)
            Bn = broyden_update(B, pair, float(rng.uniform(0.0, 1.0)))
            assert np.linalg.eigvalsh(Bn).min() > 0

    @given(st.integers(0, 500), st.floats(-0.5, 1.5))
    @settings(deadline=None, max_examples=80)
    def test_theta_affinity(self, seed, theta):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        B = random_spd_matrix(n, rng)
        pair, _ = curvature_pair(rng, n)
        blend = (1 - theta) * broyden_update(B, pair, 0.0) + theta * broyden_update(B, pair, 1.0)
        direct = broyden_update(B, pair, theta)
        assert np.linalg.norm(direct - blend, "fro") <= 1e-10 * max(1.0, np.linalg.norm(direct, "fro"))


class TestDfpAndInverse:
    def test_dfp_is_theta_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            B = random_spd_matrix(n, rng)
            pair, _ = curvature_pair(rng, n)
            d = dfp_direct_update(B, pair)
            b = broyden_update(B, pair, 1.0)
            assert np.linalg.norm(d - b, "fro") <= 1e-10 * np.linalg.norm(b, "fro")

    def test_direct_dfp_is_gpsb_weighted_by_a(self):
        # on exact pairs y = A s the least-change update weighted by A is
        # direct DFP bit for bit: its minv2 @ s is the product A @ s that made y
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            B = random_spd_matrix(n, rng)
            pair, A = curvature_pair(rng, n)
            assert_bitwise(gpsb_update(B, pair, A), ref_dfp_direct_update(B, pair))

    def test_inverse_fixed_point(self):
        rng = np.random.default_rng(3)
        A = random_spd_matrix(4, rng)
        H = np.linalg.inv(A)
        s = rng.standard_normal(4)
        Hn = bfgs_inverse(H, SecantPair(s, A @ s))
        assert np.linalg.norm(Hn - H, "fro") <= 1e-10 * np.linalg.norm(H, "fro")

    def test_inverse_rank_one(self):
        n = 3
        s = np.zeros(n)
        s[0] = 2.0
        Hn = bfgs_inverse(np.eye(n), SecantPair(s, s / 2.0))
        np.testing.assert_allclose(Hn, np.diag([2.0, 1.0, 1.0]), atol=1e-14)

    def test_inverse_consistent_with_direct(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            B = random_spd_matrix(n, rng, spectrum=(0.5, 5.0))
            pair, _ = curvature_pair(rng, n)
            Hn = bfgs_inverse(np.linalg.inv(B), pair)
            Bn = broyden_update(B, pair, 0.0)
            err = np.linalg.norm(Hn - np.linalg.inv(Bn), "fro")
            assert err <= 1e-8 * np.linalg.norm(Hn, "fro")

    def test_inverse_secant(self):
        rng = np.random.default_rng(6)
        H = random_spd_matrix(5, rng)
        pair, _ = curvature_pair(rng, 5)
        Hn = bfgs_inverse(H, pair)
        assert np.linalg.norm(Hn @ pair.y - pair.s) <= 1e-10 * np.linalg.norm(pair.s)


class TestGpsb:
    def test_default_weight_secant_and_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            B = rng.standard_normal((n, n))
            B = B + B.T
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)  # no curvature needed
            Bn = gpsb_update(B, SecantPair(s, y))
            scale = np.linalg.norm(Bn, "fro")
            assert np.linalg.norm(Bn @ s - y) <= 1e-10 * (scale * np.linalg.norm(s) + np.linalg.norm(y))
            assert np.linalg.norm(Bn - Bn.T, "fro") <= 1e-12 * scale

    def test_weight_matching_hessian_reduces_to_dfp(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            A = random_spd_matrix(n, rng, spectrum=(0.5, 5.0))
            B = rng.standard_normal((n, n))
            B = B + B.T
            s = rng.standard_normal(n)
            pair = SecantPair(s, A @ s)
            g = gpsb_update(B, pair, minv2=A)
            d = dfp_direct_update(B, pair)
            assert np.linalg.norm(g - d, "fro") <= 1e-10 * max(1.0, np.linalg.norm(d, "fro"))

    def test_least_change_among_feasible_updates(self):
        rng = np.random.default_rng(12)
        n = 6
        M = random_spd_matrix(n, rng, spectrum=(0.5, 2.0))
        minv2 = np.linalg.inv(M @ M)
        B = rng.standard_normal((n, n))
        B = B + B.T
        s = rng.standard_normal(n)
        y = rng.standard_normal(n)
        Bn = gpsb_update(B, SecantPair(s, y), minv2=minv2)
        best = weighted_frobenius_error(Bn - B, M)
        proj = np.eye(n) - np.outer(s, s) / (s @ s)
        for _ in range(100):
            Z = rng.standard_normal((n, n))
            Z = proj @ (Z + Z.T) @ proj  # symmetric, annihilates s
            C = Bn + Z
            np.testing.assert_allclose(C @ s, y, atol=1e-8 * np.linalg.norm(y))
            assert best <= weighted_frobenius_error(C - B, M) + 1e-9 * max(1.0, best)

    def test_degenerate_weight_raises(self):
        s = np.array([1.0, 0.0])
        with pytest.raises(DegenerateUpdateError):
            gpsb_update(np.eye(2), SecantPair(s, s), minv2=np.diag([0.0, 1.0]))
        # the dual, through the swapped pair, divides by y'M^-2 y
        with pytest.raises(DegenerateUpdateError):
            gpsb_update(np.eye(2), SecantPair(s, np.ones(2)), minv2=np.diag([0.0, 1.0]))

    def test_inverse_fixed_point(self):
        rng = np.random.default_rng(13)
        A = random_spd_matrix(4, rng)
        H = np.linalg.inv(A)
        y = rng.standard_normal(4)
        Hn = gpsb_update(H, SecantPair(y, H @ y))  # the dual: H+ y = s from the swapped pair
        assert np.linalg.norm(Hn - H, "fro") <= 1e-10 * np.linalg.norm(H, "fro")

    def test_inverse_dual_secant(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            H = rng.standard_normal((n, n))
            H = H + H.T
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            minv2 = random_spd_matrix(n, rng, spectrum=(0.5, 2.0))
            Hn = gpsb_update(H, SecantPair(y, s), minv2=minv2)
            scale = np.linalg.norm(Hn, "fro") * np.linalg.norm(y) + np.linalg.norm(s)
            assert np.linalg.norm(Hn @ y - s) <= 1e-10 * scale

    def test_weight_mapping_y_to_s_matches_bfgs_inverse(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            H = random_spd_matrix(n, rng)
            pair, _ = curvature_pair(rng, n)
            # an SPD weight with M^-2 y = s exists whenever s'y > 0
            s, y = pair.s, pair.y
            minv2 = np.eye(n) - np.outer(y, y) / (y @ y) + np.outer(s, s) / (s @ y)
            minv2 = (minv2 + minv2.T) / 2.0
            rebuilt = minv2 @ y
            np.testing.assert_allclose(rebuilt, s, atol=1e-10 * np.linalg.norm(s))
            g = gpsb_update(H, SecantPair(y, s), minv2=minv2)
            b = bfgs_inverse(H, pair)
            assert np.linalg.norm(g - b, "fro") <= 1e-10 * max(1.0, np.linalg.norm(b, "fro"))


class TestBgm:
    def test_fixed_point(self):
        rng = np.random.default_rng(16)
        B = rng.standard_normal((4, 4))
        s = rng.standard_normal(4)
        Bn = bgm_update(B, SecantPair(s, B @ s))
        assert np.linalg.norm(Bn - B, "fro") <= 1e-12 * np.linalg.norm(B, "fro")

    def test_rank_one_column(self):
        s = np.array([1.0, 0.0])
        Bn = bgm_update(np.zeros((2, 2)), SecantPair(s, np.array([1.0, 2.0])))
        np.testing.assert_allclose(Bn, np.array([[1.0, 0.0], [2.0, 0.0]]))

    def test_zero_step_raises(self):
        with pytest.raises(DegenerateUpdateError):
            bgm_update(np.eye(2), SecantPair(np.zeros(2), np.ones(2)))

    def test_secant_residual(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            B = rng.standard_normal((n, n))
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            Bn = bgm_update(B, SecantPair(s, y))
            scale = np.linalg.norm(Bn, "fro") * np.linalg.norm(s) + np.linalg.norm(y)
            assert np.linalg.norm(Bn @ s - y) <= 1e-10 * scale

    def test_no_symmetry_requirement(self):
        # the update is rank-one in the step direction; columns off the step
        # direction are untouched
        rng = np.random.default_rng(18)
        B = rng.standard_normal((3, 3))
        s = np.array([1.0, 0.0, 0.0])
        Bn = bgm_update(B, SecantPair(s, rng.standard_normal(3)))
        np.testing.assert_allclose(Bn[:, 1:], B[:, 1:])


class TestLbfgsDirection:
    def test_empty_history_scales_gradient(self):
        g = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(lbfgs_direction([], g, 1.0), g)
        np.testing.assert_allclose(lbfgs_direction([], g, 0.25), 0.25 * g)

    def test_single_aligned_pair(self):
        e1 = np.array([1.0, 0.0])
        out = lbfgs_direction([SecantPair(e1, e1)], e1, 1.0)
        np.testing.assert_allclose(out, e1, atol=1e-14)

    def test_matches_dense_inverse_update(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            lam = float(rng.uniform(0.5, 4.0))
            H = np.eye(n) / lam
            mem = []
            for _ in range(6):
                pair, _ = curvature_pair(rng, n)
                mem.append(pair)
                H = bfgs_inverse(H, pair)
            g = rng.standard_normal(n)
            direct = lbfgs_direction(mem, g, 1.0 / lam)
            dense = H @ g
            assert np.linalg.norm(direct - dense) <= 1e-10 * max(1.0, np.linalg.norm(dense))

    def test_history_order_matters(self):
        rng = np.random.default_rng(20)
        p1, _ = curvature_pair(rng, 3)
        p2, _ = curvature_pair(rng, 3)
        g = rng.standard_normal(3)
        a = lbfgs_direction([p1, p2], g, 1.0)
        b = lbfgs_direction([p2, p1], g, 1.0)
        assert not np.allclose(a, b)


class TestSecantPair:
    def test_default_tag(self):
        p = SecantPair(np.ones(2), np.ones(2))
        assert p.transformed == "raw"

    def test_tag_carries(self):
        p = SecantPair(np.ones(2), np.ones(2), "image")
        assert p.transformed == "image"


# ---------------------------------------------------------------------------
# bit-for-bit equivalence with the np.outer / np.linalg.norm expressions
#
# The reference functions below are the update formulas as first written, with
# np.outer temporaries and np.linalg.norm.  The fast forms must return the same
# bytes (or raise the same exception) on every input, except that a zero entry
# of a 1-D update may carry another sign: its rank-one terms are BLAS products
# (see TestRankOneTerm).  The norms and the two-loop recursion stay byte-exact.


def _ref_check_curvature(s, y, sy):
    if sy <= CURVATURE_TOL * np.linalg.norm(s) * np.linalg.norm(y):
        raise CurvatureError("curvature")


def ref_broyden_update(B, pair, theta):
    s, y = pair.s, pair.y
    Bs = B @ s
    sBs = s @ Bs
    sy = s @ y
    _ref_check_curvature(s, y, sy)
    if abs(sBs) <= 1e-14 * (s @ s) * np.linalg.norm(B, "fro"):
        raise DegenerateUpdateError("s'Bs")
    Bn = B - np.outer(Bs, Bs) / sBs + np.outer(y, y) / sy
    if theta != 0.0:
        w = np.sqrt(sBs) * (y / sy - Bs / sBs)
        Bn = Bn + theta * np.outer(w, w)
    return Bn


def ref_bfgs_inverse_update(H, pair):
    s, y = pair.s, pair.y
    sy = s @ y
    _ref_check_curvature(s, y, sy)
    Hy = H @ y
    yHy = y @ Hy
    return (
        H
        + ((sy + yHy) / sy**2) * np.outer(s, s)
        - (np.outer(Hy, s) + np.outer(s, Hy)) / sy
    )


def ref_dfp_direct_update(B, pair):
    s, y = pair.s, pair.y
    sy = s @ y
    _ref_check_curvature(s, y, sy)
    r = y - B @ s
    return B + (np.outer(r, y) + np.outer(y, r)) / sy - ((r @ s) / sy**2) * np.outer(y, y)


def ref_gpsb_update(B, pair, minv2=None):
    s, y = pair.s, pair.y
    r = y - B @ s
    ms = s if minv2 is None else minv2 @ s
    sms = s @ ms
    if sms <= 0:
        raise DegenerateUpdateError("s'M^-2 s")
    return B + (np.outer(r, ms) + np.outer(ms, r)) / sms - ((r @ s) / sms**2) * np.outer(ms, ms)


def ref_gpsb_inverse_update(H, pair, minv2=None):
    s, y = pair.s, pair.y
    r = s - H @ y
    my = y if minv2 is None else minv2 @ y
    ymy = y @ my
    if ymy <= 0:
        raise DegenerateUpdateError("y'M^-2 y")
    return H + (np.outer(r, my) + np.outer(my, r)) / ymy - ((r @ y) / ymy**2) * np.outer(my, my)


def swapped_gpsb_update(H, pair, minv2=None):
    # the dual update of an inverse approximation, H+ y = s, as the swapped pair
    return gpsb_update(H, SecantPair(pair.y, pair.s), minv2)


def ref_bgm_update(B, pair):
    s, y = pair.s, pair.y
    ss = s @ s
    if ss == 0.0:
        raise DegenerateUpdateError("zero step")
    return B + np.outer(y - B @ s, s) / ss


def ref_lbfgs_direction(history, g, h0_scale):
    q = g.copy()
    alphas = []
    for p in reversed(history):
        rho = 1.0 / (p.s @ p.y)
        a = rho * (p.s @ q)
        alphas.append(a)
        q = q - a * p.y
    r = h0_scale * q
    for p, a in zip(history, reversed(alphas)):
        rho = 1.0 / (p.s @ p.y)
        b = rho * (p.y @ r)
        r = r + (a - b) * p.s
    return r


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_bitwise_but_zero_signs(got, want):
    """The same bytes once -0 is read as +0: ``x + 0.0`` maps -0 to +0 and
    keeps every other bit, NaN payloads included.  The 1-D updates build
    their rank-one terms as BLAS products, whose entries that round to zero
    may carry another sign than the broadcast multiply's (``updates._outer``)."""
    assert_bitwise(np.asarray(got) + 0.0, np.asarray(want) + 0.0)


def update_outcome(f, *args):
    """What ``f(*args)`` gives: its result, or the type of the update
    exception it raises."""
    try:
        with np.errstate(all="ignore"):  # degenerate draws overflow in both
            return f(*args)
    except (CurvatureError, DegenerateUpdateError) as exc:
        return type(exc)


def assert_same_outcome(fn, ref, *args):
    """Both return the same bytes up to the sign of a zero, or both raise the
    same update exception."""
    got, want = update_outcome(fn, *args), update_outcome(ref, *args)
    if isinstance(want, type):
        assert got is want
    else:
        assert_bitwise_but_zero_signs(got, want)


finite = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@st.composite
def update_case(draw, max_n=8):
    """(B, pair, A) with B a C- or Fortran-ordered matrix, a pair that is either
    raw hypothesis data or y = A s for a seeded SPD A, and strided vectors."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = random_spd_matrix(n, rng, spectrum=(0.1, 10.0))
    if draw(st.booleans()):
        B = random_spd_matrix(n, rng, spectrum=(0.1, 10.0))
    else:
        B = draw(hnp.arrays(np.float64, (n, n), elements=finite))
    if draw(st.booleans()):
        B = np.asfortranarray(B)
    s = draw(hnp.arrays(np.float64, 2 * n, elements=finite))[::2]
    if draw(st.booleans()):
        y = A @ s
    else:
        y = draw(hnp.arrays(np.float64, n, elements=finite))
    return B, SecantPair(s, y), A


class TestBitwiseEquivalence:
    @given(hnp.arrays(np.float64, st.integers(0, 64),
                      elements=st.floats(-1e150, 1e150, allow_nan=False)),
           st.integers(1, 4), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_norm_matches_numpy_on_vectors_and_strided_views(self, v, step, flip):
        view = v[::step]
        if flip:
            view = view[::-1]
        assert type(euclidean_norm(view)) is float
        assert_bitwise(euclidean_norm(view), np.linalg.norm(view))

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                      elements=finite), st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_norm_matches_frobenius_on_any_layout(self, B, fortran, transpose):
        if fortran:
            B = np.asfortranarray(B)
        if transpose:
            B = B.T
        assert type(euclidean_norm(B)) is float
        assert_bitwise(euclidean_norm(B), np.linalg.norm(B, "fro"))
        assert_bitwise(euclidean_norm(B), np.linalg.norm(B))

    def test_strided_views_need_the_ravel(self):
        # a strided dot sums in another order than a contiguous one; the
        # helper must agree with np.linalg.norm, not with v.dot(v)
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.standard_normal(200)[::3]
            assert_bitwise(euclidean_norm(v), np.linalg.norm(v))

    @pytest.mark.parametrize("v, want", [
        (np.zeros(0), 0.0),
        (np.zeros((0, 3)), 0.0),
        (np.array([1e200, -1e200]), np.inf),  # the sum of squares overflows
        (np.full((2, 2), 1e160), np.inf),
        (np.array([1.0, np.nan, 2.0]), np.nan),
        (np.array([np.inf, np.nan]), np.nan),
        (np.array([-np.inf, 1.0]), np.inf),
    ], ids=["empty", "empty-matrix", "overflow", "overflow-matrix", "nan", "inf-nan", "inf"])
    def test_norm_is_a_python_float_at_the_edges(self, v, want):
        # a Python float divided by another raises on 0 where NumPy warns,
        # so callers rely on this type; the value stays np.linalg.norm's
        with np.errstate(over="ignore"):  # the dot's own overflow warning
            got, ref = euclidean_norm(v), np.linalg.norm(v)
        assert type(got) is float
        np.testing.assert_equal(got, want)  # NaN equals NaN here
        assert_bitwise(got, ref)

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    @given(case=update_case())
    @settings(max_examples=150, deadline=None)
    def test_broyden(self, theta, case):
        B, pair, _ = case
        assert_same_outcome(broyden_update, ref_broyden_update, B, pair, theta)

    @given(case=update_case(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_bfgs_inverse_and_dfp_direct(self, case, seed):
        B, pair, _ = case
        assert_same_outcome(dfp_direct_update, ref_dfp_direct_update, B, pair)
        # the BFGS inverse update has no bitwise form of its own: it is the
        # dual of DFP, which agrees with the direct formula to roundoff on
        # an SPD H and a pair with curvature
        rng = np.random.default_rng(seed)
        n = B.shape[0]
        H = random_spd_matrix(n, rng, spectrum=(0.1, 10.0))
        pair, _ = curvature_pair(rng, n)
        want = ref_bfgs_inverse_update(H, pair)
        assert np.linalg.norm(bfgs_inverse(H, pair) - want) <= 1e-10 * np.linalg.norm(want)

    @given(case=update_case(), spd_weight=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_gpsb_and_inverse(self, case, spd_weight):
        B, pair, A = case
        minv2 = A if spd_weight else None
        assert_same_outcome(gpsb_update, ref_gpsb_update, B, pair, minv2)
        assert_same_outcome(swapped_gpsb_update, ref_gpsb_inverse_update, B, pair, minv2)

    @given(case=update_case())
    @settings(max_examples=150, deadline=None)
    def test_bgm(self, case):
        B, pair, _ = case
        assert_same_outcome(bgm_update, ref_bgm_update, B, pair)

    @given(n=st.integers(1, 12), pairs=st.integers(0, 10), seed=st.integers(0, 2**32 - 1),
           h0=st.sampled_from([1.0, 0.02, 2e-4, 3.0]))
    @settings(max_examples=200, deadline=None)
    def test_lbfgs_direction(self, n, pairs, seed, h0):
        # the drivers store only pairs with s'y > 0, as the docstring requires
        rng = np.random.default_rng(seed)
        A = random_spd_matrix(n, rng, spectrum=(0.1, 10.0))
        steps = rng.standard_normal((pairs, n)) * 10.0 ** rng.integers(-3, 4)
        history = [SecantPair(s, A @ s) for s in steps]
        g = rng.standard_normal(n)
        g0 = g.copy()
        want = ref_lbfgs_direction(history, g, h0)
        assert_bitwise(lbfgs_direction(history, g, h0), want)
        assert_bitwise(g, g0)  # q is updated in place, g is not
        # the driver's memory stores 1 / s'y with each pair it keeps
        model = _LimitedMemory(max(pairs, 1), h0)
        for pair in history:
            assert model.update(pair) is None
        assert_bitwise(lbfgs_direction(model.mem, g, h0, model.rhos), want)
        assert_bitwise(model.direction(None, g), -want)
        assert_bitwise(g, g0)


# Entries that make a product's zero sign or its rounding hard: signed zeros,
# subnormals and factors whose products underflow (1e-170 squared); _HARD adds
# the infinities, and inf * 0 is NaN.
_TINY = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-170, -1e-170, 3e-200])
_HARD = np.concatenate([_TINY, [np.inf, -np.inf]])


def _sprinkled(rng, v, pool, p):
    """v with each entry replaced by one from ``pool`` with probability p."""
    mask = rng.random(v.shape) < p
    v[mask] = rng.choice(pool, int(mask.sum()))
    return v


class TestRankOneTerm:
    """``_outer``, the rank-one term of every 1-D update, against the
    broadcast multiply ``np.multiply(a[:, None], b)`` that np.outer computes:
    equal values and the same bytes in every nonzero entry, NaN included,
    which is what the bytes after ``+ 0.0`` compare."""

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 64])
    @pytest.mark.parametrize("form", ["a b'", "b b'", "out="])
    def test_matches_the_broadcast_multiply(self, n, form):
        # "b b'" is one vector times itself, which NumPy sends to syrk
        rng = np.random.default_rng(n)
        for _ in range(40):
            a, b = (_sprinkled(rng, rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4),
                               _HARD, 0.4) for _ in range(2))
            if form == "b b'":
                a = b
            with np.errstate(invalid="ignore", under="ignore"):
                want = np.multiply(a[:, None], b)
                if form == "out=":
                    out = np.full((n, n), np.nan)
                    got = _outer(a, b, out=out)
                    assert got is out
                else:
                    got = _outer(a, b)
            assert got.flags.c_contiguous
            assert_bitwise_but_zero_signs(got, want)

    def test_fuzz_of_one_dimensional_updates(self):
        # 20,000 seeded 1-D updates with signed zeros and subnormals in B, s
        # and y (and rows and columns of B that are all +0 or all -0, where
        # an update's zero entries survive to its result), against the
        # np.outer formulas: the same exception, or the same values with
        # the same bytes in every nonzero entry
        updates = [(partial(broyden_update, theta=t), partial(ref_broyden_update, theta=t))
                   for t in (0.0, 0.5, 1.0)]
        updates += [(gpsb_update, ref_gpsb_update), (bgm_update, ref_bgm_update)]
        rng = np.random.default_rng(36)
        results = negative_zeros = 0
        for trial in range(4000):
            n = int(rng.integers(1, 9))
            A = random_spd_matrix(n, rng, spectrum=(0.1, 10.0))
            if rng.random() < 0.5:
                B = random_spd_matrix(n, rng, spectrum=(0.1, 10.0))
            else:
                B = rng.standard_normal((n, n))
            B = _sprinkled(rng, B, _TINY, 0.3)
            zero = rng.random(n) < 0.3
            B[zero] = B[:, zero] = rng.choice([0.0, -0.0])
            s = _sprinkled(rng, rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4), _TINY, 0.3)
            y = _sprinkled(rng, A @ s if rng.random() < 0.5 else rng.standard_normal(n), _TINY, 0.3)
            pair = SecantPair(s, y)
            for k, (fn, ref) in enumerate(updates):
                args = (B, pair, A if trial % 2 else None) if fn is gpsb_update else (B, pair)
                got, want = update_outcome(fn, *args), update_outcome(ref, *args)
                if isinstance(want, type):
                    assert got is want, (trial, k)
                    continue
                assert_bitwise_but_zero_signs(got, want)
                results += 1
                negative_zeros += bool(np.signbit(want[want == 0]).any())
        # most draws update, and many results hold a -0 whose sign may move
        assert results >= 10_000 and negative_zeros >= 500


class TestNumberTypes:
    """The 1-D updates run unchanged on np.longdouble and on Fraction and
    mpmath object arrays, where np.dot runs no BLAS, and give the np.outer
    formulas' values."""

    @staticmethod
    def _cases(rng, n, convert):
        A = random_spd_matrix(n, rng, spectrum=(0.5, 5.0))
        B = random_spd_matrix(n, rng, spectrum=(0.5, 5.0))
        s = rng.standard_normal(n)
        return convert(B), SecantPair(convert(s), convert(A @ s)), convert(A)

    @staticmethod
    def _runs(B, pair, A, thetas):
        for theta in thetas:
            yield partial(broyden_update, theta=theta), partial(ref_broyden_update, theta=theta), \
                (B, pair)
        yield gpsb_update, ref_gpsb_update, (B, pair)
        yield gpsb_update, ref_gpsb_update, (B, pair, A)
        yield bgm_update, ref_bgm_update, (B, pair)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_longdouble(self, n):
        B, pair, A = self._cases(np.random.default_rng(n), n, lambda x: x.astype(np.longdouble))
        for fn, ref, args in self._runs(B, pair, A, (0.0, 0.5, 1.0)):
            got, want = fn(*args), ref(*args)
            assert got.dtype == np.longdouble
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fraction(self, n):
        # theta = 0 only, since np.sqrt(s'Bs) has no Fraction method; nor has
        # np.linalg.norm, so the BFGS reference is written out without its
        # checks (exact arithmetic: any association gives the same matrix)
        from fractions import Fraction

        def convert(x):
            return np.array([Fraction(v) for v in x.ravel()], dtype=object).reshape(x.shape)

        B, pair, A = self._cases(np.random.default_rng(n), n, convert)
        s, y = pair.s, pair.y
        Bs = B @ s
        runs = [(broyden_update(B, pair, 0.0),
                 B - np.outer(Bs, Bs) / (s @ Bs) + np.outer(y, y) / (s @ y)),
                (gpsb_update(B, pair), ref_gpsb_update(B, pair)),
                (gpsb_update(B, pair, A), ref_gpsb_update(B, pair, A)),
                (bgm_update(B, pair), ref_bgm_update(B, pair))]
        for got, want in runs:
            assert got.dtype == object and all(type(v) is Fraction for v in got.ravel())
            assert (got == want).all()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mpmath(self, n):
        mpmath = pytest.importorskip("mpmath")

        def convert(x):
            return np.array([mpmath.mpf(v) for v in x.ravel()], dtype=object).reshape(x.shape)

        with mpmath.workdps(40):
            B, pair, A = self._cases(np.random.default_rng(n), n, convert)
            for fn, ref, args in self._runs(B, pair, A, (0.0, 0.5, 1.0)):
                got, want = fn(*args), ref(*args)
                assert got.dtype == object and all(type(v) is mpmath.mpf for v in got.ravel())
                assert (got == want).all()


@st.composite
def stack_case(draw, max_n=8, max_k=5):
    """(B, s, y, A) stacks of k slices of one n, C-ordered as a stacked
    caller builds them: each slice's B is a seeded SPD matrix or raw
    hypothesis data, its y is A s for its own seeded SPD A or raw data, and a
    slice may have s = 0 or y = -s, which every curvature-checked update
    refuses."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = np.stack([random_spd_matrix(n, rng, spectrum=(0.1, 10.0)) for _ in range(k)])
    B = np.stack([random_spd_matrix(n, rng, spectrum=(0.1, 10.0)) if draw(st.booleans())
                  else draw(hnp.arrays(np.float64, (n, n), elements=finite)) for _ in range(k)])
    s = draw(hnp.arrays(np.float64, (k, n), elements=finite))
    y = np.stack([A[i] @ s[i] if draw(st.booleans())
                  else draw(hnp.arrays(np.float64, n, elements=finite)) for i in range(k)])
    for i in range(k):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            s[i] = 0.0
        elif kind == 1:
            y[i] = -s[i]
    return B, s, y, A


def assert_stack_matches_each_slice(stacked, one, B, s, y, *weights):
    """``stacked`` returns each slice bit for bit as ``one`` does alone (up to
    the sign of a zero, which the stacks' broadcast multiply and the 1-D
    BLAS products may give differently), and a slice that ``one`` refuses
    keeps its B, byte for byte, and carries the refusal's text."""
    with np.errstate(all="ignore"):  # degenerate draws overflow in both
        got, messages = stacked(B, s, y, *weights)
    assert got.shape == B.shape and len(messages) == len(B)
    for i in range(len(B)):
        args = [w if w is None else w[i] for w in weights]
        try:
            with np.errstate(all="ignore"):
                want = one(B[i], SecantPair(s[i], y[i]), *args)
        except (CurvatureError, DegenerateUpdateError) as exc:
            assert messages[i] == str(exc)
            assert_bitwise(got[i], B[i])
        else:
            assert messages[i] is None
            assert_bitwise_but_zero_signs(got[i], want)


class TestStackedUpdates:
    """The stacked updates the lab's process runs, against the 1-D formulas
    the solvers run, slice by slice."""

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    @given(case=stack_case())
    @settings(max_examples=150, deadline=None)
    def test_broyden(self, theta, case):
        B, s, y, _ = case
        assert_stack_matches_each_slice(
            partial(broyden_update_stack, theta=theta),
            partial(broyden_update, theta=theta), B, s, y)

    @given(case=stack_case(), spd_weight=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_gpsb(self, case, spd_weight):
        # the weight stack holds each slice's own M^-2, here its A (direct DFP)
        B, s, y, A = case
        assert_stack_matches_each_slice(gpsb_update_stack, gpsb_update, B, s, y,
                                        A if spd_weight else None)

    @given(case=stack_case())
    @settings(max_examples=150, deadline=None)
    def test_bgm(self, case):
        B, s, y, _ = case
        assert_stack_matches_each_slice(bgm_update_stack, bgm_update, B, s, y)

    def test_refused_slices_run_no_arithmetic(self):
        # beside a good slice: s'y < 0, s'Bs = 0, and s = 0; none may warn
        B = np.stack([np.eye(2), np.eye(2), np.diag([1.0, -1.0]), np.eye(2)])
        s = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        y = np.array([[2.0, 0.0], [-1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, messages = broyden_update_stack(B, s, y, 0.5)
            assert messages == [None, "s'y = -1.000e+00 fails the curvature condition",
                                "s'Bs is numerically zero",
                                "s'y = 0.000e+00 fails the curvature condition"]
            assert_bitwise(got[1:], B[1:])
            assert gpsb_update_stack(B, s, y)[1] == [None, None, None,
                                                     "s'M^-2 s must be positive"]
            assert bgm_update_stack(B, s, y)[1] == [None, None, None, "zero step"]

    def test_gpsb_keeps_the_scalar_power(self):
        # gpsb_update scales by c / den**2 of NumPy scalars: libm pow, which
        # differs from den * den in the last bit on about 1 in 1,200 doubles.
        # Find a 1-D step whose update tells the two apart; the stacked
        # update must give the scalar power's bits
        rng = np.random.default_rng(0)
        for _ in range(100_000):
            s, y, B = rng.standard_normal((1, 1)), rng.standard_normal((1, 1)), np.zeros((1, 1, 1))
            want = gpsb_update(B[0], SecantPair(s[0], y[0]))
            den, c = s[0] @ s[0], y[0] @ s[0]
            by_product = 2.0 * (y[0] * s[0]) / den - (c / (den * den)) * (s[0] * s[0])
            if by_product.tobytes() != want.ravel().tobytes():
                break
        else:
            pytest.fail("no step tells den**2 from den * den")
        assert_bitwise(gpsb_update_stack(B, s, y)[0][0], want)
