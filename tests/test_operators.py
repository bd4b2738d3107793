import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qnops.operators import (
    DISCARD_TOL,
    RawHistory,
    image_direction_broyden,
    normal_eq_projection,
    secondary_secant,
)
from qnops.problems import quadratic_weighted_50, random_spd_matrix
from qnops.solvers import GeneralizedPSB, GradNorm, SolverConfig, _DenseModel
from qnops.updates import SecantPair


class TestImageDirectionBroyden:
    def test_exact_model_gives_zero(self):
        rng = np.random.default_rng(0)
        A = random_spd_matrix(4, rng)
        s = rng.standard_normal(4)
        u = image_direction_broyden(lambda r: np.linalg.solve(A, r), s, A @ s)
        assert np.linalg.norm(u) <= 1e-12 * np.linalg.norm(s)

    def test_identity_model(self):
        s = np.array([1.0, 0.0])
        u = image_direction_broyden(lambda r: r, s, 2 * s)
        np.testing.assert_allclose(u, -s)

    def test_stiff_direction_survives(self):
        B = np.diag([1.0, 1e6])
        s = np.array([0.3, 0.7])
        u = image_direction_broyden(lambda r: np.linalg.solve(B, r), s, s.copy())
        np.testing.assert_allclose(u, [0.0, 0.7 * (1.0 - 1e-6)], atol=1e-12)


def gpsb_image(minv2, alpha, g, gn):
    """u = M^2 [(1 - alpha) g - gn], the image direction a dense generalized-PSB model takes."""
    rule = GeneralizedPSB(minv2)
    config = SolverConfig(rule=rule, stop=GradNorm(1e-6))
    return _DenseModel(rule, 1.0, g.size, quadratic_weighted_50(), config).image(
        None, None, alpha, g, gn)


class TestImageDirectionGpsb:
    def test_full_alpha_identity_weight(self):
        g = np.array([1.0, 2.0])
        gn = np.array([0.5, -0.5])
        np.testing.assert_allclose(gpsb_image(None, 1.0, g, gn), -gn)

    def test_gradient_ratio_gives_zero(self):
        g = np.array([3.0, -1.0])
        alpha = 0.25
        gn = (1 - alpha) * g
        u = gpsb_image(None, alpha, g, gn)
        np.testing.assert_allclose(u, np.zeros(2), atol=1e-15)

    def test_weight_applied_after_combination(self):
        # M^2 = diag(2, 3), applied as a solve with M^-2 to (1 - alpha) g - gn = (1, 1)
        u = gpsb_image(np.diag([0.5, 1.0 / 3.0]), 0.5, np.array([2.0, 4.0]), np.array([0.0, 1.0]))
        np.testing.assert_allclose(u, [2.0, 3.0], rtol=1e-15)


class TestSecondarySecant:
    def test_quadratic_is_exact(self):
        rng = np.random.default_rng(1)
        A = random_spd_matrix(5, rng)
        grad = lambda x: A @ x
        u = rng.standard_normal(5)
        v = secondary_secant(grad, rng.standard_normal(5), u)
        assert np.linalg.norm(v - A @ u) <= 1e-8 * np.linalg.norm(A @ u)

    def test_diagonal_quadratic_axis(self):
        problem = quadratic_weighted_50()
        u = np.zeros(50)
        u[2] = 1.0
        v = secondary_secant(problem.gradient, problem.x0, u)
        np.testing.assert_allclose(v, 3.0 * u, atol=1e-10)

    def test_nonpositive_t_rejected(self):
        # the step is fixed at t = 1: a step argument of any value is refused
        with pytest.raises(TypeError, match="positional"):
            secondary_secant(lambda x: x, np.zeros(2), np.ones(2), 0.0)


class TestGramSchmidtTransform:
    def test_empty_history_passthrough(self):
        hist = deque(maxlen=3)
        pair = SecantPair(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        out, fell = ref_gram_schmidt_transform(pair, hist, "broyden")
        assert not fell
        np.testing.assert_array_equal(out.s, pair.s)
        np.testing.assert_array_equal(out.y, pair.y)
        assert len(hist) == 1

    def test_orthogonal_history_leaves_pair(self):
        # broyden coefficient (s'y_j)/(s_j'y_j): vanishes when s _|_ y_j
        hist = deque(maxlen=2)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        ref_gram_schmidt_transform(SecantPair(e1, e1), hist, "broyden")
        out, fell = ref_gram_schmidt_transform(SecantPair(e2, e2), hist, "broyden")
        assert not fell
        np.testing.assert_allclose(out.s, e2)
        np.testing.assert_allclose(out.y, e2)

    def test_two_step_hand_example(self):
        hist = deque(maxlen=2)
        ref_gram_schmidt_transform(
            SecantPair(np.array([1.0, 1.0]), np.array([1.0, 2.0])), hist, "broyden"
        )
        out, fell = ref_gram_schmidt_transform(
            SecantPair(np.array([1.0, 0.0]), np.array([1.0, 0.0])), hist, "broyden"
        )
        assert not fell
        np.testing.assert_allclose(out.s, [2.0 / 3.0, -1.0 / 3.0], atol=1e-15)
        np.testing.assert_allclose(out.y, [2.0 / 3.0, -2.0 / 3.0], atol=1e-15)
        assert out.transformed == "projected"

    def test_quadratic_consistency_preserved(self):
        # when every stored pair satisfies y_j = A s_j, so does the output
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            A = random_spd_matrix(n, rng, spectrum=(0.5, 5.0))
            hist = deque(maxlen=n - 1)
            for _ in range(int(rng.integers(1, n))):
                s = rng.standard_normal(n)
                ref_gram_schmidt_transform(SecantPair(s, A @ s), hist, "broyden")
            s = rng.standard_normal(n)
            out, _ = ref_gram_schmidt_transform(SecantPair(s, A @ s), hist, "broyden")
            assert np.linalg.norm(out.y - A @ out.s) <= 1e-8 * np.linalg.norm(A @ out.s)

    def test_window_capped(self):
        hist = deque(maxlen=2)
        rng = np.random.default_rng(3)
        for _ in range(5):
            s = rng.standard_normal(4)
            pair = SecantPair(s, s + 0.1 * rng.standard_normal(4))
            ref_gram_schmidt_transform(pair, hist, "broyden")
        assert len(hist) == 2

    def test_curvature_fallback_restarts_window(self):
        hist = deque(maxlen=2)
        e1 = np.array([1.0, 0.0])
        ref_gram_schmidt_transform(SecantPair(e1, e1), hist, "broyden")
        # projecting (s, y) = ((1, 1), (2, -1)) against (e1, e1) leaves
        # st = (0, 1), yt = (1, -1): st'yt = -1 <= 0
        bad = SecantPair(np.array([1.0, 1.0]), np.array([2.0, -1.0]))
        out, fell = ref_gram_schmidt_transform(bad, hist, "broyden")
        assert fell
        assert out.transformed == "raw"
        np.testing.assert_array_equal(out.s, bad.s)
        assert len(hist) == 1  # reseeded with the raw pair

    def test_bgm_family_never_restarts(self):
        hist = deque(maxlen=2)
        e1 = np.array([1.0, 0.0])
        ref_gram_schmidt_transform(SecantPair(e1, e1), hist, "bgm")
        bad = SecantPair(np.array([1.0, 1.0]), np.array([2.0, -1.0]))
        out, fell = ref_gram_schmidt_transform(bad, hist, "bgm")
        assert not fell
        assert len(hist) == 2  # not reseeded

    def test_modified_coefficients_use_the_reduced_vector(self):
        # the stored pairs are only one-sidedly biorthogonal when the y's
        # do not come from one symmetric model, so each sequential
        # coefficient sees the partially reduced s, not the original one
        e1, e2, e3 = np.eye(3)
        pairs = [
            SecantPair(e1, e1 + e2),
            SecantPair(e2, e2 + e3),
            SecantPair(e1 + e3, e1 + e3),
        ]
        hist = deque(maxlen=3)
        for p in pairs[:2]:
            ref_gram_schmidt_transform(p, hist, "broyden")
        m, fell = ref_gram_schmidt_transform(pairs[2], hist, "broyden")
        assert not fell
        np.testing.assert_allclose(m.s, [1.0, -1.0, 1.0], atol=1e-15)


class TestNormalEqProjection:
    def test_empty_window_passthrough(self):
        raw = RawHistory(d=3)
        pair = SecantPair(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        out, beta, reason = normal_eq_projection(pair, raw, "broyden")
        assert reason is None
        assert beta.size == 0
        np.testing.assert_array_equal(out.s, pair.s)

    def test_hand_example_beta(self):
        raw = RawHistory(d=2)
        raw.append(np.array([1.0, 1.0]), np.array([1.0, 2.0]))
        pair = SecantPair(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        out, beta, reason = normal_eq_projection(pair, raw, "broyden")
        assert reason is None
        np.testing.assert_allclose(beta, [1.0 / 3.0], atol=1e-15)
        np.testing.assert_allclose(out.s, [2.0 / 3.0, -1.0 / 3.0], atol=1e-15)
        np.testing.assert_allclose(out.y, [2.0 / 3.0, -2.0 / 3.0], atol=1e-15)

    def test_step_in_span_discarded(self):
        raw = RawHistory(d=2)
        s0 = np.array([1.0, 1.0])
        raw.append(s0, 2 * s0)
        out, beta, reason = normal_eq_projection(SecantPair(2 * s0, 4 * s0), raw, "broyden")
        assert reason == "discard"
        assert out.transformed == "raw"
        np.testing.assert_array_equal(out.s, 2 * s0)

    def test_curvature_fallback_broyden_only(self):
        raw = RawHistory(d=2)
        raw.append(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        pair = SecantPair(np.array([1.0, 1.0]), np.array([2.0, -1.0]))
        out_b, _, reason_b = normal_eq_projection(pair, raw, "broyden")
        assert reason_b == "curvature"
        assert out_b.transformed == "raw"
        out_g, _, reason_g = normal_eq_projection(pair, raw, "bgm")
        assert reason_g is None
        assert out_g.transformed == "projected"

    # an empty window returned the raw pair for any family
    @pytest.mark.parametrize("family, stored", [("psb", 1), ("Broyden", 1), ("", 1), ("psb", 0)],
                             ids=["psb", "Broyden", "", "psb-empty-window"])
    def test_unknown_family_refused(self, family, stored):
        raw = RawHistory(d=2)
        for _ in range(stored):
            raw.append(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="unknown family"):
            normal_eq_projection(SecantPair(np.ones(2), np.ones(2)), raw, family)

    # broyden ignored a given minv2 and bgm, the Euclidean gpsb, applied it
    @pytest.mark.parametrize("stored", [0, 1, 2])
    @pytest.mark.parametrize("family", ["broyden", "bgm"])
    def test_minv2_refused_for_unweighted_families(self, family, stored):
        raw = RawHistory(d=2)
        for i in range(stored):
            raw.append(np.eye(2)[i], np.eye(2)[i])
        pair = SecantPair(np.ones(2), np.ones(2))
        with pytest.raises(ValueError, match="takes no minv2"):
            normal_eq_projection(pair, raw, family, np.diag([0.5, 2.0]))
        normal_eq_projection(pair, raw, "gpsb", np.diag([0.5, 2.0]))

    def test_singular_system_falls_back(self):
        raw = RawHistory(d=2)
        s = np.array([1.0, 0.0])
        raw.append(s, np.array([0.0, 1.0]))  # S'Y + Y'S = 0 for this pair
        out, beta, reason = normal_eq_projection(SecantPair(s, s.copy()), raw, "broyden")
        assert reason == "singular"
        assert out.transformed == "raw"

    def test_matches_full_window_gram_schmidt_on_quadratic(self):
        # with orthogonalized directions the least-squares system is
        # diagonal, so both routes remove the same components
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(3, 8))
            A = random_spd_matrix(n, rng, spectrum=(0.5, 5.0))
            m = int(rng.integers(1, min(4, n)))
            gs_hist = deque(maxlen=m)
            raw = RawHistory(d=m)
            steps = rng.standard_normal((m, n))
            for s in steps:
                ref_gram_schmidt_transform(SecantPair(s, A @ s), gs_hist, "broyden")
                raw.append(s, A @ s)
            s = rng.standard_normal(n)
            g_out, fell = ref_gram_schmidt_transform(SecantPair(s, A @ s), gs_hist, "broyden")
            n_out, beta, reason = normal_eq_projection(SecantPair(s, A @ s), raw, "broyden")
            if fell or reason is not None:
                continue
            scale = max(1.0, np.linalg.norm(g_out.s))
            assert np.linalg.norm(g_out.s - n_out.s) <= 1e-8 * scale
            assert np.linalg.norm(g_out.y - n_out.y) <= 1e-8 * scale

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_projected_step_solves_least_squares(self, m):
        # beta from the closed forms (m <= 3) agrees with the generic path:
        # the residual s - S beta is G-orthogonal to the window
        rng = np.random.default_rng(10 + m)
        n = 8
        A = random_spd_matrix(n, rng, spectrum=(0.5, 2.0))
        raw = RawHistory(d=m)
        for _ in range(m):
            s = rng.standard_normal(n)
            raw.append(s, A @ s)
        s = rng.standard_normal(n)
        out, beta, reason = normal_eq_projection(SecantPair(s, A @ s), raw, "broyden")
        assert reason is None
        # the window ordering used internally does not change the unique
        # solution: compare the projected step against a direct solve
        S = np.stack(raw.s_list, axis=1)
        Y = np.stack(raw.y_list, axis=1)
        G = S.T @ Y + Y.T @ S
        rhs = S.T @ (A @ s) + Y.T @ s
        st_expected = s - S @ np.linalg.solve(G, rhs)
        assert np.linalg.norm(out.s - st_expected) <= 1e-8 * max(1.0, np.linalg.norm(st_expected))

    def test_discard_tolerance_respected(self):
        raw = RawHistory(d=1)
        s0 = np.array([1.0, 0.0])
        raw.append(s0, s0)
        # nearly collinear step: projection leaves ~1e-12 of its norm
        pair = SecantPair(np.array([1.0, 1e-12]), np.array([1.0, 1e-12]))
        _, _, reason = normal_eq_projection(pair, raw, "broyden")
        assert reason == "discard"


class TestHistories:
    def test_raw_history_evicts_oldest(self):
        raw = RawHistory(d=2)
        for i in range(4):
            raw.append(np.full(2, float(i)), np.full(2, float(i)))
        assert len(raw) == 2
        np.testing.assert_array_equal(raw.s_list[0], [2.0, 2.0])

    # 0 held nothing, 2.5 kept two pairs and "2" failed at the first append
    @pytest.mark.parametrize("d", [0, -1, 2.5, "2", None])
    def test_raw_history_refuses_a_bad_capacity(self, d):
        with pytest.raises(ValueError, match="window size d must be"):
            RawHistory(d)

    def test_raw_history_takes_an_integer_capacity_as_int(self):
        raw = RawHistory(np.int64(2))
        assert raw.d == 2 and type(raw.d) is int

    def test_default_discard_tolerance_value(self):
        assert DISCARD_TOL == 1e-8


# ---------------------------------------------------------------------------
# stepwise Gram-Schmidt, the reference normal_eq_projection agrees with on
# quadratics (criterion 10 of the acceptance run imports it too)


def _ref_gs_coefficient(family, minv2, s_cur, sj, yj):
    # projection coefficient of s_cur onto the stored direction, in the
    # family's inner product; on quadratics the broyden coefficient realizes
    # <.,.>_A through the stored y.
    if family == "broyden":
        return (s_cur @ yj) / (sj @ yj)
    if family in ("gpsb", "bgm"):  # bgm: the Euclidean gpsb (minv2=None)
        mj = sj if minv2 is None else minv2 @ sj
        return (s_cur @ mj) / (sj @ mj)
    raise ValueError(f"unknown family {family!r}")


def ref_gram_schmidt_transform(pair, window, family, minv2=None):
    """Orthogonalize (s, y) against a window of transformed pairs by sequential projection.

    Modified (sequential) Gram-Schmidt: each stored direction is removed
    using the partially reduced vector, the numerically stable variant.

    For the broyden family a transformed pair failing s'y > 0 triggers a
    fallback: the raw pair is returned, the window is cleared and then
    reseeded with the raw pair, mirroring a restart of the procedure.

    ``window`` is a ``collections.deque(maxlen=d)`` of (s_j, y_j), oldest
    first.  Returns (SecantPair, fell_back: bool); the window is updated in
    place.
    """
    s, y = pair.s, pair.y
    st_ = s.copy()
    yt = y.copy()
    for sj, yj in window:
        c = _ref_gs_coefficient(family, minv2, st_, sj, yj)
        st_ = st_ - c * sj
        yt = yt - c * yj
    if family == "broyden" and window and st_ @ yt <= 0:
        window.clear()
        window.append((s, y))
        return SecantPair(s, y, "raw"), True
    window.append((st_, yt))
    return SecantPair(st_, yt, "projected"), False


# ---------------------------------------------------------------------------
# bit-for-bit equivalence of normal_eq_projection with its first form
#
# The reference below keeps the np.all / np.linalg.norm tests and the errstate
# context around every closed form; the projection must return the same bytes
# and the same reason on every window size.


def ref_beta_solve(G, rhs):
    # a zero determinant of the 2 x 2 or 3 x 3 system leaves it to the LU
    # solve: rounding can zero the determinant of a system that LU solves
    m = G.shape[0]
    G = G / 2.0
    rhs = rhs / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        if m == 1:
            return rhs / G[0, 0]
        if m == 2:
            det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
            if det != 0.0:
                return np.array(
                    [
                        (rhs[0] * G[1, 1] - G[0, 1] * rhs[1]) / det,
                        (G[0, 0] * rhs[1] - rhs[0] * G[1, 0]) / det,
                    ]
                )
        if m == 3:
            d0 = np.linalg.det(G)
            if d0 != 0.0:
                cols = [
                    np.column_stack([rhs if jj == j else G[:, jj] for jj in range(3)])
                    for j in range(3)
                ]
                return np.array([np.linalg.det(c) for c in cols]) / d0
    return np.linalg.solve(G, rhs)


def ref_normal_eq_projection(pair, raw, family, minv2=None, beta_solve=ref_beta_solve):
    s, y = pair.s, pair.y
    m = len(raw)
    if m == 0:
        return SecantPair(s, y, pair.transformed), np.empty(0), None
    s_cols, y_cols = raw.s_list, raw.y_list
    if m == 3:
        s_cols, y_cols = s_cols[::-1], y_cols[::-1]
    S = np.column_stack(s_cols)
    Y = np.column_stack(y_cols)
    if family == "broyden":
        G = S.T @ Y + Y.T @ S
        rhs = S.T @ y + Y.T @ s
    elif family == "gpsb":
        MS = S if minv2 is None else minv2 @ S
        G = S.T @ MS
        rhs = MS.T @ s
    else:
        G = S.T @ S
        rhs = S.T @ s
    try:
        beta = beta_solve(G, rhs)
    except np.linalg.LinAlgError:
        return SecantPair(s, y, "raw"), np.empty(0), "singular"
    if not np.all(np.isfinite(beta)):
        return SecantPair(s, y, "raw"), np.empty(0), "singular"
    st_ = s - S @ beta
    yt = y - Y @ beta
    if np.linalg.norm(st_) < DISCARD_TOL * np.linalg.norm(s):
        return SecantPair(s, y, "raw"), beta, "discard"
    if family == "broyden" and st_ @ yt <= 0:
        return SecantPair(s, y, "raw"), beta, "curvature"
    return SecantPair(st_, yt, "projected"), beta, None


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def projection_case(draw):
    """A window of m = 0..4 raw pairs and a new pair, on a seeded SPD quadratic
    or (for singular, discard and curvature paths) from raw hypothesis data."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = random_spd_matrix(n, rng, spectrum=(0.1, 10.0))
    elements = st.floats(-100.0, 100.0, allow_nan=False).filter(lambda v: v == 0 or abs(v) > 1e-3)
    if draw(st.booleans()):
        steps = rng.standard_normal((m + 1, n)) * 10.0 ** rng.integers(-3, 4)
    else:
        steps = draw(hnp.arrays(np.float64, (m + 1, n), elements=elements))
    raw = RawHistory(d=4)
    for s in steps[:m]:
        raw.append(s, A @ s)
    s = steps[m]
    y = A @ s if draw(st.booleans()) else draw(hnp.arrays(np.float64, n, elements=elements))
    return SecantPair(s, y), raw, A


class TestProjectionBitwiseEquivalence:
    @given(case=projection_case(), family=st.sampled_from(["broyden", "gpsb", "bgm"]),
           spd_weight=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, case, family, spd_weight):
        pair, raw, A = case
        minv2 = A if (family == "gpsb" and spd_weight) else None
        with np.errstate(all="ignore"):  # overflow on extreme draws, in both forms
            got = normal_eq_projection(pair, raw, family, minv2)
            want = ref_normal_eq_projection(pair, raw, family, minv2)
        (gp, gbeta, greason), (wp, wbeta, wreason) = got, want
        assert greason == wreason
        assert gp.transformed == wp.transformed
        assert _same_bytes(gp.s, wp.s) and _same_bytes(gp.y, wp.y)
        assert _same_bytes(gbeta, wbeta)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_every_window_size_on_the_benchmark_quadratic(self, m):
        # the n=50 diagonal quadratic of table 2 and 3, one window per size
        problem = quadratic_weighted_50()
        rng = np.random.default_rng(m)
        raw = RawHistory(d=m)
        for s in rng.standard_normal((m, 50)):
            raw.append(s, problem.hessian @ s)
        s = rng.standard_normal(50)
        pair = SecantPair(s, problem.hessian @ s)
        for family in ("broyden", "gpsb", "bgm"):
            (gp, gbeta, greason) = normal_eq_projection(pair, raw, family)
            (wp, wbeta, wreason) = ref_normal_eq_projection(pair, raw, family)
            assert greason == wreason
            assert greason is None
            assert _same_bytes(gp.s, wp.s) and _same_bytes(gp.y, wp.y)
            assert _same_bytes(gbeta, wbeta)

    @pytest.mark.parametrize("family, weighted", [("broyden", False), ("bgm", False),
                                                  ("gpsb", False), ("gpsb", True)],
                             ids=["broyden", "bgm", "gpsb", "weighted-gpsb"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_reference_at_the_benchmark_dimension(self, m, family, weighted):
        # n = 50, where the BLAS kernels differ from those of the n <= 8
        # windows above and depend on the window's memory layout; each step
        # is scaled by 10^k, k uniform in [-5, 5]
        rng = np.random.default_rng(1000 * m + len(family) + weighted)
        A = random_spd_matrix(50, rng, spectrum=(0.1, 10.0))
        minv2 = random_spd_matrix(50, rng, spectrum=(0.5, 2.0)) if weighted else None
        for _ in range(20):
            steps = rng.standard_normal((m + 1, 50)) * 10.0 ** rng.uniform(-5, 5, (m + 1, 1))
            raw = RawHistory(d=m)
            for s in steps[:m]:
                raw.append(s, A @ s)
            pair = SecantPair(steps[m], A @ steps[m])
            gp, gbeta, greason = normal_eq_projection(pair, raw, family, minv2)
            wp, wbeta, wreason = ref_normal_eq_projection(pair, raw, family, minv2)
            assert greason == wreason
            assert _same_bytes(gp.s, wp.s) and _same_bytes(gp.y, wp.y)
            assert _same_bytes(gbeta, wbeta)

    def test_singular_pivot_still_reported(self):
        # m = 1 with a zero pivot takes the errstate path and maps to "singular"
        raw = RawHistory(d=1)
        raw.append(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        pair = SecantPair(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        _, beta, reason = normal_eq_projection(pair, raw, "broyden")
        assert reason == "singular" and beta.size == 0

    @pytest.mark.parametrize("family", ["broyden", "gpsb", "bgm"])
    def test_two_step_window_with_zero_determinant_is_singular(self, family):
        # parallel steps: G = [[2, 4], [4, 8]] (broyden) or [[1, 2], [2, 4]],
        # whose determinant is exactly zero; the 2 x 2 solve divides by none
        raw = RawHistory(d=2)
        raw.append(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        raw.append(np.array([2.0, 0.0]), np.array([2.0, 0.0]))
        pair = SecantPair(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        out, beta, reason = normal_eq_projection(pair, raw, family)
        assert reason == "singular" and beta.size == 0
        assert out.transformed == "raw" and out.s is pair.s
        with np.errstate(all="ignore"):
            assert ref_normal_eq_projection(pair, raw, family)[2] == "singular"

    @pytest.mark.parametrize("scales", [(1e100, 1e100), (1e100, 1e-100)],
                             ids=["overflowing", "mixed"])
    def test_two_step_window_near_1e200_matches_reference(self, scales):
        # entries of G near 1e200: the determinant of the 2 x 2 solve
        # overflows, so the system goes to the LU solve, where the first form
        # reported it singular; beside entries near 1e-200 the closed form
        # gives a finite beta; no warning is raised either way
        overflowing = scales[1] == 1e100
        rng = np.random.default_rng(7)
        A = random_spd_matrix(4, rng, spectrum=(0.5, 2.0))
        raw = RawHistory(d=2)
        for scale in scales:
            s = scale * rng.standard_normal(4)
            raw.append(s, A @ s)
        s = 1e100 * rng.standard_normal(4)
        pair = SecantPair(s, A @ s)
        reference = np.linalg.solve if overflowing else ref_beta_solve
        for family in ("broyden", "gpsb", "bgm"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                gp, gbeta, greason = normal_eq_projection(pair, raw, family)
            with np.errstate(all="ignore"):
                wp, wbeta, wreason = ref_normal_eq_projection(pair, raw, family,
                                                              beta_solve=reference)
            assert greason == wreason
            assert greason != "singular"
            assert _same_bytes(gp.s, wp.s) and _same_bytes(gp.y, wp.y)
            assert _same_bytes(gbeta, wbeta)

    @pytest.mark.parametrize("family", ["broyden", "gpsb", "bgm"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_window_with_overflowing_determinant_is_solved(self, m, family):
        # s_i = y_i = 1.2e77 e_i: G is diagonal near 1e154, whose determinant
        # overflows at m >= 2.  s lies in the window's span, so every m must
        # discard it; m = 2 returned beta = 0 and a projected pair, m = 3
        # reported singular with an overflow warning
        raw = RawHistory(d=m)
        for i in range(m):
            raw.append(1.2e77 * np.eye(m)[i], 1.2e77 * np.eye(m)[i])
        pair = SecantPair(np.ones(m), np.ones(m))
        minv2 = np.diag(np.linspace(0.5, 2.0, m)) if family == "gpsb" else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, beta, reason = normal_eq_projection(pair, raw, family, minv2)
        assert reason == "discard"
        assert out.transformed == "raw" and out.s is pair.s
        assert np.isfinite(beta).all() and (beta > 0).all()

    @pytest.mark.parametrize("family", ["broyden", "gpsb", "bgm"])
    @pytest.mark.parametrize("m, c", [(2, 1e-85), (3, 1e-80), (4, 1e-80)])
    def test_window_with_underflowing_determinant_is_solved(self, m, c, family):
        # s_i = y_i = c e_i: G is diagonal near c^2, whose closed-form
        # determinant underflows to 0 at m = 2 and 3.  s lies in the window's
        # span, so every m must discard it with beta = 1; m = 2 and 3 reported
        # singular
        raw = RawHistory(d=m)
        for i in range(m):
            raw.append(c * np.eye(m)[i], c * np.eye(m)[i])
        pair = SecantPair(c * np.ones(m), c * np.ones(m))
        minv2 = np.diag(np.linspace(0.5, 2.0, m)) if family == "gpsb" else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, beta, reason = normal_eq_projection(pair, raw, family, minv2)
        assert reason == "discard"
        assert out.transformed == "raw" and out.s is pair.s
        assert np.array_equal(beta, np.ones(m))
