import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnops import cli, solvers
from qnops.cli import SYSTEM_PROBLEMS, run_label
from qnops.problems import (
    NonlinearSystem,
    SmoothProblem,
    _quadratic,
    circle_cosine_system,
    modified_rosenbrock_10,
    motivating_quadratic_2d,
    quadratic_weighted_50,
    random_spd_matrix,
    random_spd_quadratic,
)
from qnops.solvers import (
    BGM,
    Backtracking,
    Broyden,
    GeneralizedPSB,
    GradNorm,
    ImageTransform,
    IterateError,
    NoTransform,
    NormalEqWindow,
    ResidualNorm,
    SolverConfig,
    Unit,
    line_search,
    minimize,
    minimize_lbfgs,
    solve_system,
)


def one_d_quadratic(a=3.0, x0=2.0):
    return SmoothProblem(
        n=1,
        objective=lambda x: 0.5 * a * float(x[0] ** 2),
        gradient=lambda x: a * x,
        hessian=np.array([[a]]),
        x_star=np.zeros(1),
        x0=np.array([x0]),
    )


def dense_config(rule, lam, mode=None, **kw):
    cfg = dict(rule=rule, stop=IterateError(1e-7), b0=lam, max_iters=200000)
    if mode is not None:
        cfg["mode"] = mode
    cfg.update(kw)
    return SolverConfig(**cfg)


def without_hessian(problem):
    """The problem, rebuilt as if given only its gradient."""
    problem.hessian = None
    return problem


def counted(problem, calls):
    """The problem, with its gradient (residual) counting calls in ``calls``."""
    attr = "residual" if isinstance(problem, NonlinearSystem) else "gradient"
    evaluate = getattr(problem, attr)

    def count(x):
        calls.append(x)
        return evaluate(x)

    setattr(problem, attr, count)
    return problem


class TestLineSearch:
    def test_unit_rule(self):
        p = one_d_quadratic()
        assert line_search(p, p.x0, p.gradient(p.x0), np.array([-5.0]), Unit()) == 1.0

    def test_backtracking_accepts_full_step_on_easy_descent(self):
        p = one_d_quadratic(a=1.0, x0=1.0)
        # step to the minimizer: f drops from 0.5 to 0, slope is -1
        alpha = line_search(p, p.x0, p.gradient(p.x0), np.array([-1.0]), Backtracking())
        assert alpha == 1.0

    def test_backtracking_halves_until_sufficient_decrease(self):
        # f(x) = x^2 at x = 1 with the long step p = -4: alpha = 1 and 1/2
        # both overshoot past the sufficient-decrease line; 1/4 lands on 0
        p = SmoothProblem(
            n=1,
            objective=lambda x: float(x[0] ** 2),
            gradient=lambda x: 2 * x,
        )
        x = np.array([1.0])
        alpha = line_search(p, x, p.gradient(x), np.array([-4.0]), Backtracking())
        assert alpha == 0.25

    def test_exhaustion_warns_and_returns_last(self):
        p = SmoothProblem(n=1, objective=lambda x: float(x[0]), gradient=lambda x: np.ones(1))
        with pytest.warns(RuntimeWarning):
            alpha = line_search(p, np.zeros(1), np.ones(1), np.ones(1), Backtracking())
        assert 0.0 < alpha < 1e-15


class TestMinimizeBasics:
    def test_exact_seed_converges_in_one_step(self):
        p = one_d_quadratic(a=3.0, x0=2.0)
        trace = minimize(p, dense_config(Broyden(0.0), 3.0))
        assert trace.status == "converged"
        assert trace.iterations == 1
        np.testing.assert_allclose(trace.x, [0.0], atol=1e-12)

    def test_bgm_rule_rejected(self):
        p = one_d_quadratic()
        with pytest.raises(ValueError):
            minimize(p, dense_config(BGM(), 1.0))

    def test_max_iters_status(self):
        p = quadratic_weighted_50()
        cfg = dense_config(Broyden(1.0), 50.0, max_iters=10)
        trace = minimize(p, cfg)
        assert trace.status == "max-iters"
        assert trace.iterations == 10

    def test_bitwise_deterministic(self):
        p = quadratic_weighted_50()
        t1 = minimize(p, dense_config(Broyden(0.0), 100.0))
        t2 = minimize(p, dense_config(Broyden(0.0), 100.0))
        assert t1.iterations == t2.iterations
        for r1, r2 in zip(t1.records, t2.records):
            np.testing.assert_array_equal(r1.x, r2.x)

    def test_backtracking_descent_is_monotone(self):
        p = quadratic_weighted_50()
        cfg = dense_config(Broyden(0.0), 50.0, step=Backtracking())
        trace = minimize(p, cfg)
        assert trace.status == "converged"
        f = [p.objective(r.x) for r in trace.records]
        assert all(b <= a + 1e-12 for a, b in zip(f, f[1:]))

    def test_backtracking_evaluates_one_gradient_per_iteration(self):
        # line_search took the slope from a second gradient at x
        p = quadratic_weighted_50()
        calls = [0]
        gradient = p.gradient

        def counted(x):
            calls[0] += 1
            return gradient(x)

        p.gradient = counted
        trace = minimize(p, dense_config(Broyden(0.0), 50.0, step=Backtracking()))
        assert trace.status == "converged"
        assert calls[0] == trace.iterations + 1

    def test_gradnorm_stop_absolute_and_relative(self):
        p = one_d_quadratic(a=2.0, x0=4.0)
        rel = minimize(p, SolverConfig(rule=Broyden(0.0), stop=GradNorm(1e-6), b0=2.0))
        absolute = minimize(
            p, SolverConfig(rule=Broyden(0.0), stop=GradNorm(1e-6, relative=False), b0=2.0)
        )
        assert rel.status == absolute.status == "converged"
        assert np.linalg.norm(p.gradient(absolute.x)) <= 1e-6


class TestDenseInverse:
    """BFGS and DFP carry H = B^-1, updated by the dual; B only when a run tracks."""

    RULES = [pytest.param(Broyden(0.0), id="BFGS"), pytest.param(Broyden(1.0), id="DFP")]
    MODES = [pytest.param(NoTransform(), id="plain"), pytest.param(ImageTransform(), id="Im"),
             pytest.param(NormalEqWindow(1), id="IP(d=1)"),
             pytest.param(NormalEqWindow(2), id="IP(d=2)")]

    @staticmethod
    def run(problem, rule, mode, seed, **kw):
        x0 = np.random.default_rng(100 + seed).standard_normal(problem.n)
        return minimize(replace(problem, x0=x0),
                        SolverConfig(rule=rule, stop=GradNorm(1e-10), b0=1.0, mode=mode, **kw))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("rule", RULES)
    def test_tracking_changes_no_iterate(self, rule, mode):
        # the direction always comes from H; the tracked B is only measured
        plain = self.run(random_spd_quadratic(12, seed=1), rule, mode, 1)
        tracked = self.run(random_spd_quadratic(12, seed=1), rule, mode, 1, record="matrix")
        assert (tracked.status, tracked.iterations) == (plain.status, plain.iterations)
        assert [r.x.tobytes() for r in tracked.records] == [r.x.tobytes() for r in plain.records]
        assert all(r.matrix_error is not None for r in tracked.records)
        assert [r.angle is None for r in tracked.records] == [True] + [False] * tracked.iterations
        assert all(r.matrix_error is None and r.angle is None for r in plain.records)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("rule", RULES)
    def test_tracked_b_is_the_inverse_of_h(self, rule, mode, monkeypatch):
        # the rule's update of B and the dual update of H stay inverses
        residuals = []

        class Checked(solvers._DenseModel):
            def update(self, pair):
                super().update(pair)
                n = self.H.shape[0]
                residuals.append(np.linalg.norm(self.H @ self.B - np.eye(n)) / np.sqrt(n))

        monkeypatch.setattr(solvers, "_DenseModel", Checked)
        for n in (4, 8, 12):
            for seed in range(5):
                p = random_spd_quadratic(n, spectrum=(0.5, 10.0), seed=seed)
                trace = self.run(p, rule, mode, seed, record="matrix")
                assert trace.status == "converged", (n, seed)
        assert residuals and max(residuals) <= 1e-12

    @pytest.mark.parametrize("rule", [Broyden(0.0), Broyden(1.0), Broyden(0.5), GeneralizedPSB()],
                             ids=["BFGS", "DFP", "Broyden(0.5)", "PSB"])
    @pytest.mark.parametrize("record", ["full", "matrix"], ids=["untracked", "tracked"])
    def test_singular_matrix_b0_is_breakdown(self, rule, record):
        # inverting b0 when the model was built raised LinAlgError from minimize
        cfg = SolverConfig(rule=rule, stop=GradNorm(1e-8), b0=np.zeros((4, 4)), record=record)
        trace = minimize(replace(random_spd_quadratic(4, seed=0), x0=np.ones(4)), cfg)
        assert (trace.status, trace.iterations) == ("breakdown", 0)

    @pytest.mark.parametrize("rule, iterations", [(Broyden(0.0), 55), (Broyden(1.0), 124)],
                             ids=["BFGS", "DFP"])
    def test_matrix_b0_runs_as_its_scalar(self, rule, iterations):
        trace = minimize(quadratic_weighted_50(), dense_config(rule, 50.0 * np.eye(50)))
        assert (trace.status, trace.iterations) == ("converged", iterations)


class TestReferenceIterationCounts:
    # single-cell pins; the full benchmark grids live in the acceptance suite
    @pytest.mark.parametrize(
        "rule,lam,mode,expected",
        [
            (Broyden(1.0), 50.0, None, 124),
            (Broyden(0.0), 50.0, None, 55),
            (GeneralizedPSB(), 50.0, None, 88),
            (Broyden(1.0), 5000.0, ImageTransform(), 36),
            (Broyden(0.0), 5000.0, ImageTransform(), 36),
            (Broyden(0.0), 50.0, NormalEqWindow(d=1), 49),
            (Broyden(0.0), 200.0, NormalEqWindow(d=2), 85),
        ],
    )
    def test_dense_counts(self, rule, lam, mode, expected):
        trace = minimize(quadratic_weighted_50(), dense_config(rule, lam, mode))
        assert trace.status == "converged"
        assert trace.iterations == expected

    @pytest.mark.parametrize(
        "n_mem,lam,mode,expected",
        [
            (10, 50.0, None, 81),
            (3, 5000.0, ImageTransform(), 36),
            (4, 200.0, NormalEqWindow(d=3), 82),
            (5, 1000.0, NormalEqWindow(d=3), 137),
        ],
    )
    def test_lbfgs_counts(self, n_mem, lam, mode, expected):
        cfg = dict(rule=Broyden(0.0), stop=IterateError(1e-7), b0=lam, max_iters=60000, memory=n_mem)
        if mode is not None:
            cfg["mode"] = mode
        trace = minimize_lbfgs(quadratic_weighted_50(), SolverConfig(**cfg))
        assert trace.status == "converged"
        assert trace.iterations == expected


def records_digest(trace):
    """SHA-256 (first 16 hex digits) of every record's x, grad_norm and pair."""
    h = hashlib.sha256()
    for r in trace.records:
        h.update(r.x.tobytes())
        h.update(np.float64(r.grad_norm).tobytes())
        if r.pair is not None:
            h.update(r.pair.s.tobytes())
            h.update(r.pair.y.tobytes())
    return h.hexdigest()[:16]


class TestRecordBits:
    """Every record of short reference cells, byte for byte.

    A tier-1 slice of ``tools/record_digest.py``, which hashes the whole
    grid the same way in 5 to 12 s.  The cells cover the limited memory
    with windows of m = 1 to 4, its plain and image two-loop, the dense
    inverse H = B^-1 of BFGS and DFP, plain and image, and the m = 1
    window of each projection family: broyden (IP-DFP), gpsb (IP-PSB) and
    bgm (IP-BGM).  The limited-memory, PSB and BGM digests are those of the
    solvers before the limited-memory fast paths (1 / s'y stored with each
    pair, ndarray.dot, the scalar m = 1 window, the batched m = 3
    determinants); the dense Broyden digests are those of the dual update
    of H, which replaced an LU solve with B_k.  All were recorded with
    NumPy 2.4.6 on OpenBLAS 0.3.31; a BLAS build that sums a dot in
    another order gives other bits.
    """

    CELLS = [
        ("IP-LBFGS(N=3,d=1)", 50.0, quadratic_weighted_50, 216, "a1b653e9ce67007b"),
        ("IP-LBFGS(N=3,d=2)", 50.0, quadratic_weighted_50, 98, "aba9119b6e70efb3"),
        ("IP-LBFGS(N=4,d=3)", 50.0, quadratic_weighted_50, 87, "6d4dc4cb15f023a7"),
        ("IP-LBFGS(N=5,d=4)", 50.0, quadratic_weighted_50, 85, "b48912ea866a43c0"),
        ("Im-LBFGS(N=3)", 50.0, quadratic_weighted_50, 32, "87f7bd6d8432a957"),
        ("LBFGS(N=10)", 50.0, quadratic_weighted_50, 81, "9b3a9dd72f030149"),
        ("IP-DFP(d=1)", 50.0, quadratic_weighted_50, 100, "7740c51e78f2646d"),
        ("DFP", 50.0, quadratic_weighted_50, 124, "80777dd964c28515"),
        ("BFGS", 50.0, quadratic_weighted_50, 55, "3a2363550c3dd196"),
        ("Im-BFGS", 50.0, quadratic_weighted_50, 22, "b2747c6ea7c5db6b"),
        ("IP-PSB(d=1)", 50.0, quadratic_weighted_50, 71, "e1f249641d7e774f"),
        ("IP-BGM(d=1)", 1.0, SYSTEM_PROBLEMS["circle-cosine"], 51, "e9944b60558199da"),
        ("IP-BGM(d=1)", 1.0, SYSTEM_PROBLEMS["rosenbrock-10"], 5, "9554aaa2f9d44586"),
    ]

    @pytest.mark.parametrize("label, lam, problem, iterations, digest", CELLS,
                             ids=[f"{c[0]}-{c[2].__name__}" for c in CELLS])
    def test_records_are_unchanged(self, label, lam, problem, iterations, digest):
        p = problem()
        trace = run_label(label, lam, p)
        assert trace.status == "converged"
        assert trace.iterations == iterations
        assert records_digest(trace) == digest
        # the loop takes its norms as Python floats, math.sqrt(v.dot(v))
        evaluate = p.residual if isinstance(p, NonlinearSystem) else p.gradient
        for r in trace.records:
            assert np.float64(r.grad_norm).tobytes() == np.linalg.norm(evaluate(r.x)).tobytes()


class TestLbfgsDriver:
    def test_scalar_seed_required(self):
        p = quadratic_weighted_50()
        cfg = SolverConfig(rule=Broyden(0.0), stop=IterateError(1e-7), b0=np.eye(50))
        with pytest.raises(ValueError):
            minimize_lbfgs(p, cfg)

    def test_window_must_fit_memory(self):
        p = quadratic_weighted_50()
        cfg = SolverConfig(
            rule=Broyden(0.0), stop=IterateError(1e-7), b0=50.0, memory=3,
            mode=NormalEqWindow(d=3),
        )
        with pytest.raises(ValueError):
            minimize_lbfgs(p, cfg)

    @pytest.mark.parametrize("rule", [BGM(), GeneralizedPSB(), Broyden(1.0)])
    def test_rule_other_than_bfgs_rejected(self, rule):
        # each ran BFGS pairs for 120 iterations without a word
        cfg = SolverConfig(rule=rule, stop=IterateError(1e-7), b0=50.0, memory=3)
        with pytest.raises(ValueError, match="BFGS"):
            minimize_lbfgs(quadratic_weighted_50(), cfg)

    def test_recording_rejected(self):
        # there is no matrix to record; the request was ignored
        cfg = SolverConfig(rule=None, stop=IterateError(1e-7), b0=50.0, memory=3, record="matrix")
        with pytest.raises(ValueError, match="record"):
            minimize_lbfgs(quadratic_weighted_50(), cfg)

    def test_matches_dense_bfgs_trajectory(self):
        # with memory covering every pair, the two-loop recursion is the
        # inverse-form update: iterates agree to rounding with the dense
        # direct form
        p = replace(random_spd_quadratic(5, spectrum=(0.5, 10.0), seed=9), x0=np.ones(5))
        lam = 10.0
        dense = minimize(p, dense_config(Broyden(0.0), lam))
        cfg = SolverConfig(rule=Broyden(0.0), stop=IterateError(1e-7), b0=lam, memory=100)
        lm = minimize_lbfgs(p, cfg)
        assert dense.status == lm.status == "converged"
        assert abs(dense.iterations - lm.iterations) <= 1
        for rd, rl in zip(dense.records, lm.records):
            assert np.linalg.norm(rd.x - rl.x) <= 1e-8 * max(1.0, np.linalg.norm(rd.x))


class TestAngleRecording:
    def test_identity_quadratic_bfgs_angles(self):
        problem, setup = motivating_quadratic_2d()
        cfg = SolverConfig(
            rule=Broyden(0.0),
            stop=GradNorm(setup["grad_rtol"]),
            b0=setup["b0"],
            record="matrix",
        )
        trace = minimize(problem, cfg)
        assert trace.status == "converged"
        assert trace.iterations == 17
        angles = trace.angles
        assert angles.size == 17
        assert angles[0] == pytest.approx(0.003282, abs=1e-6)
        assert angles[-1] == pytest.approx(44.798826, abs=1e-6)
        # the step aligns with the worst-approximated direction over the run
        assert angles.max() <= 90.0
        assert angles.min() >= 0.0

    def test_matrix_error_recording(self):
        p = replace(random_spd_quadratic(4, spectrum=(1.0, 5.0), seed=2), x0=np.ones(4))
        cfg = SolverConfig(rule=Broyden(0.0), stop=IterateError(1e-7), b0=2.0, record="matrix")
        trace = minimize(p, cfg)
        errs = [r.matrix_error for r in trace.records]
        assert all(e is not None for e in errs)
        assert errs[-1] <= errs[0]


class TestSolveSystem:
    def test_newton_needs_residual_stop(self):
        sys = circle_cosine_system()
        cfg = SolverConfig(rule=None, stop=GradNorm(1e-7), b0=1.0)
        with pytest.raises(ValueError):
            solve_system(sys, cfg)

    def test_rule_must_be_bgm_or_newton(self):
        sys = circle_cosine_system()
        cfg = SolverConfig(rule=Broyden(0.0), stop=ResidualNorm(1e-7), b0=1.0)
        with pytest.raises(ValueError):
            solve_system(sys, cfg)

    def test_newton_needs_a_jacobian(self):
        system = replace(circle_cosine_system(), jacobian=None)
        cfg = SolverConfig(rule=None, stop=ResidualNorm(1e-7), b0=1.0)
        with pytest.raises(ValueError, match="Jacobian"):
            solve_system(system, cfg)

    @pytest.mark.parametrize(
        "factory,expected",
        [(circle_cosine_system, 23), (modified_rosenbrock_10, 2)],
    )
    def test_newton_counts(self, factory, expected):
        cfg = SolverConfig(rule=None, stop=ResidualNorm(1e-7), b0=1.0, max_iters=100000)
        trace = solve_system(factory(), cfg)
        assert trace.status == "converged"
        assert trace.iterations == expected

    @pytest.mark.parametrize(
        "factory,expected",
        # the circle count pins this driver's QR solve route bit for bit
        # (an LU solve gives 1236); the published 572 is checked as a
        # percentile of a perturbed-start ensemble in acceptance criterion 5
        [(circle_cosine_system, 149), (modified_rosenbrock_10, 15)],
    )
    def test_bgm_counts(self, factory, expected):
        cfg = SolverConfig(rule=BGM(), stop=ResidualNorm(1e-7), b0=1.0, max_iters=100000)
        trace = solve_system(factory(), cfg)
        assert trace.status == "converged"
        assert trace.iterations == expected
        assert trace.fallbacks == 0

    @pytest.mark.parametrize(
        "factory,expected,fallbacks",
        [(circle_cosine_system, 51, 0), (modified_rosenbrock_10, 5, 1)],
    )
    def test_windowed_bgm_counts(self, factory, expected, fallbacks):
        cfg = SolverConfig(
            rule=BGM(), stop=ResidualNorm(1e-7), b0=1.0, max_iters=100000,
            mode=NormalEqWindow(d=1),
        )
        trace = solve_system(factory(), cfg)
        assert trace.status == "converged"
        assert trace.iterations == expected
        assert trace.fallbacks == fallbacks

    @pytest.mark.parametrize("entry,status", [(0.0, "breakdown"), (np.nan, "nonfinite")])
    def test_newton_on_a_bad_jacobian(self, entry, status):
        # a zero Jacobian has a zero diagonal in R; a NaN one non-finite factors
        system = NonlinearSystem(n=2, residual=lambda x: x + 1.0,
                                 jacobian=lambda x: np.full((2, 2), entry), x0=np.zeros(2))
        cfg = SolverConfig(rule=None, stop=ResidualNorm(1e-7), b0=1.0)
        trace = solve_system(system, cfg)
        assert trace.status == status
        assert trace.iterations == 0

    # the ids keep each case's name from before the Gram-Schmidt window
    # cases (rule1-kw1, None-kw5) were deleted
    @pytest.mark.parametrize("rule,kw", [
        pytest.param(BGM(), {"mode": ImageTransform()}, id="rule0-kw0"),
        pytest.param(BGM(), {"step": Backtracking()}, id="rule2-kw2"),
        pytest.param(None, {"step": Backtracking()}, id="None-kw3"),
        pytest.param(None, {"mode": ImageTransform()}, id="None-kw4"),
        pytest.param(None, {"mode": NormalEqWindow(d=1)}, id="None-kw6"),
    ])
    def test_unsupported_mode_or_step_rejected_at_entry(self, rule, kw):
        def never(x):
            raise AssertionError("the residual was evaluated")

        system = circle_cosine_system()
        system.residual = never
        cfg = SolverConfig(rule=rule, stop=ResidualNorm(1e-7), b0=1.0, **kw)
        with pytest.raises(ValueError):
            solve_system(system, cfg)

    def test_converged_root_is_accurate(self):
        sys = modified_rosenbrock_10()
        cfg = SolverConfig(rule=BGM(), stop=ResidualNorm(1e-7), b0=1.0, max_iters=100000)
        trace = solve_system(sys, cfg)
        np.testing.assert_allclose(trace.x, np.ones(10), atol=1e-6)


class TestImageModeMechanics:
    def test_quadratic_pairs_are_tagged(self):
        p = replace(random_spd_quadratic(5, spectrum=(0.5, 10.0), seed=4), x0=np.ones(5))
        cfg = dense_config(Broyden(1.0), 20.0, ImageTransform())
        trace = minimize(p, cfg)
        tagged = [r.pair.transformed for r in trace.records if r.pair is not None]
        assert "image" in tagged

    def test_zero_image_falls_back_raw(self):
        # exact seed: the first image direction vanishes, the driver keeps
        # the raw pair and still converges in one step
        p = one_d_quadratic(a=3.0, x0=2.0)
        trace = minimize(p, dense_config(Broyden(0.0), 3.0, ImageTransform()))
        assert trace.status == "converged"
        assert trace.iterations == 1
        assert trace.records[1].event == "zero-image"

    def test_quadratic_termination_dense(self):
        # n+1 updates suffice once every image direction has been absorbed
        p = replace(random_spd_quadratic(6, spectrum=(0.5, 30.0), seed=5), x0=np.ones(6))
        cfg = SolverConfig(
            rule=Broyden(0.0), stop=GradNorm(1e-10, relative=False), b0=7.0,
            mode=ImageTransform(), record="matrix",
        )
        trace = minimize(p, cfg)
        assert trace.status == "converged"
        final_err = trace.records[-1].matrix_error
        assert final_err <= 1e-7 * np.linalg.norm(p.hessian, "fro")

    @pytest.mark.parametrize("rule", [Broyden(0.0), Broyden(1.0)], ids=["Im-BFGS", "Im-DFP"])
    @pytest.mark.parametrize("step", [Unit(), Backtracking()], ids=["Unit", "Backtracking"])
    def test_image_methods_terminate_with_the_exact_hessian(self, rule, step):
        # the paper's central claim at the solver: on an n-dimensional
        # quadratic the image-corrected update converges within n + 1
        # iterations and ends with B = A
        for n in range(2, 13):
            for seed in range(5):
                x0 = np.random.default_rng(100 + seed).standard_normal(n)
                p = replace(random_spd_quadratic(n, seed=seed), x0=x0)
                cfg = SolverConfig(rule=rule, stop=GradNorm(1e-10), b0=1.0, mode=ImageTransform(),
                                   step=step, record="matrix")
                trace = minimize(p, cfg)
                assert trace.status == "converged", (n, seed)
                assert trace.iterations <= n + 1, (n, seed)
                final_err = trace.records[-1].matrix_error
                assert final_err <= 1e-10 * np.linalg.norm(p.hessian, "fro"), (n, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("driver, rule", [
        pytest.param(minimize, Broyden(0.0), id="Im-BFGS"),
        pytest.param(minimize, Broyden(1.0), id="Im-DFP"),
        pytest.param(minimize, GeneralizedPSB(), id="Im-PSB"),
        pytest.param(minimize_lbfgs, None, id="Im-LBFGS(N=5)"),
    ])
    def test_hessian_free_image_pairs_match_the_exact_ones(self, driver, rule, seed):
        # without a hessian v is the difference quotient of the gradient,
        # which is A u up to roundoff on a quadratic
        def problem():
            return replace(random_spd_quadratic(6, spectrum=(0.5, 10.0), seed=seed),
                           x0=np.ones(6))

        cfg = SolverConfig(rule=rule, stop=GradNorm(1e-10), b0=2.0, mode=ImageTransform(),
                           memory=5)
        exact = driver(problem(), cfg)
        free = driver(without_hessian(problem()), cfg)
        assert any(r.pair.transformed == "image" for r in free.records[1:])
        assert (free.status, free.iterations) == (exact.status, exact.iterations)
        assert np.linalg.norm(free.x - exact.x) <= 1e-12


class TestNegativeCurvatureFallbacks:
    # on the indefinite quadratic diag(1, -0.5, 2) from x0 = (1, 1, 1) and
    # b0 = 1, steps that lean on the negative eigenvalue make pairs with
    # s'y <= 0.  Per step: (event, pair tag); the L-BFGS runs stop at
    # max_iters = 10 and keep falling back once they start
    @pytest.mark.parametrize("driver, rule, mode, status, steps", [
        pytest.param(minimize_lbfgs, None, NoTransform(), "max-iters",
                     [(None, "raw")] * 2 + [("skip-storage", "raw")] * 8, id="LBFGS(N=3)"),
        pytest.param(minimize_lbfgs, None, ImageTransform(), "max-iters",
                     [(None, "image")] + [("curvature", "raw")] * 9, id="Im-LBFGS(N=3)"),
        pytest.param(minimize, GeneralizedPSB(), ImageTransform(), "converged",
                     [(None, "image"), ("curvature", "raw"), (None, "image"),
                      ("zero-image", "raw")], id="Im-PSB"),
    ])
    def test_fallback_events(self, driver, rule, mode, status, steps):
        cfg = SolverConfig(rule=rule, stop=GradNorm(1e-8), b0=1.0, mode=mode, memory=3,
                           max_iters=10)
        trace = driver(_quadratic(np.diag([1.0, -0.5, 2.0]), x0=np.ones(3)), cfg)
        assert (trace.status, trace.iterations) == (status, len(steps))
        assert [(r.event, r.pair.transformed) for r in trace.records[1:]] == steps
        assert trace.fallbacks == sum(event is not None for event, _ in steps)


def nan_after(problem, evaluations):
    """The problem with a gradient that returns NaN from evaluation
    ``evaluations + 1`` on."""
    count = [0]
    gradient = problem.gradient

    def counted(x):
        count[0] += 1
        g = gradient(x)
        return g if count[0] <= evaluations else np.full_like(g, np.nan)

    problem.gradient = counted
    return problem


class TestTerminalStatuses:
    @pytest.mark.parametrize("stop", [IterateError(1e-7), GradNorm(1e-7)])
    def test_nan_gradient_is_nonfinite_not_converged(self, stop):
        # the 4th evaluation (iteration 3 with unit steps) turns NaN
        for driver, config in (
            (minimize, SolverConfig(rule=Broyden(0.0), stop=stop, b0=50.0, max_iters=50)),
            (minimize_lbfgs, SolverConfig(rule=None, stop=stop, b0=50.0, memory=3, max_iters=50)),
        ):
            trace = driver(nan_after(quadratic_weighted_50(), 3), config)
            assert trace.status == "nonfinite"
            assert trace.iterations == 3
            assert np.isnan(trace.records[-1].grad_norm)

    def test_nan_start_is_nonfinite(self):
        p = nan_after(quadratic_weighted_50(), 0)
        trace = minimize(p, SolverConfig(rule=Broyden(1.0), stop=GradNorm(1e-7), b0=50.0,
                                         max_iters=50))
        assert trace.status == "nonfinite"
        assert trace.iterations == 0

    @pytest.mark.parametrize("mode", [None, NormalEqWindow(d=1)])
    def test_overflowing_bgm_step_is_nonfinite(self, mode):
        # B0 = 1e-300 I: the first step overflows the residual
        kw = {} if mode is None else {"mode": mode}
        cfg = SolverConfig(rule=BGM(), stop=ResidualNorm(1e-7), b0=1e-300, max_iters=50, **kw)
        with np.errstate(all="ignore"):
            trace = solve_system(circle_cosine_system(), cfg)
        assert trace.status == "nonfinite"
        assert not np.isfinite(trace.records[-1].grad_norm)

    @pytest.mark.parametrize("mode", [None, NormalEqWindow(d=1)])
    def test_underflowing_bgm_step_is_breakdown(self, mode):
        # B0 = 1e300 I: s's underflows to zero and bgm_update refuses it
        kw = {} if mode is None else {"mode": mode}
        cfg = SolverConfig(rule=BGM(), stop=ResidualNorm(1e-7), b0=1e300, max_iters=50, **kw)
        trace = solve_system(circle_cosine_system(), cfg)
        assert trace.status == "breakdown"
        assert trace.records[-1].event == "update-breakdown: zero step"
        assert trace.fallbacks == 1


class TestRecordingLevels:
    """``record="summary"`` keeps the initial and the final record of the very
    run ``record="full"`` makes: same status, counts and final iterate."""

    BFGS = dict(rule=Broyden(0.0), b0=50.0, max_iters=50)
    LBFGS = dict(rule=None, b0=50.0, memory=3, max_iters=50)
    BGM_AT = dict(rule=BGM(), stop=ResidualNorm(1e-7), max_iters=50)
    RUNS = {
        # the gradient turns NaN at iteration 3, or at the start
        "nonfinite-dense-iterate": (minimize, 3, dict(stop=IterateError(1e-7), **BFGS)),
        "nonfinite-dense-gradnorm": (minimize, 3, dict(stop=GradNorm(1e-7), **BFGS)),
        "nonfinite-lbfgs-iterate": (minimize_lbfgs, 3, dict(stop=IterateError(1e-7), **LBFGS)),
        "nonfinite-lbfgs-gradnorm": (minimize_lbfgs, 3, dict(stop=GradNorm(1e-7), **LBFGS)),
        "nan-start": (minimize, 0, dict(stop=GradNorm(1e-7), **BFGS)),
        "max-iters": (minimize, None, dict(rule=Broyden(1.0), stop=IterateError(1e-7),
                                           b0=50.0, max_iters=10)),
        # BGM on circle-cosine: the first step overflows, or s's underflows
        "bgm-overflow": (solve_system, None, dict(b0=1e-300, **BGM_AT)),
        "bgm-overflow-window": (solve_system, None,
                                dict(b0=1e-300, mode=NormalEqWindow(d=1), **BGM_AT)),
        "bgm-breakdown": (solve_system, None, dict(b0=1e300, **BGM_AT)),
        "bgm-breakdown-window": (solve_system, None,
                                 dict(b0=1e300, mode=NormalEqWindow(d=1), **BGM_AT)),
    }

    def assert_same_run(self, full, summary):
        assert full.iterations == len(full.records) - 1
        assert full.fallbacks == sum(r.event is not None for r in full.records)
        assert len(summary.records) == min(2, len(full.records))
        assert ((summary.status, summary.iterations, summary.fallbacks)
                == (full.status, full.iterations, full.fallbacks))
        for f, s in ((full.records[0], summary.records[0]),
                     (full.records[-1], summary.records[-1])):
            assert f.x.tobytes() == s.x.tobytes()
            assert np.float64(f.grad_norm).tobytes() == np.float64(s.grad_norm).tobytes()
            assert f.event == s.event
            # the summary loop builds its final record from locals: the pair,
            # its tag and the untracked fields must be the full run's too
            assert (s.matrix_error, s.angle) == (f.matrix_error, f.angle) == (None, None)
            assert (f.pair is None) == (s.pair is None)
            if f.pair is not None:
                assert f.pair.s.tobytes() == s.pair.s.tobytes()
                assert f.pair.y.tobytes() == s.pair.y.tobytes()
                assert f.pair.transformed == s.pair.transformed

    @pytest.mark.parametrize("label, lam, problem", [c[:3] for c in TestRecordBits.CELLS],
                             ids=[f"{c[0]}-{c[2].__name__}" for c in TestRecordBits.CELLS])
    def test_reference_cells(self, label, lam, problem):
        full = run_label(label, lam, problem())
        self.assert_same_run(full, run_label(label, lam, problem(), record="summary"))

    @pytest.mark.parametrize("name", list(RUNS))
    def test_terminal_statuses(self, name):
        driver, nan_from, kw = self.RUNS[name]

        def run(record):
            if driver is solve_system:
                problem = circle_cosine_system()
            elif nan_from is None:
                problem = quadratic_weighted_50()
            else:
                problem = nan_after(quadratic_weighted_50(), nan_from)
            with np.errstate(all="ignore"):
                return driver(problem, SolverConfig(record=record, **kw))

        full = run("full")
        assert full.status != "converged"
        self.assert_same_run(full, run("summary"))

    @pytest.mark.parametrize("record", ["events", None, "Full", "angles"])
    def test_invalid_levels_rejected(self, record):
        with pytest.raises(ValueError, match="record"):
            SolverConfig(rule=Broyden(0.0), stop=GradNorm(1e-7), record=record)

    def test_grid_cells_run_at_summary_and_run_label_at_full(self, monkeypatch):
        levels = []

        def spy(problem, config):
            levels.append(config.record)
            return minimize(problem, config)

        monkeypatch.setattr(cli, "minimize", spy)
        row = cli._bench_cell(("DFP", 50.0))
        trace = cli.run_label("DFP", 50.0, quadratic_weighted_50())
        assert levels == ["summary", "full"]
        assert (row.iterations, row.status, row.fallbacks) == (124, "converged", 0)
        assert len(trace.records) == 125


class TestWindowValidation:
    @pytest.mark.parametrize("window", [NormalEqWindow])
    @pytest.mark.parametrize("d", [0, -1])
    def test_window_below_one_rejected(self, window, d):
        # d=0 and d=-1 ran the plain method (55 iterations of BFGS at b0=50)
        with pytest.raises(ValueError, match="window size"):
            window(d)

    def test_window_of_one_accepted(self):
        assert NormalEqWindow(1).d == 1

    # a window of d >= n steps spans the whole space; IP-BGM(d=2) on the 2-D
    # circle-cosine system "converged" after 5,956 iterations, 1,703 of them
    # discarded and 770 singular
    WINDOW_DRIVERS = {
        "minimize": (minimize, lambda: replace(random_spd_quadratic(3, seed=0), x0=np.ones(3)),
                     dict(rule=Broyden(0.0), stop=GradNorm(1e-8))),
        "minimize_lbfgs": (minimize_lbfgs,
                           lambda: replace(random_spd_quadratic(3, seed=0), x0=np.ones(3)),
                           dict(rule=None, stop=GradNorm(1e-8), memory=5)),
        "solve_system": (solve_system, circle_cosine_system,
                         dict(rule=BGM(), stop=ResidualNorm(1e-7), step=Unit())),
    }

    @pytest.mark.parametrize("name", list(WINDOW_DRIVERS))
    @pytest.mark.parametrize("excess", [0, 1])
    def test_window_of_the_dimension_refused_before_any_evaluation(self, name, excess):
        driver, problem, kw = self.WINDOW_DRIVERS[name]
        problem = problem()
        calls = []
        cfg = SolverConfig(**kw, mode=NormalEqWindow(problem.n + excess))
        with pytest.raises(ValueError, match="below the dimension"):
            driver(counted(problem, calls), cfg)
        assert calls == []

    @pytest.mark.parametrize("name", list(WINDOW_DRIVERS))
    def test_window_below_the_dimension_runs(self, name):
        driver, problem, kw = self.WINDOW_DRIVERS[name]
        problem = problem()
        trace = driver(problem, SolverConfig(**kw, mode=NormalEqWindow(problem.n - 1)))
        assert trace.iterations > 0


class TestSolverConfigValidation:
    def base(self, **kw):
        return SolverConfig(rule=None, stop=IterateError(1e-7), **kw)

    @pytest.mark.parametrize("b0", [0.0, -5.0, np.nan, np.inf, -np.inf])
    def test_scalar_b0_must_be_finite_and_positive(self, b0):
        # b0=0 raised ZeroDivisionError in minimize_lbfgs, b0=-5 ran to max-iters
        with pytest.raises(ValueError, match="b0"):
            self.base(b0=b0)

    def test_memory_below_one_rejected(self):
        # memory=0 ran minimize_lbfgs to max-iters without complaint
        with pytest.raises(ValueError, match="memory"):
            self.base(memory=0)

    def test_negative_max_iters_rejected(self):
        with pytest.raises(ValueError, match="max_iters"):
            self.base(max_iters=-1)

    @pytest.mark.parametrize("build, match", [
        # GradNorm(inf) converged at 0 iterations; IterateError(nan) and (-1)
        # ran 227 iterations past the minimizer into breakdown; max_iters=nan
        # was ignored; NormalEqWindow(1.5) ran as d = 1; memory=2.5 raised a
        # TypeError from a deque
        (lambda: dict(stop=GradNorm(np.inf)), "eps"),
        (lambda: dict(stop=GradNorm(np.inf, relative=False)), "eps"),
        (lambda: dict(stop=GradNorm(np.nan)), "eps"),
        (lambda: dict(stop=GradNorm(-1e-7)), "eps"),
        (lambda: dict(stop=IterateError(np.nan)), "eps_rel"),
        (lambda: dict(stop=IterateError(-1.0)), "eps_rel"),
        (lambda: dict(stop=IterateError(np.inf)), "eps_rel"),
        (lambda: dict(stop=ResidualNorm(np.nan)), "eps"),
        (lambda: dict(stop=ResidualNorm(-1.0)), "eps"),
        (lambda: dict(max_iters=np.nan), "max_iters"),
        (lambda: dict(max_iters=10.0), "max_iters"),
        (lambda: dict(memory=2.5), "memory"),
        (lambda: dict(mode=NormalEqWindow(1.5)), "window size"),
        # mode None, "image" or the class NormalEqWindow ran the plain method
        # to converged; step None or "unit" raised AttributeError inside
        # line_search after the start's gradient
        (lambda: dict(mode=None), "mode"),
        (lambda: dict(mode="image"), "mode"),
        (lambda: dict(mode=NormalEqWindow), "mode"),
        (lambda: dict(step=None), "step"),
        (lambda: dict(step="unit"), "step"),
        # on random_spd_quadratic(6) with BFGS, shrink=0 ended in breakdown,
        # shrink=-0.5 took negative steps to converged, c1=-1 accepted every
        # step and shrink=nan ended nonfinite
        (lambda: dict(step=Backtracking(shrink=0.0)), "shrink"),
        (lambda: dict(step=Backtracking(shrink=-0.5)), "shrink"),
        (lambda: dict(step=Backtracking(shrink=1.0)), "shrink"),
        (lambda: dict(step=Backtracking(shrink=np.nan)), "shrink"),
        (lambda: dict(step=Backtracking(c1=-1.0)), "c1"),
        (lambda: dict(step=Backtracking(c1=0.0)), "c1"),
        (lambda: dict(step=Backtracking(c1=1.0)), "c1"),
        (lambda: dict(step=Backtracking(c1=np.nan)), "c1"),
        # each raised TypeError, and relative="no" was read as relative
        (lambda: dict(stop=GradNorm("x")), "eps"),
        (lambda: dict(stop=GradNorm(1e-6, relative="no")), "relative"),
        (lambda: dict(stop=IterateError(None)), "eps_rel"),
        (lambda: dict(stop=ResidualNorm("1e-7")), "eps"),
        (lambda: dict(step=Backtracking(c1="x")), "c1"),
        (lambda: dict(b0="x"), "b0"),
    ], ids=["GradNorm-inf", "GradNorm-inf-absolute", "GradNorm-nan", "GradNorm-negative",
            "IterateError-nan", "IterateError-negative", "IterateError-inf",
            "ResidualNorm-nan", "ResidualNorm-negative", "max_iters-nan", "max_iters-float",
            "memory-fraction", "NormalEqWindow-fraction", "mode-None", "mode-str",
            "mode-class", "step-None", "step-str", "shrink-zero", "shrink-negative",
            "shrink-one", "shrink-nan", "c1-negative", "c1-zero", "c1-one", "c1-nan",
            "GradNorm-str", "GradNorm-relative-str", "IterateError-None", "ResidualNorm-str",
            "c1-str", "b0-str"])
    def test_bad_parameter_refused_where_built(self, build, match):
        calls = []
        problem = counted(quadratic_weighted_50(), calls)
        with pytest.raises(ValueError, match=match):
            kw = dict(rule=Broyden(0.0), stop=IterateError(1e-7), b0=50.0)
            kw.update(build())
            minimize(problem, SolverConfig(**kw))
        assert calls == []

    @pytest.mark.parametrize("theta", ["x", None, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("driver", [minimize, minimize_lbfgs])
    def test_theta_must_be_a_finite_real(self, driver, theta):
        # "x" and None raised a UFuncTypeError after the start's gradient; NaN
        # and inf ended minimize as nonfinite after 2 iterations
        calls = []
        with pytest.raises(ValueError, match="theta"):
            driver(counted(quadratic_weighted_50(), calls),
                   SolverConfig(rule=Broyden(theta), stop=IterateError(1e-7), b0=50.0))
        assert calls == []

    def test_real_thetas_accepted(self):
        assert [Broyden(t).theta for t in (0, 0.5, np.float64(1.0), -2)] == [0, 0.5, 1.0, -2]

    def test_zero_tolerances_and_integer_counts_accepted(self):
        assert GradNorm(0.0).eps == IterateError(0.0).eps_rel == ResidualNorm(0.0).eps == 0.0
        cfg = self.base(memory=np.int64(3), max_iters=np.int64(5),
                        mode=NormalEqWindow(np.int64(2)))
        assert minimize_lbfgs(quadratic_weighted_50(), cfg).iterations == 5

    def test_boundary_values_accepted(self):
        cfg = self.base(b0=1e-300, memory=1, max_iters=0,
                        step=Backtracking(c1=0.999, shrink=1e-300))
        trace = minimize_lbfgs(quadratic_weighted_50(), cfg)
        assert trace.status == "max-iters"
        assert trace.iterations == 0

    @pytest.mark.parametrize("x0", [None, np.ones(3)])
    def test_start_must_match_the_dimension(self, x0):
        # random_spd_quadratic has no start: minimize raised a matmul error
        # from inside the first gradient on a NaN scalar start
        cfg = SolverConfig(rule=Broyden(0.0), stop=GradNorm(1e-8))
        with pytest.raises(ValueError, match="problem's x0 of shape"):
            minimize(replace(random_spd_quadratic(4), x0=x0), cfg)

    def test_matrix_b0_shape_checked_by_the_driver(self):
        cfg = SolverConfig(rule=Broyden(0.0), stop=IterateError(1e-7), b0=np.eye(3))
        with pytest.raises(ValueError, match="shape"):
            minimize(quadratic_weighted_50(), cfg)

    def test_minv2_shape_checked_by_the_driver(self):
        # a 3 x 3 weight on n = 50 took a full step, then failed in a matmul
        calls = []
        cfg = SolverConfig(rule=GeneralizedPSB(np.eye(3)), stop=IterateError(1e-7), b0=50.0)
        with pytest.raises(ValueError, match="minv2 shape"):
            minimize(counted(quadratic_weighted_50(), calls), cfg)
        assert calls == []

    REFUSED_RECORDING = {
        "minimize-no-hessian": (
            minimize,
            lambda: without_hessian(replace(random_spd_quadratic(4, seed=0), x0=np.ones(4))),
            dict(rule=Broyden(0.0), stop=GradNorm(1e-8))),
        "minimize_lbfgs": (
            minimize_lbfgs, quadratic_weighted_50,
            dict(rule=None, stop=IterateError(1e-7), b0=50.0, memory=3)),
        "solve_system-bgm": (
            solve_system, circle_cosine_system, dict(rule=BGM(), stop=ResidualNorm(1e-7))),
        "solve_system-newton": (
            solve_system, circle_cosine_system, dict(rule=None, stop=ResidualNorm(1e-7))),
    }

    @pytest.mark.parametrize("name", list(REFUSED_RECORDING))
    def test_unrecordable_request_refused_before_any_evaluation(self, name):
        # minimize without a hessian and solve_system converged with every
        # matrix_error None and no angles
        driver, problem, kw = self.REFUSED_RECORDING[name]
        calls = []
        with pytest.raises(ValueError, match="record"):
            driver(counted(problem(), calls), SolverConfig(**kw, record="matrix"))
        assert calls == []

    @pytest.mark.parametrize("stop, x_star", [
        pytest.param(IterateError(1e-7), None, id="IterateError-no-x_star"),
        pytest.param(ResidualNorm(1e-7), np.zeros(4), id="ResidualNorm-SmoothProblem"),
    ])
    def test_unusable_stop_rule_refused_before_any_evaluation(self, stop, x_star):
        # both raised from the threshold, after the start's gradient
        p = replace(random_spd_quadratic(4, seed=0), x0=np.ones(4), x_star=x_star)
        calls = []
        cfg = SolverConfig(rule=Broyden(0.0), stop=stop)
        with pytest.raises(ValueError, match="stop"):
            minimize(counted(p, calls), cfg)
        assert calls == []


STATUSES = ("converged", "max-iters", "breakdown", "nonfinite")


@st.composite
def solver_draw(draw):
    """(driver, problem, config) over random SPD quadratics, n = 2..6; the
    problem has no start of its own, so a draw without x0 must be refused."""
    n = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**16))
    problem = random_spd_quadratic(n, seed=seed)
    driver = draw(st.sampled_from([minimize, minimize_lbfgs]))
    # minimize refuses rule None and minimize_lbfgs every rule but BFGS
    names = ["none", "bfgs", "broyden-half", "dfp", "psb", "gpsb"]
    rule = draw(st.sampled_from(names if driver is minimize else ["none", "bfgs", "dfp"]))
    rule = {
        "none": None, "bfgs": Broyden(0.0), "broyden-half": Broyden(0.5), "dfp": Broyden(1.0),
        "psb": GeneralizedPSB(),
        "gpsb": GeneralizedPSB(random_spd_matrix(n, np.random.default_rng(seed), (0.5, 2.0))),
    }[rule]
    mode = draw(st.one_of(st.just(NoTransform()), st.just(ImageTransform()),
                          st.integers(1, 6).map(NormalEqWindow)))
    config = SolverConfig(
        rule=rule, stop=GradNorm(1e-10), b0=10.0 ** draw(st.floats(-8.0, 8.0)), mode=mode,
        step=draw(st.sampled_from([Unit(), Backtracking()])), memory=draw(st.integers(1, 6)),
        max_iters=draw(st.integers(0, 200)),
    )
    if draw(st.integers(0, 7)):
        problem = replace(problem, x0=np.random.default_rng(100 + seed).standard_normal(n))
    return driver, problem, config


class TestSolverProperties:
    @given(case=solver_draw())
    @settings(max_examples=250, deadline=None)
    def test_every_draw_is_refused_at_entry_or_ends_in_a_documented_status(self, case):
        # windowed PSB may end in nonfinite or max-iters (quadratic termination
        # is lost in floating point for larger windows), so any status counts
        driver, problem, config = case
        calls = [0]
        gradient = problem.gradient

        def counted(x):
            calls[0] += 1
            return gradient(x)

        problem.gradient = counted
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                trace = driver(problem, config)
            except ValueError:
                assert calls[0] == 0  # refused before the first evaluation
                return
        assert trace.status in STATUSES
        assert trace.iterations <= config.max_iters
        if trace.status == "converged":
            assert trace.records[-1].grad_norm <= 1e-10 * trace.records[0].grad_norm
