import concurrent.futures
import importlib.util
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from qnops import lab
from qnops.lab import (
    KernelGrowthReport,
    ProcessConfig,
    SuiteRow,
    check_kernel_growth,
    oracle_error_reduction,
    oracle_image_operator_gain,
    oracle_lemmas,
    oracle_projection_gain,
    run_process,
    verify_all,
    _least_change,
)
from qnops.linalg import weighted_frobenius_error
from qnops.problems import random_spd_matrix
from qnops.solvers import BGM, Broyden, GeneralizedPSB
from qnops.updates import SecantPair, gpsb_update

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def spd(n, seed, spectrum=(0.5, 5.0)):
    return random_spd_matrix(n, np.random.default_rng(seed), spectrum=spectrum)


def rule_for(family, A, m_seed):
    """The update rule of a family; gpsb weighs by M = spd(n, m_seed)."""
    if family == "gpsb":
        M = spd(A.shape[0], m_seed, spectrum=(0.5, 2.0))
        return GeneralizedPSB(np.linalg.inv(M @ M))
    return {"broyden": Broyden(0.0), "dfp": Broyden(1.0), "dfp-direct": GeneralizedPSB(minv2=A),
            "psb": GeneralizedPSB(), "bgm": BGM()}[family]


class TestRunProcess:
    def test_exact_start_terminates_immediately(self):
        A = spd(4, 0)
        trace = run_process(ProcessConfig(a=A, b0=A.copy(), rule=Broyden(1.0)))
        assert trace.terminated
        assert trace.steps == []
        assert check_kernel_growth(trace).dims[0] == 4
        assert trace.errors[0] == 0.0

    def test_dfp_image_directions_terminate_in_n(self):
        A = spd(3, 1)
        B0 = spd(3, 2)
        trace = run_process(
            ProcessConfig(a=A, b0=B0, rule=Broyden(1.0), direction_source="image", seed=5)
        )
        assert trace.terminated
        assert len(trace.steps) <= 3
        assert trace.errors[-1] <= 1e-8 * np.linalg.norm(A, "fro")

    def test_bgm_standard_basis_is_exact_in_n(self):
        A = spd(3, 3)
        trace = run_process(
            ProcessConfig(
                a=A,
                b0=np.eye(3),
                rule=BGM(),
                direction_source="random",
                directions=list(np.eye(3).T),
                max_steps=3,
            )
        )
        assert trace.terminated
        assert len(trace.steps) == 3
        assert trace.errors[-1] <= 1e-12 * np.linalg.norm(A, "fro")

    def test_orthogonalized_source_cycles_basis(self):
        A = spd(4, 4)
        trace = run_process(
            ProcessConfig(a=A, b0=2.0 * np.eye(4), rule=GeneralizedPSB(),
                          direction_source="orthogonalized")
        )
        assert trace.terminated
        # W is Euclidean here, so the steps are mutually orthogonal
        S = np.column_stack(trace.steps)
        off = S.T @ S - np.diag(np.einsum("ij,ij->j", S, S))
        assert np.linalg.norm(off, "fro") <= 1e-10

    def test_exhausted_budget(self):
        A = spd(6, 6)
        trace = run_process(
            ProcessConfig(a=A, b0=np.eye(6), rule=Broyden(1.0), direction_source="random",
                          max_steps=2)
        )
        assert trace.status == "exhausted"
        assert len(trace.steps) == 2

    def test_gpsb_tracks_weighted_errors(self):
        A = spd(3, 8)
        M = spd(3, 9, spectrum=(0.5, 2.0))
        trace = run_process(
            ProcessConfig(
                a=A, b0=np.eye(3), rule=GeneralizedPSB(np.linalg.inv(M @ M)),
                direction_source="image",
            )
        )
        assert trace.terminated
        weighted = [weighted_frobenius_error(Bk - A, M) for Bk in trace.matrices]
        # the weighted error ||M (B_k - A) M||_F is what the update contracts monotonically
        assert all(b <= a * (1 + 1e-10) for a, b in zip(weighted, weighted[1:]))

    @pytest.mark.parametrize("field, value, match", [
        ("rule", "dfp", "rule"),
        ("rule", None, "rule"),
        ("rule", Broyden, "rule"),  # the class, not a rule
        ("rule", GeneralizedPSB(np.eye(2)), "minv2"),
        ("rule", GeneralizedPSB(np.ones(3)), "minv2"),
        ("max_steps", -1, "max_steps"),
        ("max_steps", 2.5, "max_steps"),
        ("max_steps", "3", "max_steps"),
    ], ids=["rule-string", "rule-none", "rule-class", "minv2-2x2", "minv2-vector",
            "steps-negative", "steps-float", "steps-string"])
    def test_bad_input_is_refused(self, field, value, match):
        config = ProcessConfig(a=np.eye(3), b0=2 * np.eye(3), rule=Broyden(1.0))
        setattr(config, field, value)
        with pytest.raises(ValueError, match=match):
            run_process(config)

    def test_zero_user_direction_rejected(self):
        with pytest.raises(ValueError):
            run_process(
                ProcessConfig(
                    a=np.eye(2),
                    b0=2 * np.eye(2),
                    rule=Broyden(1.0),
                    direction_source="random",
                    directions=[np.zeros(2)],
                )
            )

    @pytest.mark.parametrize("source", ["user", "Image", "orthogonal", ""])
    def test_unknown_direction_source_rejected(self, source):
        # a typo must not run as the random source, with or without directions
        for kw in ({}, {"directions": [np.ones(2)]}):
            with pytest.raises(ValueError, match="direction source"):
                run_process(ProcessConfig(a=np.eye(2), b0=2 * np.eye(2), rule=Broyden(1.0),
                                          direction_source=source, **kw))

    @pytest.mark.parametrize("family", ["broyden", "dfp", "dfp-direct", "psb", "bgm", "gpsb"])
    @pytest.mark.parametrize("source", ["image", "orthogonalized"])
    def test_every_family_terminates_in_n(self, family, source):
        n = 5
        A = spd(n, 11)
        trace = run_process(
            ProcessConfig(
                a=A, b0=spd(n, 13), rule=rule_for(family, A, 12), direction_source=source,
                seed=3,
            )
        )
        assert trace.terminated
        assert len(trace.steps) <= n
        assert trace.errors[-1] <= 1e-8 * np.linalg.norm(A, "fro")


class TestKernelGrowth:
    def test_terminated_trace_reaches_full_dimension(self):
        A = spd(5, 20)
        trace = run_process(
            ProcessConfig(a=A, b0=spd(5, 21), rule=Broyden(1.0), direction_source="image")
        )
        report = check_kernel_growth(trace)
        assert isinstance(report, KernelGrowthReport)
        assert report.ok
        assert report.dims[-1] == 5

    def test_image_source_grows_every_step(self):
        A = spd(5, 22)
        trace = run_process(
            ProcessConfig(a=A, b0=spd(5, 23), rule=GeneralizedPSB(), direction_source="image")
        )
        report = check_kernel_growth(trace)
        assert report.ok
        assert report.dims == sorted(report.dims)
        assert report.dims[-1] == 5

    def test_random_directions_never_shrink(self):
        A = spd(6, 24)
        trace = run_process(
            ProcessConfig(
                a=A, b0=spd(6, 25), rule=Broyden(1.0), direction_source="random", max_steps=12
            )
        )
        report = check_kernel_growth(trace)
        assert report.ok
        assert all(b >= a for a, b in zip(report.dims, report.dims[1:]))

    def test_shrink_is_reported(self):
        # hand-built trace: fake a dimension drop
        A = np.eye(2)
        trace = run_process(
            ProcessConfig(a=A, b0=2 * np.eye(2), rule=Broyden(1.0), direction_source="random",
                          max_steps=1)
        )
        trace.matrices = [A + np.diag([0.0, 1.0]), A + np.eye(2)]
        trace.steps = [np.array([1.0, 0.0])]
        report = check_kernel_growth(trace)
        assert not report.ok
        assert "fell" in report.violations[0]

    @pytest.mark.parametrize("family", ["broyden", "dfp", "dfp-direct", "psb", "gpsb", "bgm"])
    @pytest.mark.parametrize("source", ["random", "image", "orthogonalized", "user"])
    def test_kernel_dims_match_the_growth_check(self, family, source):
        # "user": the random source with its base draws given as directions
        n = 5
        kw = {}
        if source == "user":
            source, kw["directions"] = "random", list(spd(n, 31))
        A = spd(n, 33)
        trace = run_process(ProcessConfig(
            a=A, b0=np.eye(n), rule=rule_for(family, A, 32), direction_source=source, seed=4,
            **kw
        ))
        dims = check_kernel_growth(trace).dims
        assert len(dims) == len(trace.matrices)
        assert dims[0] == 0  # B0 = I shares no direction with a random A


class TestErrorReductionOracle:
    def test_bgm_identity_hand_case(self):
        a = np.eye(2)
        b = 2.0 * np.eye(2)
        s = np.array([1.0, 0.0])
        lhs, rhs, holds = oracle_error_reduction("bgm", a, b, None, s)
        assert holds
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_bgm_identity_random(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            s = rng.standard_normal(n)
            lhs, rhs, holds = oracle_error_reduction("bgm", a, b, None, s)
            assert holds
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_gpsb_bound_random(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            a = random_spd_matrix(n, rng, spectrum=(0.5, 5.0))
            z = rng.standard_normal((n, n))
            b = a + z + z.T
            m = random_spd_matrix(n, rng, spectrum=(0.5, 2.0))
            s = rng.standard_normal(n)
            lhs, rhs, holds = oracle_error_reduction("gpsb", a, b, m, s)
            assert holds
            assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            oracle_error_reduction("broyden-bad", np.eye(2), np.eye(2), None, np.ones(2))


class TestImageGainOracle:
    def test_dfp_gain_holds(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a = random_spd_matrix(n, rng, spectrum=(0.5, 5.0))
            z = rng.standard_normal((n, n))
            b = a + 0.5 * (z + z.T)
            s = rng.standard_normal(n)
            base, improved, holds = oracle_image_operator_gain("dfp", a, b, None, s)
            if holds == "degenerate":
                continue
            assert holds is True
            assert improved >= base - 1e-9 * max(1.0, base)

    def test_kernel_step_is_degenerate(self):
        a = np.eye(3)
        b = a + np.diag([0.0, 1.0, 2.0])
        s = np.array([1.0, 0.0, 0.0])  # in ker(B - A)
        base, improved, holds = oracle_image_operator_gain("dfp", a, b, None, s)
        assert holds == "degenerate"

    def test_ordered_variant_gates_on_hypothesis(self):
        a = 2.0 * np.eye(2)
        b = a + np.diag([1.0, -1.0])  # indefinite gap: hypothesis violated
        out = oracle_image_operator_gain("dfp-ordered", a, b, None, np.ones(2))
        assert out[2] == "hypothesis not met"

    def test_ordered_variant_holds_when_ordered(self):
        rng = np.random.default_rng(33)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(2, 6))
            a = random_spd_matrix(n, rng, spectrum=(0.5, 2.0))
            gap = random_spd_matrix(n, rng, spectrum=(0.1, 1.0))
            b = a + gap  # B - A is positive definite
            s = rng.standard_normal(n)
            base, improved, holds = oracle_image_operator_gain("dfp-ordered", a, b, None, s)
            if isinstance(holds, str):
                continue
            checked += 1
            assert holds is True
        assert checked > 100

    def test_bgm_transpose_gain(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            s = rng.standard_normal(n)
            base, improved, holds = oracle_image_operator_gain("bgm", a, b, None, s)
            if holds == "degenerate":
                continue
            assert holds is True


class TestProjectionGainOracle:
    def test_hand_case_with_exact_identity(self):
        a = np.eye(3)
        b = a + np.diag([0.0, 1.0, 2.0])
        basis = np.array([1.0, 0.0, 0.0])[:, None]  # inside ker(B - A)
        s = np.ones(3)
        base, improved, holds, residual = oracle_projection_gain("bgm", a, b, None, basis, s)
        assert holds is True
        assert base == pytest.approx(5.0 / 3.0, rel=1e-12)
        assert improved == pytest.approx(5.0 / 2.0, rel=1e-12)
        assert residual <= 1e-12

    def test_projection_onto_spanning_vector_degenerates(self):
        a = np.eye(2)
        b = a + np.diag([0.0, 1.0])
        s = np.array([1.0, 0.0])
        out = oracle_projection_gain("bgm", a, b, None, s[:, None], s)
        assert out[2] == "degenerate"

    def test_gpsb_weighted_identity(self):
        rng = np.random.default_rng(35)
        count = 0
        for _ in range(100):
            n = int(rng.integers(3, 7))
            a = random_spd_matrix(n, rng, spectrum=(0.5, 2.0))
            m = random_spd_matrix(n, rng, spectrum=(0.5, 2.0))
            # symmetric gap with a one-dimensional kernel
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            w = np.concatenate([[0.0], rng.uniform(0.5, 2.0, n - 1)])
            gap = (q * w) @ q.T
            b = a + gap
            basis = q[:, :1]
            s = rng.standard_normal(n)
            base, improved, holds, residual = oracle_projection_gain(
                "gpsb", a, b, m, basis, s
            )
            if isinstance(holds, str):
                continue
            count += 1
            assert holds is True
            assert residual <= 1e-8
        assert count > 80


class TestLemmaOracles:
    @pytest.mark.parametrize(
        "which",
        [
            "projected-contraction",
            "image-ratio",
            "one-sided-ratio",
            "least-change-direct",
            "least-change-dual",
        ],
    )
    def test_each_lemma_clean(self, which):
        row = oracle_lemmas(which, trials=120, seed=1)
        assert row.ok, str(row)
        assert row.trials == 120
        assert row.max_residual <= 1e-9

    def test_unknown_lemma_id(self):
        with pytest.raises(KeyError):
            oracle_lemmas("no-such-lemma", trials=1)

    @pytest.mark.parametrize("dual", [False, True])
    def test_stacked_competitors_match_the_one_at_a_time_loop(self, dual):
        def reference(rng):
            # the least-change trial drawing and measuring one competitor at a time
            n = int(rng.integers(2, 9))
            z = rng.standard_normal((n, n))
            B = (z + z.T) / 2.0
            M = random_spd_matrix(n, rng, spectrum=(0.5, 2.0))
            minv2 = np.linalg.inv(M @ M)
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            con, target = (y, s) if dual else (s, y)
            bplus = gpsb_update(B, SecantPair(con, target), minv2)
            res = np.linalg.norm(bplus @ con - target) / max(1.0, np.linalg.norm(target))
            res = max(res, np.linalg.norm(bplus - bplus.T, "fro"))
            dist = weighted_frobenius_error(bplus - B, M)
            P = np.eye(n) - np.outer(con, con) / (con @ con)
            worst = 0.0
            for _ in range(100):
                z = rng.standard_normal((n, n))
                cdist = weighted_frobenius_error(bplus + P @ ((z + z.T) / 2.0) @ P - B, M)
                worst = max(worst, (dist - cdist) / max(1.0, cdist))
            return max(res, worst)

        rng, ref_rng = np.random.default_rng(30), np.random.default_rng(30)
        for _ in range(200):
            assert float.hex(float(_least_change(rng, dual))) == float.hex(float(reference(ref_rng)))
        assert rng.standard_normal() == ref_rng.standard_normal()


SUITE_NAMES = [
    "error-reduction/gpsb", "error-reduction/bgm-identity",
    "image-gain/gpsb", "image-gain/dfp", "image-gain/dfp-ordered", "image-gain/bfgs",
    "image-gain/bfgs-ordered", "image-gain/bgm",
    "image-gain/dfp-ordered-unconstrained", "image-gain/bfgs-ordered-unconstrained",
    "projection-gain/gpsb-kernel", "projection-gain/gpsb-subspace",
    "projection-gain/bgm-kernel", "projection-gain/bgm-subspace",
    "lemma/projected-contraction", "lemma/image-ratio", "lemma/one-sided-ratio",
    "lemma/least-change-direct", "lemma/least-change-dual",
    "termination/broyden-theta0-image", "termination/broyden-theta0-orthogonalized",
    "termination/broyden-theta1-image", "termination/broyden-theta1-orthogonalized",
    "termination/psb-image", "termination/psb-orthogonalized",
    "termination/gpsb-image", "termination/gpsb-orthogonalized",
    "termination/bgm-image", "termination/bgm-orthogonalized",
    "process/kernel-growth", "process/span-inclusion", "process/image-space-characterization",
]


class TestVerifyAll:
    def test_smoke_run_is_clean(self):
        rows = verify_all(seed=0, trials=40)
        assert all(isinstance(r, SuiteRow) for r in rows)
        assert all(r.ok for r in rows), "\n".join(str(r) for r in rows if not r.ok)
        names = " ".join(r.name for r in rows)
        for prefix in (
            "error-reduction/",
            "image-gain/",
            "projection-gain/",
            "lemma/",
            "termination/",
            "process/kernel-growth",
            "process/span-inclusion",
            "process/image-space",
        ):
            assert prefix in names
        # the suites, their order and their seed streams
        assert [r.name for r in rows] == SUITE_NAMES
        notes = [r.note for r in rows if r.note]
        assert notes == [
            f"informational hunt: {k} breaches without the ordering hypothesis" for k in (32, 35)
        ]
        assert all(type(r.violations) is int and type(r.skipped) is int for r in rows)

    def test_rows_are_the_same_on_a_pool(self):
        assert verify_all(seed=0, trials=40, workers=2) == verify_all(seed=0, trials=40, workers=1)
        assert multiprocessing.active_children() == []

    def test_one_worker_starts_no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify_all started a pool at workers=1")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        assert [r.name for r in verify_all(seed=0, trials=5, workers=1)] == SUITE_NAMES

    def test_a_pool_takes_the_longest_suites_first(self, monkeypatch):
        submitted = []

        class InProcessPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                submitted.extend(runner.__name__ for runner, _ in tasks)
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        rows = verify_all(seed=0, trials=5, workers=2)
        assert submitted[:3] == ["_suite_image_gain", "_suite_termination",
                                 "_suite_projection_gain"]
        assert len(submitted) == len(lab._LONGEST_FIRST)
        assert rows == verify_all(seed=0, trials=5, workers=1)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_are_refused(self, workers):
        with pytest.raises(ValueError, match="workers"):
            verify_all(seed=0, trials=5, workers=workers)

    def test_row_format(self):
        row = SuiteRow(name="demo", trials=10, violations=0, max_residual=1.5e-12)
        assert str(row) == "demo: trials=10 violations=0 max_residual=1.500e-12"
        noted = SuiteRow(name="demo", trials=10, violations=0, max_residual=0.25, note="info")
        assert str(noted).endswith("[info]")


class TestLabDigest:
    # the bit contracts of the lab (every oracle result of verify_all(0, 500))
    # and of the six systems cells; the grid line takes seconds, so only
    # tools/record_digest.py checks it
    @pytest.mark.parametrize("name", ["systems", "lab"])
    def test_results_match_the_recorded_digest(self, name):
        spec = importlib.util.spec_from_file_location("record_digest", TOOLS / "record_digest.py")
        record_digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(record_digest)
        expected = dict(line.split() for line in (TOOLS / "DIGESTS").read_text().splitlines())
        assert getattr(record_digest, f"{name}_digest")() == expected[name]
