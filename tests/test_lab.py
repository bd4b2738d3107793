import concurrent.futures
import importlib.util
import multiprocessing
import warnings
from functools import partial
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
from qnops.linalg import euclidean_norm, weighted_frobenius_error
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
        # BGM weighs with W = I, so the orthogonalized source takes e1, e2, e3
        A = spd(3, 3)
        trace = run_process(
            ProcessConfig(a=A, b0=np.eye(3), rule=BGM(), direction_source="orthogonalized")
        )
        assert trace.terminated
        assert np.array_equal(np.column_stack(trace.steps), np.eye(3))
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
        # random steps need not terminate: the budget is n steps
        A = spd(6, 6)
        trace = run_process(
            ProcessConfig(a=A, b0=np.eye(6), rule=Broyden(1.0), direction_source="random")
        )
        assert trace.status == "exhausted"
        assert len(trace.steps) == 6
        assert trace.errors[-1] > 1e-3 * np.linalg.norm(A, "fro")

    def test_events_name_the_failing_step(self):
        # W = A is indefinite: e1 has s'y = 1, e2 has s'y = -1, which BFGS refuses
        trace = run_process(ProcessConfig(
            a=np.diag([1.0, -1.0]), b0=np.eye(2), rule=Broyden(0.0),
            direction_source="orthogonalized",
        ))
        assert trace.status == "breakdown"
        assert len(trace.steps) == 1
        assert trace.events == [
            "step 1: breakdown: s'y = -1.000e+00 fails the curvature condition"
        ]

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
        ("b0", np.eye(2), "conformable"),
    ], ids=["rule-string", "rule-none", "rule-class", "minv2-2x2", "minv2-vector", "b0-2x2"])
    def test_bad_input_is_refused(self, field, value, match):
        config = ProcessConfig(a=np.eye(3), b0=2 * np.eye(3), rule=Broyden(1.0))
        setattr(config, field, value)
        with pytest.raises(ValueError, match=match):
            run_process(config)

    @pytest.mark.parametrize("a, seed, match", [
        (np.ones((2, 3)), 0, "a shape"),
        (np.ones(3), 0, "a shape"),
        (np.eye(3), 2.5, "seed"),
    ], ids=["a-2x3", "a-vector", "seed-fraction"])
    def test_bad_target_or_seed_is_refused_before_a_step(self, a, seed, match, monkeypatch):
        # with b0 equal to a, a 2 x 3 or vector a ended terminated after 0
        # steps (any other b0 failed in a matmul); seed=2.5 raised TypeError
        runs = []
        monkeypatch.setattr(lab, "_process_stack", lambda *args: runs.append(args))
        with pytest.raises(ValueError, match=match):
            run_process(ProcessConfig(a=a, b0=a.copy(), rule=Broyden(1.0), seed=seed))
        assert runs == []

    @pytest.mark.parametrize("field, bad", [("a", np.nan), ("b0", np.inf), ("minv2", -np.inf),
                                            ("a", -np.inf), ("b0", np.nan), ("minv2", np.nan)])
    def test_non_finite_input_is_refused_before_a_step(self, field, bad, monkeypatch):
        # a NaN target ran to exhausted with an all-NaN trace, on which
        # check_kernel_growth raised LinAlgError; an infinite B0 or M^-2 ran
        # to exhausted, with NaN errors, through NumPy RuntimeWarnings
        mats = {"a": 2 * np.eye(3), "b0": np.eye(3), "minv2": np.eye(3)}
        mats[field][1, 2] = bad
        runs = []
        monkeypatch.setattr(lab, "_process_stack", lambda *args: runs.append(args))
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            run_process(ProcessConfig(a=mats["a"], b0=mats["b0"],
                                      rule=GeneralizedPSB(minv2=mats["minv2"])))
        assert runs == []

    @pytest.mark.parametrize("theta", ["x", None, np.nan, np.inf])
    def test_theta_must_be_a_finite_real(self, theta):
        # "x" and None raised a UFuncTypeError in the first update; NaN and
        # inf ran to exhausted with NaN errors
        with pytest.raises(ValueError, match="theta"):
            run_process(ProcessConfig(a=np.eye(3), b0=2 * np.eye(3), rule=Broyden(theta)))

    @pytest.mark.parametrize("source", ["user", "Image", "orthogonal", ""])
    def test_unknown_direction_source_rejected(self, source):
        # a typo must not run as the random source
        with pytest.raises(ValueError, match="direction source"):
            run_process(ProcessConfig(a=np.eye(2), b0=2 * np.eye(2), rule=Broyden(1.0),
                                      direction_source=source))

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


# The per-instance process that run_process ran before it ran stacks: 2-D
# NumPy and the solvers' 1-D update rules, one step at a time.  The stacked
# process must give its traces bit for bit.


def ref_run_process(config):
    rule = config.rule
    a = np.asarray(config.a, dtype=float)
    n = a.shape[0]
    B = np.asarray(config.b0, dtype=float).copy()
    w = a if isinstance(rule, Broyden) else getattr(rule, "minv2", None)
    rng = np.random.default_rng(config.seed)
    halt = lab.HALT_RTOL * euclidean_norm(a)
    trace = lab.ProcessTrace(weight=w, target=a)

    def record_state():
        trace.matrices.append(B.copy())
        trace.errors.append(euclidean_norm(B - a))

    record_state()
    ortho_hist = []
    for k in range(n):
        if trace.errors[-1] <= halt:
            trace.status = "terminated"
            return trace
        event = ""
        if config.direction_source == "orthogonalized":
            s0 = np.eye(n)[:, k]
            s = s0.copy()
            for h in ortho_hist:
                wh = h if w is None else w @ h
                s = s - ((s @ wh) / (h @ wh)) * h
            if euclidean_norm(s) <= 1e-12 * euclidean_norm(s0):
                trace.events.append(f"step {k}: dependent direction skipped")
                continue
            ortho_hist.append(s)
        elif config.direction_source == "image":
            s0 = rng.standard_normal(n)
            s = (B - a).T @ s0
            s = s if w is None else np.linalg.solve(w, s)
            if euclidean_norm(s) <= 1e-14 * euclidean_norm(s0):
                event = "degenerate-image"
                s = s0
        else:
            s = rng.standard_normal(n)
        try:
            B = rule.update(B, SecantPair(s, a @ s))
        except ArithmeticError as exc:
            trace.events.append(f"step {k}: breakdown: {exc}")
            trace.status = "breakdown"
            return trace
        trace.steps.append(s)
        if event:
            trace.events.append(f"step {k}: {event}")
        record_state()
    trace.status = "terminated" if trace.errors[-1] <= halt else "exhausted"
    return trace


def assert_same_trace(got, want):
    """Matrices and steps by their bytes, errors by float.hex (and exactly
    Python floats), events and status by equality."""
    assert got.status == want.status
    assert got.events == want.events
    for name in ("matrices", "steps"):
        assert ([x.tobytes() for x in getattr(got, name)]
                == [x.tobytes() for x in getattr(want, name)]), name
    assert all(type(e) is float for e in got.errors)
    assert [float.hex(e) for e in got.errors] == [float.hex(e) for e in want.errors]


PROCESS_RULES = ["bfgs", "broyden-half", "dfp", "psb", "gpsb", "dfp-direct", "bgm"]


def process_instances(kind, seed, per_n=2):
    """Instances of n = 2..10 for one rule kind, ``per_n`` of each n: (rule,
    a, b0).  b0 cycles through I, A plus a rank-one term (image steps end it
    in one step) and a random SPD matrix, so members of one stack halt at
    different steps; gpsb draws an M per instance."""
    rng = np.random.default_rng(seed)
    out = []
    for n in range(2, 11):
        for j in range(per_n):
            a = random_spd_matrix(n, rng)
            v = rng.standard_normal(n)
            b0 = (np.eye(n), a + np.outer(v, v), random_spd_matrix(n, rng))[(n + j) % 3]
            if kind == "gpsb":
                m = random_spd_matrix(n, rng, spectrum=(0.5, 2.0))
                rule = GeneralizedPSB(np.linalg.inv(m @ m))
            else:
                rule = {"bfgs": Broyden(0.0), "broyden-half": Broyden(0.5), "dfp": Broyden(1.0),
                        "psb": GeneralizedPSB(), "dfp-direct": GeneralizedPSB(minv2=a),
                        "bgm": BGM()}[kind]
            out.append((rule, a, b0))
    return out


def run_stack(source, instances, seeds):
    """``lab._process_stack`` on instances of one n and one rule type, with
    each instance's own minv2 stacked when its rule has one."""
    rule = instances[0][0]
    minv2 = getattr(rule, "minv2", None)
    if minv2 is not None:
        minv2 = np.stack([r.minv2 for r, _, _ in instances])
        rule = GeneralizedPSB()
    a = np.stack([a for _, a, _ in instances])
    b0 = np.stack([b0 for _, _, b0 in instances])
    return lab._process_stack(rule, source, a, b0, seeds, minv2)


@pytest.mark.filterwarnings("error")
class TestStackedProcess:
    """The stacked process against the per-instance reference, with every
    warning an error: a slice that leaves the stack must not warn."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("source", ["random", "image", "orthogonalized"])
    @pytest.mark.parametrize("kind", PROCESS_RULES)
    def test_stack_matches_each_instance_alone(self, kind, source, seed):
        instances = process_instances(kind, seed)
        seeds = [seed + 7 * i for i in range(len(instances))]
        configs = [ProcessConfig(a=a, b0=b0, rule=rule, direction_source=source, seed=sd)
                   for (rule, a, b0), sd in zip(instances, seeds)]
        wants = [ref_run_process(c) for c in configs]
        for config, want in zip(configs, wants):
            assert_same_trace(run_process(config), want)
        for n in range(2, 11):
            rows = [i for i, (_, a, _) in enumerate(instances) if a.shape[0] == n]
            got = run_stack(source, [instances[i] for i in rows], [seeds[i] for i in rows])
            for i, trace in zip(rows, got):
                assert_same_trace(trace, wants[i])
        # the stacks hold members that halt at different steps
        lengths = {len(w.steps) for w in wants}
        assert len(lengths) > 1 or source == "orthogonalized"

    def test_members_halt_break_down_and_run_out_at_different_steps(self):
        # n = 2, BFGS, orthogonalized: one member terminates in two steps,
        # one with an indefinite W = A breaks down at step 1 (e2 has s'y =
        # -1) and one at its target halts at once; then DFP with random
        # steps at n = 6, where two members run out of steps beside one that
        # halts at once
        good = spd(2, 20)
        members = [(good, np.eye(2)), (np.diag([1.0, -1.0]), np.eye(2)), (good, good.copy())]
        got = run_stack("orthogonalized", [(Broyden(0.0), a, b0) for a, b0 in members], [0] * 3)
        for trace, (a, b0) in zip(got, members):
            assert_same_trace(trace, ref_run_process(ProcessConfig(
                a=a, b0=b0, rule=Broyden(0.0), direction_source="orthogonalized")))
        assert [t.status for t in got] == ["terminated", "breakdown", "terminated"]
        assert [len(t.steps) for t in got] == [2, 1, 0]
        assert got[1].events == [
            "step 1: breakdown: s'y = -1.000e+00 fails the curvature condition"]
        A = spd(6, 6)
        members = [(A, np.eye(6)), (A, A.copy()), (spd(6, 21), np.eye(6))]
        got = run_stack("random", [(Broyden(1.0), a, b0) for a, b0 in members], [0, 1, 2])
        for trace, (a, b0), sd in zip(got, members, [0, 1, 2]):
            assert_same_trace(trace, ref_run_process(ProcessConfig(
                a=a, b0=b0, rule=Broyden(1.0), direction_source="random", seed=sd)))
        assert [t.status for t in got] == ["exhausted", "terminated", "exhausted"]

    @pytest.mark.parametrize("kind", ["psb", "bgm"])
    def test_degenerate_image_member(self, kind):
        # A = 1e-6 I and B0 = A + 1e-15 I: the error is above the halt
        # (1e-10 ||A||) but W^-1 (B - A)' s0 = 1e-15 s0 is below 1e-14 ||s0||,
        # so that member steps along s0 itself
        rule = {"psb": GeneralizedPSB(), "bgm": BGM()}[kind]
        tiny = 1e-6 * np.eye(3)
        members = [(spd(3, 22), np.eye(3)), (tiny, tiny + 1e-15 * np.eye(3)),
                   (spd(3, 23), spd(3, 24))]
        got = run_stack("image", [(rule, a, b0) for a, b0 in members], [4, 5, 6])
        for trace, (a, b0), sd in zip(got, members, [4, 5, 6]):
            assert_same_trace(trace, ref_run_process(ProcessConfig(
                a=a, b0=b0, rule=rule, direction_source="image", seed=sd)))
        assert "step 0: degenerate-image" in got[1].events
        assert not any("degenerate" in e for t in (got[0], got[2]) for e in t.events)

    @pytest.mark.parametrize("source", ["random", "image", "orthogonalized"])
    @pytest.mark.parametrize("kind", PROCESS_RULES)
    def test_fortran_ordered_inputs_match_the_reference(self, kind, source):
        # the stack of one keeps the caller's strides, which pick the BLAS
        # kernel of each product with A, B0 or M^-2
        for i, (rule, a, b0) in enumerate(process_instances(kind, 1, per_n=1)):
            if getattr(rule, "minv2", None) is not None:
                rule = GeneralizedPSB(np.asfortranarray(rule.minv2))
            config = ProcessConfig(a=np.asfortranarray(a), b0=np.asfortranarray(b0), rule=rule,
                                   direction_source=source, seed=i)
            assert_same_trace(run_process(config), ref_run_process(config))

    @pytest.mark.parametrize("source", ["random", "image", "orthogonalized"])
    def test_fortran_ordered_nonsymmetric_bgm_target(self, source):
        # BGM takes any square A: a Fortran-ordered nonsymmetric A and B0
        # sum their squares column by column, unlike a C-ordered copy
        rng = np.random.default_rng(11)
        for n in range(2, 11):
            a = rng.standard_normal((n, n)) + n * np.eye(n)
            v = rng.standard_normal(n)
            for b0 in (np.eye(n), a + np.outer(v, rng.standard_normal(n)),
                       rng.standard_normal((n, n))):
                config = ProcessConfig(a=np.asfortranarray(a), b0=np.asfortranarray(b0),
                                       rule=BGM(), direction_source=source, seed=n)
                assert_same_trace(run_process(config), ref_run_process(config))

    def test_halt_reads_the_target_norm_in_its_memory_order(self):
        # summed column by column, ||A||_F of a Fortran-ordered nonsymmetric
        # A can exceed the C-order sum in the last bit; an error exactly at
        # the threshold halts at step 0, as the run alone does
        for seed in range(200):
            rng = np.random.default_rng(seed)
            a = np.asfortranarray(rng.standard_normal((4, 4)) + 4 * np.eye(4))
            a[0, 3] = 0.0
            halt = lab.HALT_RTOL * euclidean_norm(a)
            if halt > lab.HALT_RTOL * euclidean_norm(np.ascontiguousarray(a)):
                break
        b0 = a.copy(order="F")
        b0[0, 3] = halt  # B0 - A is zero but for this entry, so its norm is halt
        config = ProcessConfig(a=a, b0=b0, rule=BGM(), direction_source="random", seed=0)
        trace = run_process(config)
        assert trace.status == "terminated"
        assert trace.steps == []
        assert_same_trace(trace, ref_run_process(config))

    @pytest.mark.parametrize("kind", PROCESS_RULES)
    def test_orthogonalized_step_k_keeps_entry_k(self, kind):
        # every earlier step lies in the span of e_0, ..., e_{k-1}, so step k
        # keeps entry k of e_k exactly: no orthogonalized direction can come
        # out dependent, and the process has no skip branch
        for rule, a, b0 in process_instances(kind, 5, per_n=1):
            trace = run_process(ProcessConfig(a=a, b0=b0, rule=rule,
                                              direction_source="orthogonalized"))
            assert [s[k] for k, s in enumerate(trace.steps)] == [1.0] * len(trace.steps)

    def test_suites_run_each_instance_as_alone(self):
        # the process suites' chunk function against run_process one
        # instance at a time, on the draws the one-at-a-time suites made
        def spec(t):
            return (("dfp", GeneralizedPSB(), BGM(), "gpsb", Broyden(0.5))[t % 5],
                    ("random", "image", "orthogonalized")[t % 3])

        stacked = lab._process_trials(np.random.default_rng(3), 4, 45, 3, spec)
        rng = np.random.default_rng(3)
        for t, trace in zip(range(4, 49), stacked):
            n = 2 + t % 9
            rule, source = spec(t)
            a = random_spd_matrix(n, rng)
            if rule == "gpsb":
                m = random_spd_matrix(n, rng, spectrum=(0.5, 2.0))
                rule = GeneralizedPSB(np.linalg.inv(m @ m))
            elif rule == "dfp":
                rule = GeneralizedPSB(minv2=a)
            want = ref_run_process(ProcessConfig(a=a, b0=np.eye(n), rule=rule,
                                                 direction_source=source, seed=3 + t))
            assert_same_trace(trace, want)
            assert trace.target.tobytes() == a.tobytes()


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
            ProcessConfig(a=A, b0=spd(6, 25), rule=Broyden(1.0), direction_source="random")
        )
        report = check_kernel_growth(trace)
        assert report.ok
        assert all(b >= a for a, b in zip(report.dims, report.dims[1:]))

    def test_shrink_is_reported(self):
        # hand-built trace: fake a dimension drop
        A = np.eye(2)
        trace = run_process(
            ProcessConfig(a=A, b0=2 * np.eye(2), rule=Broyden(1.0), direction_source="random")
        )
        trace.matrices = [A + np.diag([0.0, 1.0]), A + np.eye(2)]
        trace.steps = [np.array([1.0, 0.0])]
        report = check_kernel_growth(trace)
        assert not report.ok
        assert "fell" in report.violations[0]

    @pytest.mark.parametrize("family", ["broyden", "dfp", "dfp-direct", "psb", "gpsb", "bgm"])
    @pytest.mark.parametrize("source", ["random", "image", "orthogonalized"])
    def test_kernel_dims_match_the_growth_check(self, family, source):
        n = 5
        A = spd(n, 33)
        trace = run_process(ProcessConfig(
            a=A, b0=np.eye(n), rule=rule_for(family, A, 32), direction_source=source, seed=4,
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

    @pytest.mark.parametrize("family, m", [("gpsb", None), ("gpsb", 2.0 * np.eye(2)),
                                           ("bgm", None)])
    @pytest.mark.parametrize("s", [np.zeros(2), np.full(2, 1e-170)], ids=["zero", "underflow"])
    def test_step_without_norm_refused_at_entry(self, family, m, s):
        # the update and the ratio divide by the norm of s: a ValueError at
        # entry, not a DegenerateUpdateError from inside the update
        a = np.eye(2)
        b = a + np.diag([0.0, 1.0])
        with pytest.raises(ValueError, match="nonzero norm"):
            oracle_error_reduction(family, a, b, m, s)


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

    @pytest.mark.parametrize("family", ["gpsb", "dfp", "bgm"])
    def test_step_whose_norm_underflows_is_degenerate(self, family):
        # E s is representable but ||s||^2 underflows to 0: the base ratio was
        # inf with a RuntimeWarning, a false violation
        a = np.eye(3)
        b = a + 1e12 * np.diag([1.0, 2.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = oracle_image_operator_gain(family, a, b, None, np.full(3, 1e-170))
        assert out == (0.0, 0.0, "degenerate")

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            oracle_image_operator_gain("psb", np.eye(2), 2.0 * np.eye(2), None, np.ones(2))

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


def same_bits(x, y):
    """Equal field by field: floats by float.hex, bools and None by identity."""
    if isinstance(x, tuple):
        return isinstance(y, tuple) and len(x) == len(y) and all(map(same_bits, x, y))
    if isinstance(x, float):
        return isinstance(y, float) and float.hex(x) == float.hex(y)
    if isinstance(x, str):
        return x == y
    return x is y


# The one-trial-at-a-time loops the suites ran before they ran stacks: 2-D
# NumPy on each trial as it is drawn.  The stacked suites must give their
# results bit for bit.


def ref_m_ratio(E, m, v):
    ev = E @ v
    num = euclidean_norm(ev if m is None else m @ ev) ** 2
    den = euclidean_norm(v if m is None else np.linalg.solve(m, v)) ** 2
    return num / den


def ref_e_ratio(E, v):
    return euclidean_norm(E @ v) ** 2 / (v @ v)


def ref_image_gain(family, a, b, m, s, gated):
    if family == "gpsb":
        E = b - a
        m2 = None if m is None else m @ m
        ws = E @ s if m2 is None else m2 @ (E @ s)
        base_ratio = ratio = partial(ref_m_ratio, E, m)
    elif family == "bgm":
        E = b - a
        ws = E.T @ s
        base_ratio, ratio = partial(ref_e_ratio, E.T), partial(ref_e_ratio, E)
    else:
        a_v, ainv_v = partial(np.matmul, a), partial(np.linalg.solve, a)
        dual = family.startswith("bfgs")
        w_v, winv_v = (ainv_v, a_v) if dual else (a_v, ainv_v)
        E = b - (np.linalg.inv(a) if dual else a)
        if gated and family.endswith("ordered"):
            tol = 1e-12 * max(1.0, euclidean_norm(E))
            w = np.linalg.eigvalsh(E)
            if (np.any(np.linalg.eigvalsh(a) <= 0) or np.any(np.linalg.eigvalsh(b) <= 0)
                    or not (np.all(w >= -tol) or np.all(w <= tol))):
                return 0.0, 0.0, "hypothesis not met"
        map_v = partial(np.linalg.solve, b) if family.endswith("ordered") else winv_v
        ws = map_v(E @ s)

        def ratio(v):
            ev = E @ v
            return (ev @ winv_v(ev)) / (v @ w_v(v))

        base_ratio = ratio
    s_norm = euclidean_norm(s)
    if s_norm == 0.0 or euclidean_norm(ws) <= 1e-13 * max(euclidean_norm(E) * s_norm, 1e-300):
        return 0.0, 0.0, "degenerate"
    base, improved = base_ratio(s), ratio(ws)
    return base, improved, bool(improved >= base - lab.SLACK * max(1.0, abs(base)))


def ref_image_trial(family, hunt, rng):
    n = int(rng.integers(2, 9))
    m = None
    if hunt:
        a, b = random_spd_matrix(n, rng), random_spd_matrix(n, rng)
    elif family == "gpsb":
        a, b = lab._rand_sym(rng, n), lab._rand_sym(rng, n)
        m = random_spd_matrix(n, rng, spectrum=(0.5, 2.0))
    elif family in ("dfp", "bfgs"):
        a = random_spd_matrix(n, rng)
        b = lab._rand_sym(rng, n)
    elif family in ("dfp-ordered", "bfgs-ordered"):
        a = random_spd_matrix(n, rng)
        center = a if family == "dfp-ordered" else np.linalg.inv(a)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        pert = q @ np.diag(rng.uniform(0.1, 1.0, n)) @ q.T
        if rng.integers(2):
            b = center + pert
        else:
            b = center - 0.4 * np.linalg.eigvalsh(center)[0] / np.linalg.eigvalsh(pert)[-1] * pert
    else:
        a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    return ref_image_gain(family, a, b, m, rng.standard_normal(n), gated=not hunt)


def ref_w_residual(s, basis, wmat):
    wb = basis if wmat is None else wmat @ basis
    return s - basis @ np.linalg.solve(basis.T @ wb, wb.T @ s)


def ref_w_inner(u, wmat):
    return u @ u if wmat is None else u @ (wmat @ u)


def ref_projection_trial(family, proper, rng):
    """(result, monotonicity gap) of one trial; the gap is None on the
    kernel rows."""
    n = int(rng.integers(3 if proper else 2, 9))
    kd = int(rng.integers(2, n)) if proper else int(rng.integers(1, n))
    m = None
    if family == "gpsb":
        a = lab._rand_sym(rng, n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d = rng.uniform(0.5, 2.0, n - kd) * rng.choice([-1.0, 1.0], n - kd)
        b = a + q[:, kd:] @ np.diag(d) @ q[:, kd:].T
        if rng.integers(3) != 0:
            m = random_spd_matrix(n, rng, spectrum=(0.5, 2.0))
    else:
        a = rng.standard_normal((n, n))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        R = rng.standard_normal((n, n)) + n * np.eye(n)
        b = a + R @ (np.eye(n) - q[:, :kd] @ q[:, :kd].T)
    U = q[:, :kd]
    s = rng.standard_normal(n)
    basis = U[:, : kd - 1] if proper else U
    E = b - a
    wmat = None if m is None else np.linalg.inv(m @ m)
    ratio = partial(ref_m_ratio, E, m) if family == "gpsb" else partial(ref_e_ratio, E)
    gap = None
    if proper:
        sin_g, sin_t = (np.sqrt(max(0.0, ref_w_inner(ref_w_residual(s, C, wmat), wmat)
                                    / ref_w_inner(s, wmat))) for C in (basis, U))
        gap = sin_t - sin_g
    stilde = ref_w_residual(s, basis, wmat)
    base = ratio(s)
    if euclidean_norm(stilde) <= 1e-12 * euclidean_norm(s):
        return (base, 0.0, "degenerate", 0.0), gap
    improved = ratio(stilde)
    sin2 = ref_w_inner(stilde, wmat) / ref_w_inner(s, wmat)
    holds = bool(improved >= base - lab.SLACK * max(1.0, abs(base)))
    return (base, improved, holds, abs(base - sin2 * improved) / max(1.0, abs(base))), gap


def ref_tally(name, trials, seed, trial):
    """The trial loop of one trial at a time: ``trial(rng, t)``, with t the
    number of trials counted so far, returns None (skipped) or (residual,
    violations) until ``trials`` count."""
    rng = np.random.default_rng(seed)
    max_res, violations, skipped, done = 0.0, 0, 0, 0
    while done < trials:
        out = trial(rng, done)
        if out is None:
            skipped += 1
            continue
        max_res = max(max_res, out[0])
        violations += int(out[1])
        done += 1
    return SuiteRow(name, trials, violations, max_res, skipped)


IMAGE_ROWS = [("gpsb", False), ("dfp", False), ("dfp-ordered", False), ("bfgs", False),
              ("bfgs-ordered", False), ("bgm", False), ("dfp-ordered", True),
              ("bfgs-ordered", True)]


class TestStackedTrials:
    """The suites evaluate image-gain and projection-gain trials as stacks;
    each trial must come out as it does alone, through a stack of one."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("family, hunt", IMAGE_ROWS,
                             ids=[f + "-unconstrained" * h for f, h in IMAGE_ROWS])
    def test_image_gain_stack_matches_each_trial_alone(self, family, hunt, seed):
        trials = partial(lab._image_gain_trials, hunt=hunt)
        stacked = trials(family, np.random.default_rng(seed), 60)
        rng = np.random.default_rng(seed)
        alone = [trials(family, rng, 1)[0] for _ in range(60)]
        rng = np.random.default_rng(seed)
        loop = [ref_image_trial(family, hunt, rng) for _ in range(60)]
        assert all(map(same_bits, stacked, alone))
        assert all(map(same_bits, stacked, loop))
        assert all(type(r[2]) in (bool, str) for r in stacked)

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("family", ["gpsb", "bgm"])
    @pytest.mark.parametrize("proper", [False, True], ids=["kernel", "subspace"])
    def test_projection_gain_stack_matches_each_trial_alone(self, family, proper, seed):
        stacked = lab._projection_gain_trials(family, proper, np.random.default_rng(seed), 60)
        rng = np.random.default_rng(seed)
        alone = [lab._projection_gain_trials(family, proper, rng, 1)[0] for _ in range(60)]
        rng = np.random.default_rng(seed)
        loop = [ref_projection_trial(family, proper, rng) for _ in range(60)]
        # (result, gap) pairs: the gap is a NumPy float, None on kernel rows
        assert all(map(same_bits, stacked, alone))
        assert all(map(same_bits, stacked, loop))
        assert all(type(r[0][2]) in (bool, str) for r in stacked)

    def test_image_stack_drops_gated_out_and_degenerate_trials(self):
        # one stack of dfp-ordered trials: ordered, a singular B that fails
        # the hypothesis, and a step in ker(B - A); each as the oracle alone
        a = np.stack([2.0 * np.eye(3)] * 3)
        b = a + np.stack([np.diag([1.0, 2.0, 3.0]), np.diag([-2.0, 1.0, 1.0]),
                          np.diag([0.0, 1.0, 2.0])])
        s = np.stack([np.ones(3), np.ones(3), np.array([1.0, 0.0, 0.0])])
        out = lab._image_gain_stack("dfp-ordered", a, b, None, s)
        assert [r[2] for r in out] == [True, "hypothesis not met", "degenerate"]
        for i in range(3):
            assert same_bits(out[i], oracle_image_operator_gain("dfp-ordered", a[i], b[i], None, s[i]))

    def test_degenerate_trial_never_reaches_a_singular_weight(self):
        # the lone oracle returns "degenerate" before it solves with M; in a
        # stack, the live trial beside it must not make it solve either
        a = np.stack([np.eye(2)] * 2)
        b = a + np.diag([0.0, 1.0])
        m = np.stack([np.eye(2), np.diag([1.0, 0.0])])
        s = np.stack([np.ones(2), np.array([1.0, 0.0])])
        out = lab._image_gain_stack("gpsb", a, b, m, s)
        assert out[1] == (0.0, 0.0, "degenerate")
        assert same_bits(out[0], oracle_image_operator_gain("gpsb", a[0], b[0], m[0], s[0]))
        assert oracle_image_operator_gain("gpsb", a[1], b[1], m[1], s[1]) == out[1]


    @pytest.mark.parametrize("numbered", [False, True], ids=["skips", "reads-its-number"])
    def test_tally_makes_the_draws_and_row_of_one_trial_at_a_time(self, numbered):
        def one_trial():
            draws = []

            def skips(rng, t):
                draws.append(rng.random())
                # every third draw is skipped
                return None if len(draws) % 3 == 0 else (draws[-1], draws[-1] > 0.5)

            def reads_its_number(rng, t):
                # never skipped, as _tally asks of a trial that reads t
                draws.append((t, rng.random()))
                return draws[-1][1] * (t % 3), t % 4 == 0

            return (reads_its_number if numbered else skips), draws

        trial, draws = one_trial()
        row = ref_tally("synthetic", 10, 7, trial)
        trial, tally_draws = one_trial()
        tally_row = lab._tally("synthetic", 10, 7, lab._trial_by_trial(trial))
        assert len(draws) == (10 if numbered else 14) and row.skipped == (0 if numbered else 4)
        assert tally_draws == draws and tally_row == row


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

    @pytest.mark.parametrize("family, m", [("gpsb", None), ("gpsb", 2.0 * np.eye(2)),
                                           ("bgm", None)])
    @pytest.mark.parametrize("s", [np.zeros(2), np.full(2, 1e-170)], ids=["zero", "underflow"])
    def test_step_without_norm_refused_at_entry(self, family, m, s):
        # both gain ratios divide by the norm of s; 0/0 is refused, not a NaN
        a = np.eye(2)
        b = a + np.diag([0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="nonzero norm"):
                oracle_projection_gain(family, a, b, m, np.array([[1.0], [0.0]]), s)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            oracle_projection_gain("dfp", np.eye(2), 2.0 * np.eye(2), None,
                                   np.array([[1.0], [0.0]]), np.ones(2))

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


class TestNonFiniteOracleInput:
    # a NaN or inf entry gave NaN ratios and holds False, a false violation
    # of the theorem; it is refused before the update or the kernel runs
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("oracle, field", [
        (oracle, field) for oracle in (oracle_error_reduction, oracle_image_operator_gain)
        for field in ("a", "b", "m", "s")
    ] + [(oracle_projection_gain, field) for field in ("a", "b", "m", "subspace_basis", "s")])
    def test_refused_before_any_arithmetic(self, oracle, field, bad, monkeypatch):
        def never(*args):
            raise AssertionError("the oracle ran on non-finite input")

        for name in ("gpsb_update", "_image_gain_stack", "_projection_gain_stack"):
            monkeypatch.setattr(lab, name, never)
        args = {"a": np.eye(2), "b": np.diag([1.0, 2.0]), "m": 2.0 * np.eye(2),
                "subspace_basis": np.array([[1.0], [0.0]]), "s": np.ones(2)}
        if oracle is not oracle_projection_gain:
            del args["subspace_basis"]
        args[field].flat[-1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                oracle("gpsb", *args.values())


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
        with pytest.raises(ValueError, match="no-such-lemma"):
            oracle_lemmas("no-such-lemma", trials=1)

    @pytest.mark.parametrize("kw, match", [
        ({"trials": 0}, "trials"), ({"trials": -3}, "trials"), ({"trials": 2.5}, "trials"),
        ({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"),
    ], ids=["trials-zero", "trials-negative", "trials-float", "seed-negative", "seed-float"])
    def test_bad_counts_are_refused(self, kw, match):
        with pytest.raises(ValueError, match=match):
            oracle_lemmas("image-ratio", **kw)

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
        assert submitted[:5] == ["_suite_image_gain", "_suite_termination", "_lemma_suite",
                                 "_lemma_suite", "_suite_projection_gain"]
        assert len(submitted) == len(lab._LONGEST_FIRST)
        assert rows == verify_all(seed=0, trials=5, workers=1)

    @pytest.mark.parametrize("kw, match", [
        ({"workers": 0}, "workers"), ({"workers": -1}, "workers"),
        ({"workers": 2.5}, "workers"), ({"trials": 0}, "trials"),
        ({"trials": -3}, "trials"), ({"trials": 2.5}, "trials"), ({"seed": -1}, "seed"),
    ], ids=["workers-zero", "workers-negative", "workers-float", "trials-zero",
            "trials-negative", "trials-float", "seed-negative"])
    def test_bad_input_is_refused_before_a_suite_runs(self, kw, match, monkeypatch):
        def refuse(task):
            raise AssertionError(f"verify_all ran {task[0].__name__} before its checks")

        monkeypatch.setattr(lab, "_run_suite", refuse)
        with pytest.raises(ValueError, match=match):
            verify_all(**{"seed": 0, "trials": 5, "workers": 1, **kw})

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
