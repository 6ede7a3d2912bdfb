"""Tests for the two-grid sweeps and trace machinery."""
import numpy as np
import pytest

from twogrid.errors import DivergenceError, InconsistentSystemError, ShapeError
from twogrid.analysis import exact_factor, general_epsilon_bound, inexact_linear_analysis
from twogrid.linalg import spsd_certify
from twogrid.model import (
    CustomSmoother,
    GaussSeidel,
    NeumannLaplacian1D,
    TwoGridHierarchy,
    WeightedJacobi,
    build_hierarchy,
    generate_problem,
)
from twogrid.solver import (
    ExactCoarse,
    GeneralCoarse,
    IterationTrace,
    LinearSpsdCoarse,
    a_seminorm,
    check_consistent,
    eps_perturbed_coarse,
    itg_sweep,
    iterate,
    stg_sweep,
    tg_sweep,
    trace_summary,
    write_trace_csv,
    write_trace_summary,
)


@pytest.fixture(scope="module")
def setup8():
    a, p, f, u_ref = generate_problem(NeumannLaplacian1D(8), group=2, seed=0)
    h = build_hierarchy(a, p, WeightedJacobi(2.0 / 3.0))
    return h, f, u_ref


class TestSweeps:
    def test_fixed_point(self, setup8):
        h, f, u_ref = setup8
        for sweep in (tg_sweep, stg_sweep):
            u1 = sweep(h, u_ref, f)
            assert a_seminorm(h.A.matrix, u1 - u_ref) <= 1e-12

    def test_null_space_shift_is_preserved(self, setup8):
        h, f, u_ref = setup8
        rng = np.random.default_rng(2)
        u0 = rng.standard_normal(8)
        z = h.A.null_basis[:, 0]
        diff = tg_sweep(h, u0 + z, f) - tg_sweep(h, u0, f)
        assert np.max(np.abs(diff - z)) <= 1e-12

    def test_single_sweep_contraction_bound(self, setup8):
        h, f, u_ref = setup8
        factor = exact_factor(h).factor_identity
        worst = 0.0
        for seed in range(100):
            u0 = np.random.default_rng(seed + 1000).standard_normal(8)
            u1 = tg_sweep(h, u0, f)
            ratio = (a_seminorm(h.A.matrix, u_ref - u1)
                     / a_seminorm(h.A.matrix, u_ref - u0))
            worst = max(worst, ratio)
        assert worst <= factor + 1e-8

    def test_worst_direction_attains_factor(self, setup8):
        h, f, u_ref = setup8
        factor = exact_factor(h).factor_identity
        g = (np.eye(8) - h.Pi) @ (np.eye(8) - h.A.sqrt @ h.M @ h.A.sqrt)
        _, _, vt = np.linalg.svd(g @ h.A.range_basis)
        e0 = h.A.pinv_sqrt @ (h.A.range_basis @ vt[0])
        u0 = u_ref - e0
        u1 = tg_sweep(h, u0, f)
        ratio = (a_seminorm(h.A.matrix, u_ref - u1)
                 / a_seminorm(h.A.matrix, u_ref - u0))
        assert ratio == pytest.approx(factor, abs=1e-10)

    def test_exact_coarse_spec_is_bitwise_tg(self, setup8):
        h, f, _ = setup8
        u0 = np.random.default_rng(5).standard_normal(8)
        assert np.array_equal(tg_sweep(h, u0, f),
                              itg_sweep(h, u0, f, ExactCoarse()))

    def test_linear_coarse_with_galerkin_matrix_matches(self, setup8):
        h, f, _ = setup8
        u0 = np.random.default_rng(6).standard_normal(8)
        bc = spsd_certify(h.Ac.matrix, h.policy)
        diff = tg_sweep(h, u0, f) - itg_sweep(h, u0, f, LinearSpsdCoarse(bc))
        assert np.max(np.abs(diff)) <= h.policy.match_tol

    def test_inconsistent_rhs_rejected(self, setup8):
        h, f, _ = setup8
        bad = f + h.A.null_basis[:, 0]
        with pytest.raises(InconsistentSystemError, match="null-space"):
            tg_sweep(h, np.zeros(8), bad)
        check_consistent(h, f)  # the generated rhs passes

    def test_stg_contraction_is_squared(self, setup8):
        h, f, u_ref = setup8
        factor = exact_factor(h).factor_identity
        worst = 0.0
        for seed in range(50):
            u0 = np.random.default_rng(seed + 300).standard_normal(8)
            u1 = stg_sweep(h, u0, f)
            ratio = (a_seminorm(h.A.matrix, u_ref - u1)
                     / a_seminorm(h.A.matrix, u_ref - u0))
            worst = max(worst, ratio)
        assert worst <= factor ** 2 + 1e-8

    def test_general_coarse_wrong_size_rejected(self, setup8):
        h, f, _ = setup8
        bad = GeneralCoarse(lambda rc: np.zeros(h.nc + 1))
        with pytest.raises(ShapeError, match="length"):
            itg_sweep(h, np.zeros(8), f, bad)

    def test_general_coarse_declared_eps_domain(self):
        with pytest.raises(ValueError):
            GeneralCoarse(lambda rc: rc, declared_eps=1.0)

    def test_restricted_residual_in_coarse_range(self, setup8):
        h, f, _ = setup8
        rng = np.random.default_rng(9)
        for _ in range(10):
            u0 = rng.standard_normal(8)
            u1 = u0 + h.M @ (f - h.A.matrix @ u0)
            rc = h.P.T @ (f - h.A.matrix @ u1)
            null_c = h.Ac.null_basis
            if null_c.shape[1]:
                assert np.max(np.abs(null_c.T @ rc)) <= 1e-10 * max(
                    1.0, np.linalg.norm(rc))

    def test_perturbation_equality(self, setup8):
        h, f, _ = setup8
        u0 = np.random.default_rng(12).standard_normal(8)
        bc = spsd_certify(2.0 * h.Ac.matrix, h.policy)
        u1 = u0 + h.M @ (f - h.A.matrix @ u0)
        rc = h.P.T @ (f - h.A.matrix @ u1)
        ec = h.Ac.pinv @ rc
        ec_hat = bc.pinv @ rc
        u_tg = tg_sweep(h, u0, f)
        u_itg = itg_sweep(h, u0, f, LinearSpsdCoarse(bc))
        lhs = a_seminorm(h.A.matrix, u_tg - u_itg)
        rhs = a_seminorm(h.Ac.matrix, ec - ec_hat)
        assert abs(lhs - rhs) <= h.policy.match_tol

    def test_enforced_eps_respects_bound(self, setup8):
        h, f, u_ref = setup8
        for eps in (0.1, 0.5, 0.9):
            bound = general_epsilon_bound(h, eps)
            for seed in range(30):
                rng = np.random.default_rng(seed + 500)
                coarse = GeneralCoarse(eps_perturbed_coarse(h, eps, rng), eps)
                u0 = rng.standard_normal(8)
                u1 = itg_sweep(h, u0, f, coarse)
                ratio = (a_seminorm(h.A.matrix, u_ref - u1)
                         / a_seminorm(h.A.matrix, u_ref - u0))
                assert ratio <= bound + 1e-9
                assert coarse.achieved_eps[-1] == pytest.approx(eps, abs=1e-9)

    def test_linear_itg_single_sweep_bound(self, setup8):
        h, f, u_ref = setup8
        bc = spsd_certify(2.0 * h.Ac.matrix, h.policy)
        factor_itg = inexact_linear_analysis(h, bc).factor_exact_itg
        worst = 0.0
        for seed in range(100):
            u0 = np.random.default_rng(seed + 700).standard_normal(8)
            u1 = itg_sweep(h, u0, f, LinearSpsdCoarse(bc))
            worst = max(worst, a_seminorm(h.A.matrix, u_ref - u1)
                        / a_seminorm(h.A.matrix, u_ref - u0))
        assert worst <= factor_itg + 1e-8


class TestIterate:
    def test_zero_sweeps_rejected(self, setup8):
        h, f, u_ref = setup8
        with pytest.raises(ValueError):
            iterate(h, f, np.zeros(8), 0)

    def test_trace_lengths_and_ratios(self, setup8):
        h, f, u_ref = setup8
        u0 = np.random.default_rng(3).standard_normal(8)
        trace = iterate(h, f, u0, 10, "tg", u_ref=u_ref)
        assert len(trace.errors_A) == 11
        assert len(trace.residuals) == 11
        assert len(trace.ratios) == 10
        for k, ratio in enumerate(trace.ratios):
            if ratio == ratio:  # not NaN
                assert ratio == pytest.approx(
                    trace.errors_A[k + 1] / trace.errors_A[k], rel=1e-9)

    def test_observed_factor_caps_at_worst_case(self, setup8):
        h, f, u_ref = setup8
        factor = exact_factor(h).factor_identity
        u0 = np.random.default_rng(4).standard_normal(8)
        trace = iterate(h, f, u0, 30, "tg", u_ref=u_ref)
        assert trace.observed_factor is not None
        assert trace.observed_factor <= factor + 1e-8
        assert not trace.stagnated

    def test_stg_observed_matches_squared_factor(self, setup8):
        # the symmetrized sweep has a self-adjoint propagator on the range,
        # so its asymptotic rate equals its worst-case factor, which is the
        # square of the one-sided worst-case factor
        h, f, u_ref = setup8
        factor = exact_factor(h).factor_identity
        u0 = np.random.default_rng(8).standard_normal(8)
        stg = iterate(h, f, u0, 12, "stg", u_ref=u_ref)
        assert stg.observed_factor == pytest.approx(factor ** 2, rel=5e-2)

    def test_zero_smoother_stagnates(self):
        a, p, f, u_ref = generate_problem(NeumannLaplacian1D(8), group=2, seed=1)
        h = build_hierarchy(a, p, CustomSmoother(np.zeros((8, 8))))
        u0 = np.random.default_rng(7).standard_normal(8)
        trace = iterate(h, f, u0, 15, "tg", u_ref=u_ref)
        assert trace.observed_factor >= 1.0 - h.policy.match_tol
        assert trace.stagnated

    @staticmethod
    def expansive_setup():
        # Jacobi weight 1.8, well above the stability limit, assembled
        # directly; the builder would reject it
        a, p, f, u_ref = generate_problem(NeumannLaplacian1D(8), group=2, seed=2)
        m = 1.8 * np.diag(1.0 / np.diag(a.matrix))
        h = TwoGridHierarchy(A=a, M=m, P=p, Ac=spsd_certify(p.T @ a.matrix @ p, a.policy))
        u0 = np.random.default_rng(11).standard_normal(8)
        return h, f, u0, u_ref

    def test_divergence_detected(self):
        h, f, u0, u_ref = self.expansive_setup()
        with pytest.raises(DivergenceError, match="diverging"):
            iterate(h, f, u0, 40, "tg", u_ref=u_ref)

    def test_divergence_carries_partial_trace(self):
        h, f, u0, u_ref = self.expansive_setup()
        with pytest.raises(DivergenceError) as info:
            iterate(h, f, u0, 40, "tg", u_ref=u_ref)
        trace = info.value.trace
        assert isinstance(trace, IterationTrace)
        assert trace.variant == "tg"
        assert 5 <= trace.sweeps < 40
        assert f"(sweep {trace.sweeps})" in str(info.value)
        assert len(trace.residuals) == trace.sweeps + 1
        assert len(trace.errors_A) == trace.sweeps + 1
        assert trace.errors_A[-1] > 10.0 * trace.errors_A[-6]

    def test_without_reference_residuals_only(self, setup8):
        h, f, _ = setup8
        u0 = np.random.default_rng(13).standard_normal(8)
        trace = iterate(h, f, u0, 5, "tg")
        assert trace.errors_A is None
        assert trace.ratios is None
        assert trace.observed_factor is None
        assert len(trace.residuals) == 6

    def test_itg_variant_needs_coarse(self, setup8):
        h, f, _ = setup8
        with pytest.raises(ValueError, match="coarse"):
            iterate(h, f, np.zeros(8), 3, "itg")

    def test_general_coarse_violation_recorded(self, setup8):
        h, f, u_ref = setup8
        rng = np.random.default_rng(14)
        coarse = GeneralCoarse(eps_perturbed_coarse(h, 0.5, rng), 0.5)
        # sabotage one call far beyond the declared accuracy
        original = coarse.solve
        calls = {"k": 0}

        def sabotaged(rc):
            calls["k"] += 1
            if calls["k"] == 2:
                return 50.0 * original(rc)
            return original(rc)

        coarse.solve = sabotaged
        trace = iterate(h, f, rng.standard_normal(8), 4, "itg", coarse=coarse,
                        u_ref=u_ref)
        assert len(trace.achieved_eps) == 4
        assert len(trace.violations) == 1
        assert trace.violations[0] >= 1.0

    def test_zero_rhs_drives_iterate_into_null_space(self, setup8):
        h, _, _ = setup8
        f = np.zeros(8)
        u_ref = h.A.null_basis[:, 0]  # any null vector solves A u = 0
        u0 = np.random.default_rng(21).standard_normal(8)
        trace = iterate(h, f, u0, 40, "tg", u_ref=u_ref)
        assert trace.errors_A[-1] <= 1e-10
        assert trace.final_residual_rel <= 1e-10

    def test_converged_iterate_satisfies_system(self, setup8):
        h, f, u_ref = setup8
        u0 = np.random.default_rng(15).standard_normal(8)
        trace = iterate(h, f, u0, 80, "tg", u_ref=u_ref)
        assert trace.errors_A[-1] <= trace.floor
        assert trace.final_residual_rel <= h.policy.match_tol


class TestTraceOutput:
    def test_csv_and_summary(self, tmp_path, setup8):
        h, f, u_ref = setup8
        u0 = np.random.default_rng(16).standard_normal(8)
        trace = iterate(h, f, u0, 6, "tg", u_ref=u_ref)
        csv_path = tmp_path / "trace.csv"
        summary_path = tmp_path / "summary.json"
        write_trace_csv(trace, csv_path)
        write_trace_summary(trace, summary_path, meta={"seed": 16})
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "sweep,error_A,residual_2,ratio"
        assert len(lines) == 8
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == ""
        text = summary_path.read_text()
        assert '"observed_factor"' in text
        assert '"seed": 16' in text

    def test_summary_dict(self, setup8):
        h, f, u_ref = setup8
        trace = iterate(h, f, np.zeros(8), 3, "tg", u_ref=u_ref)
        summary = trace_summary(trace)
        assert summary["sweeps"] == 3
        assert summary["variant"] == "tg"
