"""Tests for the two-grid sweeps and trace machinery."""
import numpy as np
import pytest
from scipy.linalg import solve_triangular

from twogrid import solver
from twogrid.errors import DivergenceError, InconsistentSystemError, ShapeError
from twogrid.analysis import exact_factor, general_epsilon_bound, inexact_linear_analysis
from twogrid.linalg import EPS, SPARSE_MIN_ENTRIES, spsd_certify, sym_part
from twogrid.model import (
    CustomSmoother,
    GaussSeidel,
    LowerBandSolve,
    NeumannLaplacian1D,
    NeumannLaplacian2D,
    RandomSpsd,
    TwoGridHierarchy,
    WeightedJacobi,
    build_hierarchy,
    build_smoother,
    generate_problem,
)
from twogrid.solver import (
    GeneralCoarse,
    IterationTrace,
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
        # the propagator E = (I - P Ac^+ P^T A)(I - M A) on range(A), in A's
        # energy-scaled eigenbasis; its top right singular vector, mapped
        # back through Lambda_r^{-1/2}, is the error that E shrinks least
        lam, v = h.A.eig.values[h.n - h.r:], h.A.eig.vectors[:, h.n - h.r:]
        eye = np.eye(h.n)
        e = (eye - h.P @ h.Ac.pinv @ h.P.T @ h.A.matrix) @ (eye - h.M @ h.A.matrix)
        _, _, vt = np.linalg.svd(np.sqrt(lam)[:, None] * (v.T @ e @ v) / np.sqrt(lam))
        e0 = v @ (vt[0] / np.sqrt(lam))
        u0 = u_ref - e0
        u1 = tg_sweep(h, u0, f)
        ratio = (a_seminorm(h.A.matrix, u_ref - u1)
                 / a_seminorm(h.A.matrix, u_ref - u0))
        assert ratio == pytest.approx(factor, abs=1e-10)

    def test_exact_coarse_spec_is_bitwise_tg(self, setup8):
        h, f, _ = setup8
        u0 = np.random.default_rng(5).standard_normal(8)
        assert np.array_equal(tg_sweep(h, u0, f),
                              itg_sweep(h, u0, f, h.Ac))

    def test_linear_coarse_with_galerkin_matrix_matches(self, setup8):
        h, f, _ = setup8
        u0 = np.random.default_rng(6).standard_normal(8)
        bc = spsd_certify(h.Ac.matrix, h.policy)
        diff = tg_sweep(h, u0, f) - itg_sweep(h, u0, f, bc)
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
        u_itg = itg_sweep(h, u0, f, bc)
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
            u1 = itg_sweep(h, u0, f, bc)
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

    @pytest.fixture
    def sweep_calls(self, monkeypatch):
        calls = []
        sweep = solver._sweep

        def counted(*args, **kwargs):
            calls.append(args)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(solver, "_sweep", counted)
        return calls

    @staticmethod
    def run_itg(call, h, f, coarse):
        if call == "iterate":
            return iterate(h, f, np.zeros(8), 3, "itg", coarse=coarse)
        return itg_sweep(h, np.zeros(8), f, coarse)

    @pytest.mark.parametrize("call", ["iterate", "itg_sweep"])
    def test_wrong_size_coarse_matrix_rejected_before_any_sweep(
            self, setup8, sweep_calls, call):
        h, f, _ = setup8
        bad = spsd_certify(np.eye(h.nc + 1), h.policy)
        with pytest.raises(ShapeError) as info:
            self.run_itg(call, h, f, bad)
        assert str(info.value) == (f"coarse matrix is {h.nc + 1} x {h.nc + 1}, "
                                   f"expected {h.nc} x {h.nc}")
        assert sweep_calls == []

    @pytest.mark.parametrize("call", ["iterate", "itg_sweep"])
    def test_unknown_coarse_object_rejected_before_any_sweep(
            self, setup8, sweep_calls, call):
        h, f, _ = setup8
        with pytest.raises(TypeError, match="GeneralCoarse, got ndarray"):
            self.run_itg(call, h, f, 2.0 * h.Ac.matrix)
        assert sweep_calls == []

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

    def test_violation_is_accuracy_above_declared_eps(self, setup8):
        # accuracy 0.7 is no blow-up, but the eps = 0.5 bound does not cover it
        h, f, u_ref = setup8
        rng = np.random.default_rng(14)
        coarse = GeneralCoarse(eps_perturbed_coarse(h, 0.7, rng), 0.5)
        trace = iterate(h, f, rng.standard_normal(8), 4, "itg", coarse=coarse,
                        u_ref=u_ref)
        assert trace.violations == trace.achieved_eps
        assert all(e == pytest.approx(0.7, abs=1e-12) for e in trace.violations)

    def test_reused_coarse_reports_only_its_own_run(self, setup8):
        # the solver's list keeps every run's accuracies; a trace reads its own
        h, f, u_ref = setup8
        rng = np.random.default_rng(15)
        coarse = GeneralCoarse(eps_perturbed_coarse(h, 0.7, rng), 0.5)
        first = iterate(h, f, rng.standard_normal(8), 3, "itg", coarse=coarse,
                        u_ref=u_ref)
        coarse.solve = eps_perturbed_coarse(h, 0.2, rng)
        second = iterate(h, f, rng.standard_normal(8), 4, "itg", coarse=coarse,
                         u_ref=u_ref)
        assert len(first.violations) == 3
        assert len(second.achieved_eps) == 4
        assert all(e == pytest.approx(0.2, abs=1e-12) for e in second.achieved_eps)
        assert second.violations == []
        assert coarse.achieved_eps == first.achieved_eps + second.achieved_eps

    @pytest.mark.parametrize("variant", ["tg", "stg", "itg"])
    def test_consistency_checked_once_per_run(self, setup8, monkeypatch, variant):
        h, f, u_ref = setup8
        calls = []
        monkeypatch.setattr(solver, "check_consistent",
                            lambda *args: calls.append(args))
        coarse = h.Ac if variant == "itg" else None
        iterate(h, f, np.zeros(8), 7, variant, coarse=coarse, u_ref=u_ref)
        assert len(calls) == 1

    @pytest.mark.parametrize("problem", [NeumannLaplacian1D(16), NeumannLaplacian2D(16, 16)],
                             ids=["neumann1d:16", "neumann2d:16x16-csr"])
    @pytest.mark.parametrize("variant", ["tg", "stg", "itg-linear", "itg-eps"])
    def test_trace_equals_public_sweeps_bit_for_bit(self, variant, problem):
        a, p, f, u_ref = generate_problem(problem, group=2, seed=4)
        h = build_hierarchy(a, p, GaussSeidel())
        a_sweep = h.sweep_operators[0]
        # one coarse solver for iterate, an identical one for the loop
        if variant == "itg-eps":
            coarse = [GeneralCoarse(eps_perturbed_coarse(
                h, 0.3, np.random.default_rng(5)), 0.3) for _ in range(2)]
        elif variant == "itg-linear":
            coarse = [spsd_certify(2.0 * h.Ac.matrix, h.policy)] * 2
        else:
            coarse = [None, None]

        def sweep(u):
            if variant == "tg":
                return tg_sweep(h, u, f)
            if variant == "stg":
                return stg_sweep(h, u, f)
            return itg_sweep(h, u, f, coarse[1])

        def error(u):
            d = u_ref - u
            d -= h.A.null_basis @ (h.A.null_basis.T @ d)
            return a_seminorm(a_sweep, d)

        u = np.random.default_rng(6).standard_normal(h.n)
        trace = iterate(h, f, u, 12, variant[:3], coarse=coarse[0], u_ref=u_ref)
        errors, residuals = [error(u)], [float(np.linalg.norm(f - a_sweep @ u))]
        for _ in range(12):
            u = sweep(u)
            errors.append(error(u))
            residuals.append(float(np.linalg.norm(f - a_sweep @ u)))
        assert trace.errors_A == errors
        assert trace.residuals == residuals

    @staticmethod
    def coarse_pair(h, variant):
        """(coarse solve the sweep under test takes, None for exact; the same
        solve as rc -> correction for a dense reference sweep)."""
        if variant == "itg-eps":
            coarse = [GeneralCoarse(eps_perturbed_coarse(
                h, 0.3, np.random.default_rng(5)), 0.3) for _ in range(2)]
            return coarse[0], coarse[1].solve
        if variant == "itg-linear":
            bc = spsd_certify(2.0 * h.Ac.matrix, h.policy)
            return bc, lambda rc: bc.pinv @ rc
        return None, lambda rc: h.Ac.pinv @ rc

    @pytest.mark.parametrize("problem,group,smoother", [
        (NeumannLaplacian2D(16, 16), 2, WeightedJacobi(2.0 / 3.0)),
        (NeumannLaplacian2D(32, 32), 4, GaussSeidel()),
    ], ids=["neumann2d:16x16-jacobi-csr", "neumann2d:32x32-gs-band"])
    @pytest.mark.parametrize("variant", ["tg", "stg", "itg-linear", "itg-eps"])
    def test_sparse_operators_match_dense_sweeps(self, variant, problem, group,
                                                 smoother):
        # A, P and P^T are applied in CSR, M and M^T in CSR (Jacobi) or as
        # band solves on tril(A) (Gauss-Seidel); the trace must match dense
        # sweeps up to rounding
        a, p, f, u_ref = generate_problem(problem, group=group, seed=4)
        h = build_hierarchy(a, p, smoother)
        assert not any(isinstance(op, np.ndarray) for op in h.sweep_operators)
        coarse, coarse_solve = self.coarse_pair(h, variant)

        def error(u):
            sqrt_lam = np.sqrt(h.A.eig.values[h.n - h.r:])
            return float(np.linalg.norm(sqrt_lam * (h.A.range_basis.T @ (u_ref - u))))

        u = np.random.default_rng(6).standard_normal(h.n)
        sweeps = 10
        trace = iterate(h, f, u, sweeps, variant[:3], coarse=coarse, u_ref=u_ref)
        errors, residuals = [error(u)], [float(np.linalg.norm(f - h.A.matrix @ u))]
        # the dense M, not the band solve the sweep applies
        m = (solve_triangular(np.tril(h.A.matrix), np.eye(h.n), lower=True)
             if isinstance(smoother, GaussSeidel) else h.M)
        for _ in range(sweeps):
            u = u + m @ (f - h.A.matrix @ u)
            u = u + h.P @ coarse_solve(h.P.T @ (f - h.A.matrix @ u))
            if variant == "stg":
                u = u + m.T @ (f - h.A.matrix @ u)
            errors.append(error(u))
            residuals.append(float(np.linalg.norm(f - h.A.matrix @ u)))
        assert errors[-1] < 1e-2 * errors[0]
        for mine, dense in ((trace.errors_A, errors), (trace.residuals, residuals)):
            gaps = np.abs(np.subtract(mine, dense)) / np.abs(dense)
            assert np.max(gaps) <= 1e-12, gaps

    @pytest.mark.parametrize("problem", [NeumannLaplacian1D(32), RandomSpsd(20, 13, 4)],
                             ids=["neumann1d:32", "random:20:13:4"])
    @pytest.mark.parametrize("variant", ["tg", "stg", "itg-linear", "itg-eps"])
    def test_small_band_solve_sweeps_match_dense_gauss_seidel(self, variant, problem):
        # below 2^14 entries A and P stay dense, but M and M^T are still band
        # solves on tril(A). Each sweep's iterate must match dense
        # Gauss-Seidel up to rounding. The iterates, not the traced errors,
        # are compared: here the error falls by up to 5e-6 in 10 sweeps, so
        # late errors carry about 1e-11 relative rounding on either route.
        a, p, f, _ = generate_problem(problem, group=2, seed=4)
        h = build_hierarchy(a, p, GaussSeidel())
        assert h.A.matrix.size < SPARSE_MIN_ENTRIES
        assert [type(op) for op in h.sweep_operators[1:3]] == [LowerBandSolve] * 2
        coarse, coarse_solve = self.coarse_pair(h, variant)
        m = solve_triangular(np.tril(h.A.matrix), np.eye(h.n), lower=True)
        band = dense = np.random.default_rng(6).standard_normal(h.n)
        for _ in range(10):
            band = (stg_sweep(h, band, f) if variant == "stg"
                    else itg_sweep(h, band, f, coarse or h.Ac))
            dense = dense + m @ (f - h.A.matrix @ dense)
            dense = dense + h.P @ coarse_solve(h.P.T @ (f - h.A.matrix @ dense))
            if variant == "stg":
                dense = dense + m.T @ (f - h.A.matrix @ dense)
            assert np.linalg.norm(band - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("problem,group,smoother", [
        (NeumannLaplacian2D(32, 32), 4, GaussSeidel()),
        (NeumannLaplacian1D(400), 2, WeightedJacobi(2.0 / 3.0)),
        (NeumannLaplacian2D(24, 24), 2, WeightedJacobi(2.0 / 3.0)),
    ], ids=["neumann2d:32x32-gs", "neumann1d:400-jacobi", "neumann2d:24x24-jacobi"])
    def test_energy_error_against_extended_precision_referee(self, problem, group,
                                                             smoother):
        # ||d||_A of a graph Laplacian is the edge sum of w_ij (d_i - d_j)^2,
        # summed here in long double. Until it falls below 1e-12 of its
        # start, the traced error may miss it by 8 EPS sqrt(lambda_max) ||d||
        a, p, _, _ = generate_problem(problem, group=group, seed=0)
        h = build_hierarchy(a, p, smoother)
        i, j = np.nonzero(np.triu(h.A.matrix, 1))
        w = -h.A.matrix[i, j].astype(np.longdouble)
        scale = 8.0 * EPS * np.sqrt(h.A.max_eigenvalue)
        for start in range(4):
            rng = np.random.default_rng(start)
            u_ref, u = rng.standard_normal(h.n), rng.standard_normal(h.n)
            f = h.A.matrix @ u_ref
            trace = iterate(h, f, u, 120, u_ref=u_ref)
            first = None
            for error in trace.errors_A:
                d = u_ref - u
                dl = d.astype(np.longdouble)
                ref = float(np.sqrt(np.sum(w * (dl[i] - dl[j]) ** 2)))
                first = first or ref
                if ref < 1e-12 * first:
                    break
                assert abs(error - ref) <= scale * np.linalg.norm(d), (start, error, ref)
                u = tg_sweep(h, u, f)
            else:
                pytest.fail(f"start {start}: the error did not fall below 1e-12")

    @pytest.mark.parametrize("problem", [NeumannLaplacian1D(16), RandomSpsd(12, 8, 1)],
                             ids=["neumann1d:16", "random:12:8:1"])
    def test_error_matches_the_principal_square_root(self, problem):
        # ||d||_A against ||A^{1/2} V V^T d|| (the principal square root is
        # formed here); d has an O(1) null-space part
        a, p, f, u_ref = generate_problem(problem, group=2, seed=3)
        h = TwoGridHierarchy(A=a, M=build_smoother(GaussSeidel(), a), P=p,
                             Ac=spsd_certify(sym_part(p.T @ a.matrix @ p), a.policy))
        rng = np.random.default_rng(8)
        d = rng.standard_normal(h.n) + h.A.null_basis @ np.ones(h.n - h.r)
        trace = iterate(h, f, u_ref - d, 3, u_ref=u_ref)
        assert "factor" not in vars(h.A)
        w, vectors = h.A.eig.values, h.A.eig.vectors
        sqrt_a = sym_part((vectors * np.sqrt(w)) @ vectors.T)
        v = h.A.range_basis
        old = float(np.linalg.norm(sqrt_a @ (v @ (v.T @ d))))
        assert abs(trace.errors_A[0] - old) <= 1e-13 * old

    def test_overflow_is_divergence(self):
        # a smoother of scale 1e150, assembled directly: u reaches 1e300 in
        # sweep 2, whose residual norm overflows
        a, p, f, u_ref = generate_problem(NeumannLaplacian1D(8), group=2, seed=2)
        h = TwoGridHierarchy(A=a, M=1e150 * np.eye(8), P=p,
                             Ac=spsd_certify(p.T @ a.matrix @ p, a.policy))
        u0 = np.random.default_rng(11).standard_normal(8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="not finite") as info:
                iterate(h, f, u0, 10, "tg", u_ref=u_ref)
        assert info.value.trace.sweeps == 2

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
