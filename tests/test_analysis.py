"""Tests for the convergence-analysis engine."""
import numpy as np
import pytest

from twogrid import corpus
from twogrid.errors import CoarseScalingError, RangeMismatchError
from twogrid.analysis import (
    beta_constants,
    check_conditions,
    convergence_report,
    delta_tg,
    exact_factor,
    exact_two_sided,
    fitg_matrix,
    ftg_matrix,
    general_epsilon_bound,
    inexact_linear_analysis,
    report_csv,
    report_json,
    seminorm_oracle,
    sigma_tg,
    smoothing_floor,
    spectral_equivalence_constants,
)
from twogrid.linalg import (
    TolerancePolicy,
    spsd_certify,
    sym_part,
    symmetric_rank,
)
from twogrid.model import (
    CustomSmoother,
    GaussSeidel,
    NeumannLaplacian2D,
    WeightedJacobi,
    aggregation_prolongation,
    build_hierarchy,
    generate_problem,
    neumann_laplacian_1d,
)


def neumann_hierarchy(n=8, group=2, smoother=None):
    smoother = smoother if smoother is not None else WeightedJacobi(2.0 / 3.0)
    return build_hierarchy(neumann_laplacian_1d(n), aggregation_prolongation(n, group),
                           smoother)


def full_coarse_rank_hierarchy():
    a = np.diag([2.0, 1.0, 0.0])
    p = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    return build_hierarchy(a, p, CustomSmoother(0.3 * np.eye(3)))


class TestCheckConditions:
    def test_spd_mbar_implies_all_flags(self):
        h = neumann_hierarchy()
        rep = check_conditions(h)
        assert rep.smoother_ok
        assert rep.suff_cond_ok
        assert rep.equiv_cond_ok
        assert rep.intersection_dim == rep.nullity_A == 1
        assert rep.intersection_margin > 0.0

    def test_zero_smoother_fails_equiv(self):
        h = neumann_hierarchy(smoother=CustomSmoother(np.zeros((8, 8))))
        rep = check_conditions(h)
        assert rep.smoother_ok  # nonexpansive, just useless
        assert not rep.suff_cond_ok
        assert not rep.equiv_cond_ok
        # intersection collapses to the null space of P^T A^{1/2}
        assert rep.intersection_dim == h.n - h.s
        assert rep.intersection_dim > rep.nullity_A

    def test_engineered_mbar_null_inside_range(self):
        # symmetric PSD M with a null direction inside the range of A gives
        # an Mbar with the same null direction: sufficient condition fails
        # while the intersection condition can still hold.
        h0 = neumann_hierarchy(n=8)
        a = h0.A
        rng = np.random.default_rng(42)
        v = a.range_basis @ rng.standard_normal(a.rank)
        v /= np.linalg.norm(v)
        z = rng.standard_normal((8, 7))
        z -= np.outer(v, v @ z)  # columns orthogonal to v
        m = 0.05 * sym_part(z @ z.T)
        assert np.max(np.abs(m @ v)) < 1e-12
        h = build_hierarchy(a, h0.P, CustomSmoother(m))
        rep = check_conditions(h)
        assert rep.smoother_ok
        assert not rep.suff_cond_ok
        assert rep.mbar_null_in_range_dim >= 1
        assert rep.equiv_cond_ok
        # cross-check the intersection dimension against a raw SVD nullity;
        # the singular-value cut is the square root of the Gram-side cut
        pre = h.P.T @ (np.eye(8) - a.matrix @ h.M) @ a.sqrt
        stack = np.vstack([sym_part(a.sqrt @ h.Mbar @ a.sqrt), pre])
        sv = np.linalg.svd(stack, compute_uv=False)
        cut = np.sqrt(h.policy.rank_rel_tol) * sv[0]
        brute = 8 - int(np.count_nonzero(sv > cut))
        assert rep.intersection_dim == brute


class TestExactFactor:
    def test_full_coarse_rank_gives_zero(self):
        h = full_coarse_rank_hierarchy()
        assert h.s == h.r
        rep = exact_factor(h)
        assert rep.factor_identity == 0.0
        assert rep.factor_ftg == 0.0
        assert rep.factor_oracle <= 1e-10
        assert rep.lower_bound == 0.0
        assert rep.eigengap_at_index is None

    def test_zero_smoother_gives_factor_one(self):
        h = neumann_hierarchy(smoother=CustomSmoother(np.zeros((8, 8))))
        rep = exact_factor(h)
        assert rep.warn_equiv_cond
        assert rep.factor_identity >= 1.0 - 1e-10
        assert rep.factor_ftg >= 1.0 - 1e-10
        assert rep.factor_oracle >= 1.0 - 1e-10

    @pytest.mark.parametrize("smoother", [WeightedJacobi(2.0 / 3.0),
                                          WeightedJacobi(0.5), GaussSeidel()])
    @pytest.mark.parametrize("group", [2, 4])
    def test_three_routes_agree(self, smoother, group):
        h = neumann_hierarchy(n=16, group=group, smoother=smoother)
        rep = exact_factor(h)
        assert not rep.warn_equiv_cond
        assert abs(rep.factor_identity - rep.factor_ftg) <= 1e-10
        assert abs(rep.factor_identity - rep.factor_oracle) <= 1e-10
        assert rep.lower_bound - 1e-10 <= rep.factor_identity <= rep.upper_bound + 1e-10
        assert 0.0 <= rep.factor_identity <= 1.0
        assert rep.eigengap_at_index > 0.0

    def test_nullity_of_quadratic_form(self):
        h = neumann_hierarchy(n=12)
        f = ftg_matrix(h)
        assert symmetric_rank(f, h.policy) == h.r

    def test_routes_agree_near_stability_limit(self):
        # Jacobi weight at 95 percent of 2 / lambda_max(D^{-1} A) pushes the
        # conjugated smoother spectrum close to its admissible edge
        from twogrid.model import jacobi_weight_limit
        a = spsd_certify(neumann_laplacian_1d(12), TolerancePolicy.for_dimension(12))
        h = build_hierarchy(a, aggregation_prolongation(12, 2),
                            WeightedJacobi(0.95 * jacobi_weight_limit(a)))
        rep = exact_factor(h)
        assert abs(rep.factor_identity - rep.factor_oracle) <= 1e-10
        assert abs(rep.factor_identity - rep.factor_ftg) <= 1e-10

    def test_routes_agree_with_zero_prolongation_column(self):
        # a dead coarse variable leaves the Galerkin matrix rank-deficient
        # but nonzero; the analysis must handle s < nc transparently
        a = spsd_certify(neumann_laplacian_1d(10), TolerancePolicy.for_dimension(10))
        p = aggregation_prolongation(10, 2)
        p[:, 3] = 0.0
        h = build_hierarchy(a, p, GaussSeidel())
        assert h.s < h.nc
        rep = exact_factor(h)
        assert abs(rep.factor_identity - rep.factor_oracle) <= 1e-10
        assert rep.lower_bound - 1e-10 <= rep.factor_identity <= rep.upper_bound + 1e-10


class TestSeminormOracle:
    def test_full_coarse_rank(self):
        assert seminorm_oracle(full_coarse_rank_hierarchy(), "tg") == pytest.approx(0.0, abs=1e-12)

    def test_squaring_law(self):
        for smoother in (WeightedJacobi(2.0 / 3.0), GaussSeidel()):
            h = neumann_hierarchy(n=10, smoother=smoother)
            tg = seminorm_oracle(h, "tg")
            stg = seminorm_oracle(h, "stg")
            assert abs(stg - tg ** 2) <= 1e-9

    def test_range_basis_permutation_invariance(self):
        h = neumann_hierarchy(n=8)
        baseline = seminorm_oracle(h, "tg")
        pre = np.eye(8) - h.A.sqrt @ h.M @ h.A.sqrt
        g = (np.eye(8) - h.Pi) @ pre
        perm = np.random.default_rng(0).permutation(h.r)
        gv = g @ h.A.range_basis[:, perm]
        w = np.linalg.eigvalsh(sym_part(gv.T @ gv))
        assert abs(np.sqrt(max(w[-1], 0.0)) - baseline) <= 1e-12

    def test_itg_requires_coarse(self):
        with pytest.raises(ValueError, match="coarse"):
            seminorm_oracle(neumann_hierarchy(), "itg")


class TestExactTwoSided:
    def test_full_coarse_rank_lower_zero(self):
        lower, upper = exact_two_sided(full_coarse_rank_hierarchy())
        assert lower == 0.0
        assert upper >= 0.0

    def test_perfect_smoother(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((6, 6))
        a = sym_part(g @ g.T) + 6.0 * np.eye(6)
        op = spsd_certify(a, TolerancePolicy.for_dimension(6))
        h = build_hierarchy(op, aggregation_prolongation(6, 2),
                            CustomSmoother(np.linalg.inv(a)))
        lower, upper = exact_two_sided(h)
        assert lower == pytest.approx(0.0, abs=1e-7)
        assert upper == pytest.approx(0.0, abs=1e-7)
        assert exact_factor(h).factor_oracle <= 1e-7

    def test_sandwich_on_neumann(self):
        h = neumann_hierarchy(n=16)
        lower, upper = exact_two_sided(h)
        factor = exact_factor(h).factor_identity
        assert lower - 1e-10 <= factor <= upper + 1e-10
        assert lower < upper


class TestSpectrumBox:
    @pytest.mark.parametrize("smoother", [WeightedJacobi(0.5), GaussSeidel()])
    def test_conjugated_mtilde_in_unit_interval(self, smoother):
        h = neumann_hierarchy(n=12, smoother=smoother)
        w = np.linalg.eigvalsh(sym_part(h.A.sqrt @ h.Mtilde @ h.A.sqrt))
        slack = h.policy.psd_slack
        assert w[0] >= -slack
        assert w[-1] <= 1.0 + slack


class TestInexactAnalysis:
    def test_exact_coarse_recovers_identity(self):
        h = neumann_hierarchy(n=8)
        rep = inexact_linear_analysis(h, h.Ac)
        exact = exact_factor(h)
        assert rep.alpha1 == pytest.approx(1.0, abs=1e-10)
        assert rep.alpha2 == pytest.approx(1.0, abs=1e-10)
        assert rep.beta1 == pytest.approx(1.0, abs=1e-10)
        assert rep.beta2 == pytest.approx(1.0, abs=1e-10)
        assert abs(rep.lower_L - exact.factor_identity) <= 1e-12
        assert abs(rep.upper_U - exact.factor_identity) <= 1e-12
        assert abs(rep.factor_exact_itg - exact.factor_identity) <= 1e-10

    def test_doubled_coarse_matrix(self):
        h = neumann_hierarchy(n=8)
        rep = inexact_linear_analysis(h, 2.0 * h.Ac.matrix)
        assert rep.alpha1 == pytest.approx(0.5, abs=1e-10)
        assert rep.alpha2 == pytest.approx(0.5, abs=1e-10)
        assert rep.beta1 == pytest.approx(0.75, abs=1e-10)
        assert rep.beta2 == pytest.approx(0.75, abs=1e-10)

    def test_shrunk_coarse_matrix(self):
        h = neumann_hierarchy(n=8)
        rep = inexact_linear_analysis(h, 0.6 * h.Ac.matrix)
        alpha = 1.0 / 0.6
        beta = (2.0 - alpha) * alpha
        assert rep.alpha1 == pytest.approx(alpha, abs=1e-10)
        assert rep.alpha2 == pytest.approx(alpha, abs=1e-10)
        assert rep.beta1 == pytest.approx(beta, abs=1e-10)
        assert rep.beta2 == pytest.approx(beta, abs=1e-10)

    @pytest.mark.parametrize("magnitude", [1e-2, 1e-1, 1.0])
    def test_perturbed_sandwich(self, magnitude):
        h = neumann_hierarchy(n=8)
        # range-preserving SPSD bump built on the coarse range basis
        rng = np.random.default_rng(17)
        vr = h.Ac.range_basis
        k = rng.standard_normal((h.s, h.s))
        bump = vr @ sym_part(k @ k.T) @ vr.T
        bc = h.Ac.matrix + magnitude * bump
        rep = inexact_linear_analysis(h, bc)
        assert 0.0 < rep.beta1 <= rep.beta2 <= 1.0
        assert rep.lower_L - 1e-10 <= rep.factor_exact_itg <= rep.upper_U + 1e-10
        assert abs(rep.factor_exact_itg - rep.factor_oracle) <= 1e-10

    def test_coarse_laplacian_perturbation(self):
        h = neumann_hierarchy(n=8)
        bc = h.Ac.matrix + 0.1 * neumann_laplacian_1d(h.nc)
        rep = inexact_linear_analysis(h, bc)
        assert rep.lower_L - 1e-10 <= rep.factor_exact_itg <= rep.upper_U + 1e-10

    def test_range_mismatch_rejected(self):
        h = neumann_hierarchy(n=8)
        with pytest.raises(RangeMismatchError, match="rank"):
            inexact_linear_analysis(h, np.eye(h.nc))

    def test_scaling_required(self):
        h = neumann_hierarchy(n=8)
        with pytest.raises(CoarseScalingError, match="scale"):
            inexact_linear_analysis(h, 0.4 * h.Ac.matrix)

    def test_nullity_matches_exact_form(self):
        h = neumann_hierarchy(n=10)
        f_exact = ftg_matrix(h)
        f_inexact = fitg_matrix(h, spsd_certify(2.0 * h.Ac.matrix, h.policy))
        assert symmetric_rank(f_exact, h.policy) == h.r
        assert symmetric_rank(f_inexact, h.policy) == h.r

    def test_sigma_delta_floor_consistency(self):
        h = neumann_hierarchy(n=12, smoother=GaussSeidel())
        delta, guard = delta_tg(h)
        assert guard
        sigma = sigma_tg(h)
        floor = smoothing_floor(h)
        assert sigma <= 1.0 - delta + floor + 1e-10


class TestBetaConstants:
    def test_branch_continuity_at_one(self):
        eps = 1e-12
        for a1 in (0.3, 0.8, 1.0):
            lo = beta_constants(a1, 1.0 - eps)
            hi = beta_constants(min(a1, 1.0), 1.0 + eps)
            assert lo[0] == pytest.approx(hi[0], abs=1e-11)
            assert lo[1] == pytest.approx(hi[1], abs=1e-11)
        lo = beta_constants(1.0 - eps, 1.5)
        hi = beta_constants(1.0 + eps, 1.5)
        assert lo[0] == pytest.approx(hi[0], abs=1e-11)
        assert lo[1] == pytest.approx(hi[1], abs=1e-11)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a1 = rng.uniform(1e-3, 1.999)
            a2 = rng.uniform(a1, 1.999)
            b1, b2 = beta_constants(a1, a2)
            assert 0.0 < b1 <= b2 <= 1.0


class TestGeneralEpsilonBound:
    def test_zero_eps_recovers_identity(self):
        h = neumann_hierarchy(n=8)
        assert general_epsilon_bound(h, 0.0) == pytest.approx(
            exact_factor(h).factor_identity, abs=1e-12)

    def test_limit_towards_one(self):
        h = neumann_hierarchy(n=8)
        delta, _ = delta_tg(h)
        sigma = sigma_tg(h)
        floor = smoothing_floor(h)
        expected = np.sqrt(1.0 - max(floor, sigma - (1.0 - delta)))
        got = general_epsilon_bound(h, 1.0 - 1e-9)
        assert got == pytest.approx(expected, abs=1e-6)

    def test_monotone_in_eps(self):
        h = neumann_hierarchy(n=8)
        values = [general_epsilon_bound(h, e) for e in (0.0, 0.1, 0.5, 0.9)]
        assert values == sorted(values)

    def test_eps_domain(self):
        h = neumann_hierarchy(n=8)
        with pytest.raises(ValueError):
            general_epsilon_bound(h, 1.0)
        with pytest.raises(ValueError):
            general_epsilon_bound(h, -0.1)


class TestSpectralEquivalenceDuality:
    @pytest.mark.parametrize("seed", range(10))
    def test_constants_are_reciprocal_between_forms(self, seed):
        rng = np.random.default_rng(seed)
        nc, s = 7, 5
        tol = TolerancePolicy.for_dimension(nc)
        basis = np.linalg.qr(rng.standard_normal((nc, s)))[0]
        ka = rng.standard_normal((s, s))
        kb = rng.standard_normal((s, s))
        ac = spsd_certify(basis @ sym_part(ka @ ka.T + 0.1 * np.eye(s)) @ basis.T, tol)
        bc = spsd_certify(basis @ sym_part(kb @ kb.T + 0.1 * np.eye(s)) @ basis.T, tol)
        c1, c2 = spectral_equivalence_constants(ac, bc)
        ac_pinv = spsd_certify(ac.pinv, tol)
        bc_pinv = spsd_certify(bc.pinv, tol)
        d1, d2 = spectral_equivalence_constants(ac_pinv, bc_pinv)
        assert c1 * d2 == pytest.approx(1.0, abs=1e-10)
        assert c2 * d1 == pytest.approx(1.0, abs=1e-10)


class TestReportAssembly:
    def test_json_deterministic_and_fields_present(self):
        h = neumann_hierarchy(n=8)
        rep = convergence_report(h, coarse=h.Ac, epsilon=0.5,
                                 meta={"problem": "neumann1d:8", "seed": 0})
        text1 = report_json(rep)
        text2 = report_json(convergence_report(h, coarse=h.Ac, epsilon=0.5,
                                               meta={"problem": "neumann1d:8", "seed": 0}))
        assert text1 == text2
        for key in ("sigma_tg", "factor_identity", "factor_oracle", "lower",
                    "upper", "alpha1", "alpha2", "beta1", "beta2", "delta_tg",
                    "flags"):
            assert f'"{key}"' in text1

    def test_csv_row(self):
        h = neumann_hierarchy(n=8)
        rep = convergence_report(h, meta={"problem": "neumann1d:8"})
        text = report_csv([rep])
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("problem,smoother,")
        assert lines[1].split(",")[0] == "neumann1d:8"


def _bits(value):
    """Exact comparison key: floats by their hex form, everything else as is."""
    return float(value).hex() if isinstance(value, float) else value


def neumann2d_report_inputs(smoother=WeightedJacobi(2.0 / 3.0)):
    a, p, _, _ = generate_problem(NeumannLaplacian2D(8, 8), group=2, seed=0)
    h = build_hierarchy(a, p, smoother)
    return h, spsd_certify(2.0 * h.Ac.matrix, h.policy)


def report_eigensolves(monkeypatch, h, bc):
    """Names of the numpy eigen-solvers one full report calls, in order."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _solver=getattr(np.linalg, name), **kwargs):
            calls.append(_solver.__name__)
            return _solver(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    convergence_report(h, coarse=bc, epsilon=0.3)
    return calls


class TestSharedSpectra:
    """One report shares its forms and spectra without changing a bit."""

    @pytest.mark.parametrize("case", corpus.builtin_corpus(), ids=lambda c: c.name)
    def test_report_equals_standalone_calls_bit_for_bit(self, case):
        h, _, _ = corpus.build_case(case)
        bc = spsd_certify(2.0 * h.Ac.matrix, h.policy)
        report = convergence_report(h, coarse=bc, epsilon=0.3)
        cond = check_conditions(h)
        exact = exact_factor(h)
        inexact = inexact_linear_analysis(h, bc)
        expected = {
            "sigma_tg": exact.sigma_tg,
            "factor_identity": exact.factor_identity,
            "factor_ftg": exact.factor_ftg,
            "factor_oracle": exact.factor_oracle,
            "lower": exact.lower_bound,
            "upper": exact.upper_bound,
            "eigengap_at_index": exact.eigengap_at_index,
            "alpha1": inexact.alpha1,
            "alpha2": inexact.alpha2,
            "beta1": inexact.beta1,
            "beta2": inexact.beta2,
            "delta_tg": inexact.delta_tg,
            "lower_itg": inexact.lower_L,
            "upper_itg": inexact.upper_U,
            "factor_itg": inexact.factor_exact_itg,
            "factor_itg_oracle": inexact.factor_oracle,
            "epsilon_bound": general_epsilon_bound(h, 0.3),
            "intersection_dim": cond.intersection_dim,
            "nullity_a": cond.nullity_A,
        }
        for key, value in expected.items():
            assert _bits(report[key]) == _bits(value), key
        assert report["flags"] == {
            "smoother_ok": cond.smoother_ok,
            "equiv_cond_ok": cond.equiv_cond_ok,
            "suff_cond_ok": cond.suff_cond_ok,
            "degenerate_full_rank_coarse": h.s == h.r,
            "delta_guard_ok": inexact.delta_guard_ok,
        }
        margins = {
            "smoother_min_eig": cond.smoother_min_eig,
            "intersection_sv": cond.intersection_margin,
            "mbar_min_eig": cond.mbar_min_eig,
        }
        for key, value in margins.items():
            assert _bits(report["margins"][key]) == _bits(value), key

    def test_report_eigensolve_budget(self, monkeypatch):
        calls = report_eigensolves(monkeypatch, *neumann2d_report_inputs())
        assert 0 < len(calls) <= 11, calls

    def test_report_eigensolve_budget_gauss_seidel(self, monkeypatch):
        # Mbar != Mtilde here, so the Mtilde spectrum is one solve of its own
        h, bc = neumann2d_report_inputs(GaussSeidel())
        assert not np.array_equal(h.Mbar, h.Mtilde)
        calls = report_eigensolves(monkeypatch, h, bc)
        assert 0 < len(calls) <= 12, calls

    def test_report_leaves_no_cache_on_hierarchy(self):
        h, bc = neumann2d_report_inputs()
        before = set(vars(h))
        convergence_report(h, coarse=bc, epsilon=0.3)
        assert set(vars(h)) == before
