"""Tests for the convergence-analysis engine."""
import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from twogrid import corpus
from twogrid.errors import CoarseScalingError, RangeMismatchError, SmootherError
from twogrid.analysis import (
    CSV_COLUMNS,
    FLAG_COLUMNS,
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
    PSD_SLACK,
    TolerancePolicy,
    dense,
    spectrum_rank,
    spsd_certify,
    sym_part,
)
from twogrid.model import (
    CustomSmoother,
    GaussSeidel,
    GraphLaplacian,
    LowerBandSolve,
    NeumannLaplacian2D,
    RandomSpsd,
    WeightedJacobi,
    aggregation_prolongation,
    build_hierarchy,
    generate_problem,
    neumann_laplacian_1d,
    neumann_laplacian_2d,
)
from twogrid.solver import iterate


def neumann_hierarchy(n=8, group=2, smoother=None):
    smoother = smoother if smoother is not None else WeightedJacobi(2.0 / 3.0)
    return build_hierarchy(neumann_laplacian_1d(n), aggregation_prolongation(n, group),
                           smoother)


def scaled_jacobi_hierarchy(t, n=16):
    """t * Jacobi 2/3 on 1D Neumann: M is positive definite for every t > 0."""
    a = neumann_laplacian_1d(n)
    return build_hierarchy(a, aggregation_prolongation(n, 2),
                           CustomSmoother(t * np.diag((2.0 / 3.0) / np.diag(a))))


def engineered_hierarchy():
    """Symmetric PSD M with a null direction v inside the range of A."""
    h0 = neumann_hierarchy(n=8)
    a = h0.A
    rng = np.random.default_rng(42)
    v = a.eig.vectors[:, a.n - a.rank:] @ rng.standard_normal(a.rank)
    v /= np.linalg.norm(v)
    z = rng.standard_normal((8, 7))
    z -= np.outer(v, v @ z)  # columns orthogonal to v
    m = 0.05 * sym_part(z @ z.T)
    assert np.max(np.abs(m @ v)) < 1e-12
    return build_hierarchy(a, h0.P, CustomSmoother(m))


def dense_smoother(h):
    """M as an n x n array; a Gauss-Seidel M is tril(A)^{-1}, built here."""
    if not isinstance(h.M, LowerBandSolve):
        return dense(h.M)
    return solve_triangular(np.tril(dense(h.A.matrix)), np.eye(h.n), lower=True)


def mbar(h):
    """The paper's n x n Mbar = M + M^T - M^T A M."""
    m = dense_smoother(h)
    return sym_part(m + m.T - m.T @ h.A.matrix @ m)


def mtilde(h):
    """The paper's n x n Mtilde = M + M^T - M A M^T."""
    m = dense_smoother(h)
    return sym_part(m + m.T - m @ h.A.matrix @ m.T)


def mtilde_form(h):
    """F Mtilde F^T = B + B^T - B B^T (r x r), formed here off B = F M F^T:
    the analysis reads only its compressions onto Q and Q_perp."""
    b = h.forms.smoother_product
    return sym_part(b + b.T - b @ b.T)


def thin_factor(a):
    """F = Lambda_r^{1/2} V_r^T (r x n) formed from a's certified eigenpairs."""
    first = a.n - a.rank
    return np.sqrt(a.eig.values[first:])[:, None] * a.eig.vectors[:, first:].T


def range_restricted_intersection(h):
    """Independent intersection dimension: (n - r) plus the nullity on range(A)
    of the stacked smoother form F Mbar F^T and P^T (I - A M) F^T, decided on
    singular values cut at rank_rel_tol * sigma_max."""
    f = thin_factor(h.A)
    pre = h.P.T @ (np.eye(h.n) - h.A.matrix @ dense_smoother(h)) @ f.T
    stack = np.vstack([sym_part(f @ mbar(h) @ f.T), pre])
    sv = np.linalg.svd(stack, compute_uv=False)
    kept = int(np.count_nonzero(sv > h.policy.rank_rel_tol * sv[0])) if sv[0] > 0 else 0
    return h.n - kept


def full_coarse_rank_hierarchy():
    a = np.diag([2.0, 1.0, 0.0])
    p = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    return build_hierarchy(a, p, CustomSmoother(0.3 * np.eye(3)))


CORPUS_BUILDS = [pytest.param(lambda case=case: corpus.build_case(case)[0], id=case.name)
                 for case in corpus.builtin_corpus()]
ZERO_SMOOTHER_BUILD = pytest.param(
    lambda: neumann_hierarchy(smoother=CustomSmoother(np.zeros((8, 8)))),
    id="zero-smoother")


class TestCheckConditions:
    def test_spd_mbar_implies_all_flags(self):
        h = neumann_hierarchy()
        rep = check_conditions(h)
        assert rep.smoother_ok
        assert rep.suff_cond_ok
        assert rep.equiv_cond_ok
        assert rep.intersection_dim == rep.nullity_a == 1
        assert rep.intersection_sv > 0.0

    def test_zero_smoother_fails_equiv(self):
        h = neumann_hierarchy(smoother=CustomSmoother(np.zeros((8, 8))))
        rep = check_conditions(h)
        assert rep.smoother_ok  # nonexpansive, just useless
        assert not rep.suff_cond_ok
        assert not rep.equiv_cond_ok
        # intersection collapses to the null space of P^T A^{1/2}
        assert rep.intersection_dim == h.n - h.s
        assert rep.intersection_dim > rep.nullity_a

    def test_engineered_mbar_null_inside_range(self):
        # an Mbar null direction inside the range of A: the sufficient
        # condition fails while the intersection condition still holds
        h = engineered_hierarchy()
        rep = check_conditions(h)
        assert rep.smoother_ok
        assert not rep.suff_cond_ok
        assert rep.mbar_null_in_range_dim >= 1
        assert rep.equiv_cond_ok
        assert rep.intersection_dim == range_restricted_intersection(h)

    @pytest.mark.parametrize("t", [1e-7, 1e-10])
    def test_scaled_positive_definite_smoother_satisfies_both(self, t):
        # M is positive definite, so both conditions hold however small t is
        rep = check_conditions(scaled_jacobi_hierarchy(t))
        assert rep.equiv_cond_ok
        assert rep.suff_cond_ok
        assert rep.intersection_dim == 1

    @pytest.mark.parametrize("build", [
        *CORPUS_BUILDS,
        ZERO_SMOOTHER_BUILD,
        pytest.param(engineered_hierarchy, id="engineered"),
        *[pytest.param(lambda t=t, n=n: scaled_jacobi_hierarchy(t, n),
                       id=f"scaled-jacobi:{t:g}/n{n}")
          for n in (16, 64) for t in (1e-6, 1e-7, 1e-10)],
    ])
    def test_intersection_matches_range_restricted_svd(self, build):
        h = build()
        assert check_conditions(h).intersection_dim == range_restricted_intersection(h)

    @pytest.mark.parametrize("case", corpus.builtin_corpus(), ids=lambda c: c.name)
    def test_intersection_margin_is_sqrt_sigma_tg(self, case):
        h, _, _ = corpus.build_case(case)
        rep = check_conditions(h)
        assert rep.equiv_cond_ok and h.s < h.r
        assert abs(rep.intersection_sv - np.sqrt(sigma_tg(h))) <= 1e-12

    def test_intersection_margin_is_zero_at_full_coarse_rank(self):
        h = full_coarse_rank_hierarchy()
        assert h.s == h.r
        rep = check_conditions(h)
        assert rep.equiv_cond_ok
        assert rep.intersection_sv == 0.0

    def test_hierarchy_keeps_no_null_space_decision(self):
        h = neumann_hierarchy()
        check_conditions(h)
        assert not hasattr(h, "intersection")
        assert not hasattr(h, "mbar_null_in_range")


class TestExactFactor:
    def test_full_coarse_rank_gives_zero(self):
        h = full_coarse_rank_hierarchy()
        assert h.s == h.r
        rep = exact_factor(h)
        assert rep.factor_identity == 0.0
        assert rep.factor_ftg == 0.0
        assert rep.factor_oracle <= 1e-10
        assert rep.lower == 0.0
        assert rep.eigengap_at_index is None

    @pytest.mark.parametrize("build", [
        *CORPUS_BUILDS,
        pytest.param(full_coarse_rank_hierarchy, id="full-coarse-rank"),
    ])
    def test_eigengap_at_index_is_sigma_tg(self, build):
        # w[s - 1] is one of the s exact zeros of the complement spectrum,
        # so w[s] - w[s - 1] has the bytes of w[s]; None at s = r
        h = build()
        rep = exact_factor(h)
        if h.s == h.r:
            assert rep.eigengap_at_index is None
        else:
            assert np.float64(rep.eigengap_at_index).tobytes() == np.float64(
                sigma_tg(h)).tobytes() == np.float64(rep.sigma_tg).tobytes()

    def test_zero_smoother_gives_factor_one(self):
        h = neumann_hierarchy(smoother=CustomSmoother(np.zeros((8, 8))))
        rep = exact_factor(h)
        assert not check_conditions(h).equiv_cond_ok
        assert rep.factor_identity >= 1.0 - 1e-10
        assert rep.factor_ftg >= 1.0 - 1e-10
        assert rep.factor_oracle >= 1.0 - 1e-10

    @pytest.mark.parametrize("smoother", [WeightedJacobi(2.0 / 3.0),
                                          WeightedJacobi(0.5), GaussSeidel()])
    @pytest.mark.parametrize("group", [2, 4])
    def test_three_routes_agree(self, smoother, group):
        h = neumann_hierarchy(n=16, group=group, smoother=smoother)
        rep = exact_factor(h)
        assert check_conditions(h).equiv_cond_ok
        assert abs(rep.factor_identity - rep.factor_ftg) <= 1e-10
        assert abs(rep.factor_identity - rep.factor_oracle) <= 1e-10
        assert rep.lower - 1e-10 <= rep.factor_identity <= rep.upper + 1e-10
        assert 0.0 <= rep.factor_identity <= 1.0
        assert rep.eigengap_at_index > 0.0

    def test_nullity_of_quadratic_form(self):
        h = neumann_hierarchy(n=12)
        f = ftg_matrix(h)
        assert spectrum_rank(np.linalg.eigvalsh(f), h.policy) == h.r

    def test_routes_agree_near_stability_limit(self):
        # Jacobi weight at 95 percent of 2 / lambda_max(D^{-1} A) pushes the
        # conjugated smoother spectrum close to its admissible edge
        a = spsd_certify(neumann_laplacian_1d(12), TolerancePolicy.for_dimension(12))
        scale = 1.0 / np.sqrt(np.diag(a.matrix))
        limit = 2.0 / np.linalg.eigvalsh(scale[:, None] * a.matrix * scale)[-1]
        h = build_hierarchy(a, aggregation_prolongation(12, 2),
                            WeightedJacobi(0.95 * limit))
        rep = exact_factor(h)
        assert abs(rep.factor_identity - rep.factor_oracle) <= 1e-10
        assert abs(rep.factor_identity - rep.factor_ftg) <= 1e-10

    @pytest.mark.parametrize("n", [400, 800])
    def test_identity_and_quadratic_form_agree_at_large_n(self, n):
        # the coarse correction is Q Q^T with orthonormal Q, so no product
        # whose idempotency is lost to cond(Ac) drifts the ftg route
        rep = exact_factor(neumann_hierarchy(n=n))
        assert abs(rep.factor_identity - rep.factor_ftg) <= 1e-13

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
        assert rep.lower - 1e-10 <= rep.factor_identity <= rep.upper + 1e-10


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
        # ordering A's range eigenpairs differently conjugates the propagator
        # by a permutation, which keeps its largest singular value
        h = neumann_hierarchy(n=8)
        baseline = seminorm_oracle(h, "tg")
        perm = np.random.default_rng(0).permutation(h.r)
        f = thin_factor(h.A)[perm]
        q = np.linalg.svd(f @ h.P, full_matrices=False)[0][:, :h.s]
        g = (np.eye(h.r) - q @ q.T) @ (np.eye(h.r) - f @ h.M @ f.T)
        w = np.linalg.eigvalsh(sym_part(g.T @ g))
        assert abs(np.sqrt(max(w[-1], 0.0)) - baseline) <= 1e-12

    def test_full_coarse_rank_reads_rounding(self):
        # s = r: the exact factor is 0, and on range(A) the propagator is
        # rounding, so the oracle keeps full digits there
        a, p, _, _ = generate_problem(RandomSpsd(6, 2, 0), group=2, seed=0)
        h = build_hierarchy(a, p, GaussSeidel())
        assert h.s == h.r == 2
        assert exact_factor(h).factor_oracle <= 1e-14

    def test_itg_requires_coarse(self):
        with pytest.raises(ValueError, match="coarse"):
            seminorm_oracle(neumann_hierarchy(), "itg")

    @pytest.mark.parametrize("iteration", ["tg", "stg"])
    def test_exact_iterations_reject_a_coarse_matrix(self, iteration):
        # the solver's rule: tg and stg use the exact solve, so a coarse
        # matrix passed with them is an error, not silently dropped
        h = neumann_hierarchy(n=16, smoother=GaussSeidel())
        bc = spsd_certify(2.0 * h.Ac.matrix, h.policy)
        with pytest.raises(ValueError, match="exact coarse solve"):
            seminorm_oracle(h, iteration, bc)


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
        w = np.linalg.eigvalsh(mtilde_form(h))
        slack = PSD_SLACK
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
        assert abs(rep.lower_itg - exact.factor_identity) <= 1e-12
        assert abs(rep.upper_itg - exact.factor_identity) <= 1e-12
        assert abs(rep.factor_itg - exact.factor_identity) <= 1e-10

    def test_raw_coarse_matrix_is_certified(self):
        # every entry point certifies a raw Bc under the hierarchy's policy
        # and then returns, bit for bit, what it returns for the certified one
        h = neumann_hierarchy(n=16, smoother=GaussSeidel())
        raw = 2.0 * h.Ac.matrix
        bc = spsd_certify(raw, h.policy)
        assert seminorm_oracle(h, "itg", raw) == seminorm_oracle(h, "itg", bc)
        assert np.array_equal(fitg_matrix(h, raw), fitg_matrix(h, bc))
        assert inexact_linear_analysis(h, raw) == inexact_linear_analysis(h, bc)

    def test_full_coarse_rank_inexact_factor_is_not_zero(self):
        # s = r zeroes the exact factor, not the one with Bc = 2 Ac
        a, p, _, _ = generate_problem(RandomSpsd(6, 2, 0), group=2, seed=0)
        h = build_hierarchy(a, p, GaussSeidel())
        assert h.s == h.r
        bc = spsd_certify(2.0 * h.Ac.matrix, h.policy)
        report = convergence_report(h, coarse=bc)
        tol = h.policy.match_tol
        assert report["factor_itg_oracle"] > 0.1
        assert abs(report["factor_itg"] - report["factor_itg_oracle"]) <= tol
        assert (report["lower_itg"] - tol <= report["factor_itg"]
                <= report["upper_itg"] + tol)

    def test_doubled_coarse_matrix(self):
        h = neumann_hierarchy(n=8)
        rep = inexact_linear_analysis(h, 2.0 * h.Ac.matrix)
        assert rep.alpha1 == pytest.approx(0.5, abs=1e-10)
        assert rep.alpha2 == pytest.approx(0.5, abs=1e-10)
        assert rep.beta1 == pytest.approx(0.75, abs=1e-10)
        assert rep.beta2 == pytest.approx(0.75, abs=1e-10)

    @pytest.mark.parametrize("case", corpus.builtin_corpus(), ids=lambda c: c.name)
    def test_doubled_coarse_matrix_alpha_on_corpus(self, case):
        # the s x s form F_c Bc^+ F_c^T is (1/2) I up to rounding
        h, _, _ = corpus.build_case(case)
        alpha1, alpha2 = spectral_equivalence_constants(
            spsd_certify(2.0 * h.Ac.matrix, h.policy), h.Ac)
        assert max(abs(alpha1 - 0.5), abs(alpha2 - 0.5)) <= 1e-14

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
        vr = h.Ac.eig.vectors[:, h.nc - h.s:]
        k = rng.standard_normal((h.s, h.s))
        bump = vr @ sym_part(k @ k.T) @ vr.T
        bc = h.Ac.matrix + magnitude * bump
        rep = inexact_linear_analysis(h, bc)
        assert 0.0 < rep.beta1 <= rep.beta2 <= 1.0
        assert rep.lower_itg - 1e-10 <= rep.factor_itg <= rep.upper_itg + 1e-10
        assert abs(rep.factor_itg - rep.factor_itg_oracle) <= 1e-10

    def test_coarse_laplacian_perturbation(self):
        h = neumann_hierarchy(n=8)
        bc = h.Ac.matrix + 0.1 * neumann_laplacian_1d(h.nc)
        rep = inexact_linear_analysis(h, bc)
        assert rep.lower_itg - 1e-10 <= rep.factor_itg <= rep.upper_itg + 1e-10

    def test_range_mismatch_rejected(self):
        h = neumann_hierarchy(n=8)
        with pytest.raises(RangeMismatchError, match="rank"):
            inexact_linear_analysis(h, np.eye(h.nc))

    @pytest.mark.parametrize("angle", [1e-7, 1e-6])
    def test_turned_null_space_rejected(self, angle):
        # Bc = R Ac R^T with R turning Ac's null vector by `angle` towards its
        # range: the stacked null bases have sigma_min = angle / sqrt(2), far
        # above the rank cut, though their Gram matrix's angle**2 / 2 is not
        h = neumann_hierarchy(n=16)
        z, v = h.Ac.null_basis[:, 0], h.Ac.eig.vectors[:, h.nc - h.s]
        turn = (np.sin(angle) * (np.outer(v, z) - np.outer(z, v))
                + (np.cos(angle) - 1.0) * (np.outer(z, z) + np.outer(v, v)))
        rot = np.eye(h.nc) + turn
        with pytest.raises(RangeMismatchError, match="null space"):
            inexact_linear_analysis(h, sym_part(rot @ h.Ac.matrix @ rot.T))

    def test_scaling_required(self):
        h = neumann_hierarchy(n=8)
        with pytest.raises(CoarseScalingError, match="scale"):
            inexact_linear_analysis(h, 0.4 * h.Ac.matrix)

    def test_nullity_matches_exact_form(self):
        h = neumann_hierarchy(n=10)
        f_exact = ftg_matrix(h)
        f_inexact = fitg_matrix(h, spsd_certify(2.0 * h.Ac.matrix, h.policy))
        assert spectrum_rank(np.linalg.eigvalsh(f_exact), h.policy) == h.r
        assert spectrum_rank(np.linalg.eigvalsh(f_inexact), h.policy) == h.r

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

    @pytest.mark.parametrize("eps", [1.5, -0.1, float("nan")])
    def test_report_refuses_eps_before_any_solve(self, monkeypatch, eps):
        # the report checks eps first, so no eigen-solve runs before it fails
        h, bc = neumann2d_report_inputs()

        def report():
            with pytest.raises(ValueError, match="eps must lie in"):
                convergence_report(h, coarse=bc, epsilon=eps)
        assert eigensolves(monkeypatch, report) == []


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

    @pytest.mark.parametrize("with_bc", [False, True])
    @pytest.mark.parametrize("epsilon", [None, 0.5])
    def test_flat_fields_are_the_csv_columns(self, with_bc, epsilon):
        h = neumann_hierarchy(n=8)
        rep = convergence_report(h, coarse=h.Ac if with_bc else None, epsilon=epsilon)
        flat = {key for key, value in rep.items() if not isinstance(value, dict)}
        assert flat == set(CSV_COLUMNS) - set(FLAG_COLUMNS)
        assert set(FLAG_COLUMNS) <= rep["flags"].keys()
        assert (rep["alpha1"] is None) != with_bc
        assert (rep["epsilon"] is None) == (epsilon is None)

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


def eigensolves(monkeypatch, call):
    """(name, order) of each numpy eigen-solve and each ARPACK eigsh `call()`
    runs, in order."""
    import scipy.sparse.linalg

    calls = []
    for owner, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                        (scipy.sparse.linalg, "eigsh")):
        def counted(*args, _solver=getattr(owner, name), _name=name, **kwargs):
            calls.append((_name, np.shape(args[0])[0]))
            return _solver(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    call()
    return calls


def assert_range_sized(h, calls):
    """At most one solve of order n, the spectrum of Mbar; all others <= r."""
    assert [order for _, order in calls if order > h.r] in ([], [h.n]), calls


def projected_complement_spectrum(h):
    """Spectrum of the r x r form (I - Q Q^T) F Mtilde F^T (I - Q Q^T), projected
    on both sides."""
    q, form = h.forms.coarse_factors[0], mtilde_form(h)
    y = form - q @ (q.T @ form)
    return np.linalg.eigvalsh(sym_part(y - (y @ q) @ q.T))


def ladder_build(grid):
    a, p, _, _ = generate_problem(NeumannLaplacian2D(grid, grid), group=2, seed=0)
    return build_hierarchy(a, p, WeightedJacobi(2.0 / 3.0))


class TestComplementBasis:
    """The complement spectrum is s exact zeros and one solve of order r - s."""

    @pytest.mark.parametrize("build", [
        *CORPUS_BUILDS,
        ZERO_SMOOTHER_BUILD,
        pytest.param(engineered_hierarchy, id="engineered"),
        *[pytest.param(lambda g=g: ladder_build(g), id=f"neumann2d:{g}x{g}")
          for g in (16, 24, 32)],
    ])
    def test_matches_the_projected_form(self, build):
        # Q_perp completes Q to an orthogonal r x r matrix; the nonzero part
        # agrees to 1e-13, and the rank cut, the intersection dimension and
        # its flag read the same off either spectrum
        h = build()
        q, _, q_perp = h.forms.coarse_factors
        assert q_perp.shape == (h.r, h.r - h.s)
        assert np.max(np.abs(q_perp.T @ q), initial=0.0) <= 1e-14
        assert np.max(np.abs(q_perp.T @ q_perp - np.eye(h.r - h.s)),
                      initial=0.0) <= 1e-14
        w, ref = h.forms.complement_spectrum, projected_complement_spectrum(h)
        assert w.shape == (h.r,) and np.count_nonzero(w == 0.0) >= h.s
        assert np.max(np.abs(w - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))
        scale = float(np.max(np.abs(h.forms.smoother_spectrum)))
        kept = spectrum_rank(ref, h.policy, scale=scale)
        rep = check_conditions(h)
        assert rep.intersection_dim == h.n - h.s - kept
        assert rep.equiv_cond_ok == (h.n - h.s - kept == h.n - h.r)

    def test_failed_intersection_is_still_reported(self):
        h = neumann_hierarchy(smoother=CustomSmoother(np.zeros((8, 8))))
        assert np.array_equal(h.forms.complement_spectrum, np.zeros(h.r))
        rep = check_conditions(h)
        assert not rep.equiv_cond_ok and rep.intersection_dim == h.n - h.s

    def test_analyze_2d_solves_the_complement_at_order_r_minus_s(self, monkeypatch):
        # one solve of order r - s = 288 where the projected form took 575;
        # the report runs 3 full eigen-solves, and its five end-only spectra
        # (ftg, fitg, the two oracles and Mbar) are Lanczos reads of one end
        h = ladder_build(24)
        bc = spsd_certify(2.0 * h.Ac.matrix, h.policy)
        assert (h.r, h.s) == (575, 287)
        calls = eigensolves(monkeypatch, lambda: h.forms.complement_spectrum)
        assert calls == [("eigvalsh", h.r - h.s)]
        h = ladder_build(24)
        calls = eigensolves(monkeypatch, lambda: convergence_report(
            h, coarse=bc, epsilon=0.3))
        assert sorted(order for name, order in calls if name != "eigsh") == [
            287, 287, 288]
        assert sorted(order for name, order in calls if name == "eigsh") == [
            575, 575, 575, 575, 576]


def weighted_grid_edges(nx, ny, seed):
    """The edges of an nx x ny grid graph with seeded weights e^U(-1, 1)."""
    node = np.arange(nx * ny).reshape(nx, ny)
    u = np.concatenate([node[:-1].ravel(), node[:, :-1].ravel()])
    v = np.concatenate([node[1:].ravel(), node[:, 1:].ravel()])
    w = np.exp(np.random.default_rng(seed).uniform(-1.0, 1.0, u.size))
    return tuple(zip(u.tolist(), v.tolist(), w.tolist()))


END_READ_PROBLEMS = {
    "neumann2d:16x16": NeumannLaplacian2D(16, 16),
    "neumann2d:24x24": NeumannLaplacian2D(24, 24),
    "graph:18x18-weighted": GraphLaplacian(weighted_grid_edges(18, 18, 7)),
}


class TestEndReads:
    """The five end-only spectra agree with the full dense eigvalsh."""

    @pytest.mark.parametrize("smoother", [WeightedJacobi(2.0 / 3.0), GaussSeidel()],
                             ids=["jacobi", "gs"])
    @pytest.mark.parametrize("problem", END_READ_PROBLEMS.values(),
                             ids=END_READ_PROBLEMS.keys())
    def test_agree_with_the_dense_spectra(self, problem, smoother):
        a, p, _, _ = generate_problem(problem, group=2, seed=0)
        h = build_hierarchy(a, p, smoother)
        bc = spsd_certify(2.0 * h.Ac.matrix, h.policy)
        assert h.n >= 256
        pre, qk = h.forms.pre_smoother, h.forms.restricted_pre_smoother
        q, r, _ = h.forms.coarse_factors
        core = r @ bc.pinv @ r.T

        def oracle_top(c):
            g = pre - q @ (qk if c is None else c @ qk)
            return np.linalg.eigvalsh(sym_part(g.T @ g))[-1]

        m = dense_smoother(h)
        a_dense = dense(h.A.matrix)
        inexact = inexact_linear_analysis(h, bc)
        pairs = {
            "ftg": (1.0 - exact_factor(h).factor_ftg ** 2,
                    np.linalg.eigvalsh(ftg_matrix(h))[0]),
            "fitg": (1.0 - inexact.factor_itg ** 2,
                     np.linalg.eigvalsh(fitg_matrix(h, bc))[0]),
            "oracle": (seminorm_oracle(h, "tg") ** 2, oracle_top(None)),
            "itg_oracle": (inexact.factor_itg_oracle ** 2, oracle_top(core)),
            "mbar_min_eig": (h.mbar_min_eig, np.linalg.eigvalsh(
                sym_part(m + m.T - m.T @ a_dense @ m))[0]),
        }
        for name, (got, ref) in pairs.items():
            assert abs(got - ref) <= 1e-13 * abs(ref), (name, got, ref)

    @pytest.mark.parametrize("smoother", [WeightedJacobi(2.0 / 3.0), GaussSeidel()],
                             ids=["jacobi", "gs"])
    def test_fresh_hierarchies_give_the_same_report_bytes(self, smoother):
        texts = []
        for _ in range(2):
            a, p, _, _ = generate_problem(NeumannLaplacian2D(24, 24), group=2, seed=0)
            h = build_hierarchy(a, p, smoother)
            texts.append(report_json(convergence_report(
                h, coarse=2.0 * h.Ac.matrix, epsilon=0.3)))
        assert texts[0] == texts[1]


class TestSharedSpectra:
    """One report shares its forms and spectra without changing a bit."""

    @pytest.mark.parametrize("case", corpus.builtin_corpus(), ids=lambda c: c.name)
    def test_report_equals_standalone_calls_bit_for_bit(self, case):
        h, _, _ = corpus.build_case(case)
        bc = spsd_certify(2.0 * h.Ac.matrix, h.policy)
        report = convergence_report(h, coarse=bc, epsilon=0.3)
        # a second hierarchy of the same case, so that the standalone calls
        # solve their own spectra instead of re-reading the report's
        h, _, _ = corpus.build_case(case)
        bc = spsd_certify(2.0 * h.Ac.matrix, h.policy)
        results = (check_conditions(h), exact_factor(h),
                   inexact_linear_analysis(h, bc))
        # every field of the three results is one report key, under its
        # own name, flat, under "flags" or under "margins", with its bits
        unreported = {"mbar_null_in_range_dim"}
        for result in results:
            for field in dataclasses.fields(result):
                if field.name in unreported:
                    continue
                homes = [part for part in (report, report["flags"], report["margins"])
                         if field.name in part]
                assert len(homes) == 1, field.name
                assert _bits(homes[0][field.name]) == _bits(
                    getattr(result, field.name)), field.name
        assert _bits(report["epsilon_bound"]) == _bits(general_epsilon_bound(h, 0.3))
        assert report["flags"]["degenerate_full_rank_coarse"] == (h.s == h.r)

    def test_report_eigensolve_budget(self, monkeypatch):
        h, bc = neumann2d_report_inputs()
        calls = eigensolves(
            monkeypatch, lambda: convergence_report(h, coarse=bc, epsilon=0.3))
        assert 0 < len(calls) <= 9, calls
        assert_range_sized(h, calls)

    def test_report_eigensolve_budget_gauss_seidel(self, monkeypatch):
        # Mbar != Mtilde here, yet the Mtilde form has the smoother spectrum,
        # so it costs no solve of its own: the same budget as Jacobi
        h, bc = neumann2d_report_inputs(GaussSeidel())
        assert not np.array_equal(mbar(h), mtilde(h))
        calls = eigensolves(
            monkeypatch, lambda: convergence_report(h, coarse=bc, epsilon=0.3))
        assert 0 < len(calls) <= 9, calls
        assert_range_sized(h, calls)

    def test_report_eigensolve_budget_rank_deficient(self, monkeypatch):
        # r = 13 < n = 20: every form the report solves is r x r or smaller
        a, p, _, _ = generate_problem(RandomSpsd(20, 13, 4), group=2, seed=0)
        h = build_hierarchy(a, p, GaussSeidel())
        assert (h.n, h.r, h.nc) == (20, 13, 10)
        bc = spsd_certify(2.0 * h.Ac.matrix, h.policy)
        calls = eigensolves(
            monkeypatch, lambda: convergence_report(h, coarse=bc, epsilon=0.3))
        assert 0 < len(calls) <= 9, calls
        assert_range_sized(h, calls)

    def test_report_eigensolve_budget_full_coarse_rank(self, monkeypatch):
        # s = r = 2 < nc = 3: the quadratic form, whose factor is 0 here, is
        # not solved, and the equivalence constants are solved at order s.
        # Set-up and report are counted together: a Gauss-Seidel set-up
        # leaves the smoother spectrum to the report's first read.
        a, p, _, _ = generate_problem(RandomSpsd(6, 2, 0), group=2, seed=0)
        h = build_hierarchy(a, p, GaussSeidel())
        assert (h.n, h.r, h.s, h.nc) == (6, 2, 2, 3)
        bc = spsd_certify(2.0 * h.Ac.matrix, h.policy)
        calls = eigensolves(monkeypatch, lambda: convergence_report(
            build_hierarchy(a, p, GaussSeidel()), coarse=bc, epsilon=0.3))
        assert 0 < len(calls) <= 9, calls
        assert calls[0] == ("eigh", h.nc), calls  # certifies Ac
        assert_range_sized(h, calls[1:])

    def test_report_caches_one_square_array_on_hierarchy(self):
        # with a symmetric M the Mtilde form is the smoother form, so the
        # pre-smoother (r x r) is the only square array a Jacobi report
        # adds to the hierarchy or its forms; the coarse basis adds Q
        # (r x s), R (s x nc) and Q_perp (r x (r - s)), and the coarse rows
        # of K add Q^T K (s x r)
        h, bc = neumann2d_report_inputs()
        forms = h.forms

        def cached():
            return {**vars(h), **vars(forms)}

        before = cached()
        held = {id(value) for value in before.values()}
        convergence_report(h, coarse=bc, epsilon=0.3)
        added = {key: value for key, value in cached().items() if key not in before}
        q, r, q_perp = added.pop("coarse_factors")
        assert q.shape == (h.r, h.s) and r.shape == (h.s, h.nc)
        assert q_perp.shape == (h.r, h.r - h.s) and h.r - h.s != h.s
        assert added.pop("restricted_pre_smoother").shape == (h.s, h.r)
        square = {id(value) for value in added.values()
                  if np.ndim(value) == 2 and id(value) not in held}
        assert square == {id(forms.pre_smoother)}
        assert forms.pre_smoother.shape == (h.r, h.r)
        for key, value in added.items():
            if key != "pre_smoother" and id(value) not in held:
                assert np.ndim(value) <= 1, key

    @pytest.mark.parametrize("smoother", [WeightedJacobi(2.0 / 3.0), GaussSeidel()],
                             ids=["jacobi", "gs"])
    def test_spectra_are_solved_once_per_hierarchy(self, monkeypatch, smoother):
        h, bc = neumann2d_report_inputs(smoother)
        convergence_report(h, coarse=bc, epsilon=0.3)
        scalars = eigensolves(monkeypatch, lambda: (
            sigma_tg(h), delta_tg(h), smoothing_floor(h), exact_two_sided(h),
            check_conditions(h)))
        assert scalars == []
        # left: the ftg, fitg and two oracle solves, the equivalence
        # constants and the joint null-basis rank, which all depend on Bc
        # or are read once
        again = eigensolves(
            monkeypatch, lambda: convergence_report(h, coarse=bc, epsilon=0.3))
        assert 0 < len(again) <= 6, again

    def test_verification_eigensolve_budget(self, monkeypatch):
        calls = eigensolves(monkeypatch, corpus.run_verification)
        assert 0 < len(calls) <= 426, len(calls)

    def test_jacobi_hierarchy_eigensolve_budget(self, monkeypatch):
        # Ac's certification and the smoother spectrum; the smoother check
        # is the Jacobi stability rule, so the weight limit is not solved
        a, p, _, _ = generate_problem(NeumannLaplacian2D(8, 8), group=2, seed=0)
        calls = eigensolves(
            monkeypatch, lambda: build_hierarchy(a, p, WeightedJacobi(2.0 / 3.0)))
        assert 0 < len(calls) <= 2, calls

    @pytest.mark.parametrize("smoother", [
        GaussSeidel(), WeightedJacobi(2.0 / 3.0), CustomSmoother(0.25 * np.eye(64)),
    ], ids=["gs", "jacobi", "custom"])
    def test_setup_eigensolves(self, monkeypatch, smoother):
        # A, Ac and, for Jacobi and custom, the smoother spectrum (order r);
        # Gauss-Seidel is certified by its structure and forms no n x n M
        a = neumann_laplacian_2d(8, 8)
        p = aggregation_prolongation(64, 2)
        built = []
        calls = eigensolves(monkeypatch, lambda: built.append(
            build_hierarchy(a, p, smoother)))
        gauss_seidel = isinstance(smoother, GaussSeidel)
        assert calls == [("eigh", 64), ("eigh", 32)] + [("eigvalsh", 63)] * (
            not gauss_seidel)
        if gauss_seidel:
            assert type(built[0].M) is LowerBandSolve

    def test_gauss_seidel_solve_runs_no_order_n_eigensolve(self, monkeypatch):
        # neumann2d:32x32, aggregation by 4: A and Ac (nc = 256) are graph
        # Laplacians certified by structure, so set-up solves nothing, and
        # the first sweep's Ac^+ comes from Ac's pinned Cholesky factor
        state = {}

        def set_up():
            a, p, state["f"], state["u_ref"] = generate_problem(
                NeumannLaplacian2D(32, 32), group=4, seed=0)
            state["h"] = build_hierarchy(a, p, GaussSeidel())

        assert eigensolves(monkeypatch, set_up) == []
        monkeypatch.undo()
        h = state["h"]
        calls = eigensolves(monkeypatch, lambda: state.update(trace=iterate(
            h, state["f"], np.zeros(h.n), 120, u_ref=state["u_ref"])))
        assert calls == [] and h.nc == 256 and h.Ac.eig is None
        errors = state["trace"].errors_A
        assert min(errors) <= 1e-10 * errors[0]

    def test_jacobi_setup_on_a_certified_laplacian_solves_its_smoother(
            self, monkeypatch):
        # n = 256, nc = 128: A and Ac are certified by structure; the Jacobi
        # check still solves the smoother spectrum (order r), whose form
        # reads A through its pinned Cholesky factor F, with no spectrum of A
        a, p, _, _ = generate_problem(NeumannLaplacian2D(16, 16), group=2, seed=0)
        assert a.components is not None and a.eig is None
        calls = eigensolves(
            monkeypatch, lambda: build_hierarchy(a, p, WeightedJacobi(2.0 / 3.0)))
        assert calls == [("eigvalsh", 255)] and a.eig is None

    @pytest.mark.parametrize("smoother", [GaussSeidel(), WeightedJacobi(2.0 / 3.0)],
                             ids=["gs", "jacobi"])
    def test_isolated_node_rejected_without_a_spectrum(self, monkeypatch, smoother):
        # a path on 128 nodes and node 128 isolated (n^2 >= 2^14): the zero
        # diagonal entry is found by structure, with no eigen-solve at all
        edges = tuple((i, i + 1) for i in range(127))
        a, p, _, _ = generate_problem(GraphLaplacian(edges, n=129), seed=0)
        assert a.components is not None and a.rank == 127
        raised = []

        def set_up():
            with pytest.raises(SmootherError) as err:
                build_hierarchy(a, p, smoother)
            raised.append(str(err.value))

        assert eigensolves(monkeypatch, set_up) == []
        assert raised == [
            "diagonal entry 128 of A is zero; the matching row and column are zero "
            "as well, so solve the reduced system with that index removed"]

    @pytest.mark.parametrize("smoother", [WeightedJacobi(2.0 / 3.0), GaussSeidel()],
                             ids=["jacobi", "gs"])
    def test_no_mtilde_form_is_built(self, smoother):
        # neither Mtilde nor its r x r form is ever kept, and the form has no
        # spectrum of its own: a report reads only its two compressions. Set-up
        # builds the smoother form only to certify Jacobi on its spectrum.
        h, bc = neumann2d_report_inputs(smoother)
        assert ("forms" in vars(h)) == isinstance(smoother, WeightedJacobi)
        convergence_report(h, coarse=bc, epsilon=0.3)
        assert {"complement_spectrum", "coarse_spectrum"} <= vars(h.forms).keys()
        for name in ("Mtilde", "mtilde_form", "mtilde_spectrum"):
            assert not hasattr(h, name) and not hasattr(h.forms, name), name
        square = {name for name, value in {**vars(h), **vars(h.forms)}.items()
                  if isinstance(value, np.ndarray) and value.shape == (h.r, h.r)}
        assert square <= {"smoother_product", "smoother_form", "pre_smoother"}, square


@pytest.mark.parametrize("build", [
    *CORPUS_BUILDS,
    *[pytest.param(lambda t=t: scaled_jacobi_hierarchy(t), id=f"{t:g}*jacobi")
      for t in (1e-7, 1e-10)],
    ZERO_SMOOTHER_BUILD,
])
def test_smoother_forms_match_the_paper_formulas(build):
    """The forms read off B = F M F^T agree with the conjugated n x n Mbar
    and Mtilde to rounding, relative to the largest entry, however small M."""
    h = build()
    f = h.A.factor
    for form, formula in ((h.forms.smoother_form, mbar), (mtilde_form(h), mtilde)):
        ref = sym_part(f @ formula(h) @ f.T)
        assert np.max(np.abs(form - ref)) <= 1e-13 * np.max(np.abs(ref))
