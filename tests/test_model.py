"""Tests for smoother construction, hierarchy assembly, and generators."""
import importlib.util
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.sparse import csr_array

from twogrid import corpus
from twogrid.analysis import check_conditions, convergence_report
from twogrid.cli import parse_problem, parse_smoother
from twogrid.errors import (
    EdgeError,
    NotSpsdError,
    SmootherAssumptionError,
    SmootherError,
)
from twogrid.csr import CsrArray
from twogrid.linalg import (PSD_SLACK, SPARSE_MIN_ENTRIES, SpsdOperator,
                            TolerancePolicy, assemble, dense, spsd_certify,
                            sym_part)
from twogrid.model import (
    CustomSmoother,
    GaussSeidel,
    NeumannLaplacian1D,
    NeumannLaplacian2D,
    GraphLaplacian,
    LowerBandSolve,
    RandomSpsd,
    TwoGridHierarchy,
    WeightedJacobi,
    aggregation_prolongation,
    build_hierarchy,
    build_smoother,
    generate_problem,
    graph_laplacian,
    neumann_laplacian_1d,
    neumann_laplacian_2d,
    random_spsd,
)
from twogrid.solver import iterate, tg_sweep

ROOT = Path(__file__).resolve().parents[1]


def certify(a):
    return spsd_certify(a, TolerancePolicy.for_dimension(a.shape[0]))


def dense_smoother(h):
    """M as an n x n array; a Gauss-Seidel M is tril(A)^{-1}, built here."""
    if not isinstance(h.M, LowerBandSolve):
        return dense(h.M)
    return solve_triangular(np.tril(dense(h.A.matrix)), np.eye(h.n), lower=True)


def paper_mbar(h):
    """The paper's n x n Mbar = M + M^T - M^T A M."""
    m = dense_smoother(h)
    return sym_part(m + m.T - m.T @ dense(h.A.matrix) @ m)


def reachable_arrays(obj, seen=None):
    """Every ndarray reachable from obj through instance attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [x for item in obj for x in reachable_arrays(item, seen)]
    return [x for value in getattr(obj, "__dict__", {}).values()
            for x in reachable_arrays(value, seen)]


class TestBuildSmoother:
    def test_jacobi_unit_diagonal(self):
        a = certify(np.eye(3))
        m = build_smoother(WeightedJacobi(0.5), a)
        assert type(m) is np.ndarray and np.array_equal(m, 0.5 * np.eye(3))

    def test_gauss_seidel_two_by_two(self):
        a = certify(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        m = build_smoother(GaussSeidel(), a)
        assert np.allclose(m @ np.eye(2), [[0.5, 0.0], [0.25, 0.5]])

    def test_jacobi_mbar_is_spd_on_neumann(self):
        h = build_hierarchy(neumann_laplacian_1d(8), aggregation_prolongation(8, 2),
                            WeightedJacobi(2.0 / 3.0))
        assert h.mbar_min_eig > 0.0 and h.mbar_ends.shape == (1,)
        # closed form omega^2 D^{-1} (2 omega^{-1} D - A) D^{-1}
        d = np.diag(h.A.matrix)
        omega = 2.0 / 3.0
        closed = omega ** 2 * np.diag(1.0 / d) @ (3.0 * np.diag(d) - h.A.matrix) @ np.diag(1.0 / d)
        assert abs(h.mbar_min_eig - np.linalg.eigvalsh(closed)[0]) <= 1e-13

    def test_gauss_seidel_mbar_is_spd(self):
        h = build_hierarchy(neumann_laplacian_1d(8), aggregation_prolongation(8, 2),
                            GaussSeidel())
        assert h.mbar_min_eig > 0.0 and h.mbar_ends.shape == (1,)

    def test_zero_diagonal_rejected_with_index(self):
        a = certify(np.diag([1.0, 0.0, 2.0]))
        with pytest.raises(SmootherError, match="entry 1"):
            build_smoother(WeightedJacobi(0.5), a)
        with pytest.raises(SmootherError, match="entry 1"):
            build_smoother(GaussSeidel(), a)

    @pytest.mark.parametrize("spec", [WeightedJacobi(0.5), GaussSeidel()], ids=repr)
    def test_tiny_nonzero_diagonal_named_by_its_value(self, spec):
        # entry 0 is 1e-320, not zero: it is named with the floor it fails
        a = certify(graph_laplacian([(0, 1, 1e-320), (1, 2), (2, 3)]))
        assert a.matrix[0, 0] == 1e-320 and a.eig.values[-1] == pytest.approx(3.0)
        with pytest.raises(SmootherError) as err:
            build_smoother(spec, a)
        floor = PSD_SLACK * float(a.eig.values[-1])
        assert str(err.value) == (
            f"diagonal entry 0 of A is 9.999889e-321, not above the floor "
            f"psd_slack * lambda_max = {floor:.6e}")

    def test_nonpositive_weight_rejected(self):
        a = certify(np.eye(2))
        with pytest.raises(SmootherError, match="positive"):
            build_smoother(WeightedJacobi(0.0), a)

    def test_custom_shape_checked(self):
        a = certify(np.eye(3))
        with pytest.raises(SmootherError, match="shape"):
            build_smoother(CustomSmoother(np.eye(2)), a)


class TestLowerBandSolve:
    @pytest.mark.parametrize("problem", [NeumannLaplacian1D(8), NeumannLaplacian2D(8, 8),
                                         NeumannLaplacian2D(32, 32),
                                         RandomSpsd(20, 13, 4)], ids=repr)
    def test_band_solve_applies_the_triangular_inverse(self, problem):
        # M v, M^T v and X M are band solves on tril(A): no n x n M is formed
        a = generate_problem(problem)[0]
        m = build_smoother(GaussSeidel(), a)
        ref = solve_triangular(np.tril(dense(a.matrix)), np.eye(a.n), lower=True)
        assert type(m) is LowerBandSolve and m.shape == (a.n, a.n)
        assert m.nbytes == m.band.nbytes <= ref.nbytes
        v = np.arange(a.n, dtype=float)
        x = np.vstack([v, v[::-1]])
        for got, exact in ((m @ v, ref @ v), (m.T @ v, ref.T @ v),
                           (x @ m, x @ ref), (v @ m, v @ ref)):
            assert got.shape == exact.shape
            assert np.allclose(got, exact, rtol=1e-12, atol=0.0)
        assert [id(array) for array in reachable_arrays(m)] == [id(m.band)]


def hierarchy_with(a, smoother):
    """A hierarchy on `a` (n >= 4) with aggregation by 2."""
    a = certify(a)
    return build_hierarchy(a, aggregation_prolongation(a.n, 2), smoother)


def mtilde_form(h):
    """F Mtilde F^T = B + B^T - B B^T, formed here: the analysis reads only
    its compressions onto Q and Q_perp."""
    b = h.forms.smoother_product
    return sym_part(b + b.T - b @ b.T)


class TestMbarMtilde:
    def test_identity_smoother(self):
        h = hierarchy_with(np.diag([0.5, 1.0, 1.5, 1.25]), CustomSmoother(np.eye(4)))
        assert np.allclose(h.mbar_ends, [np.min(2.0 - np.diag(h.A.matrix))])

    def test_zero_smoother(self):
        h = hierarchy_with(np.eye(4), CustomSmoother(np.zeros((4, 4))))
        assert np.array_equal(h.mbar_ends, [0.0])
        assert not h.forms.complement_spectrum.any() and not h.forms.coarse_spectrum.any()

    def test_symmetric_smoother_makes_them_equal(self):
        rng = np.random.default_rng(3)
        a = sym_part(np.diag(rng.uniform(0.5, 2.0, size=6)))
        g = rng.standard_normal((6, 6))
        m = sym_part(g @ g.T)
        m *= 0.5 / np.linalg.norm(m, 2)  # ||M|| ||A|| <= 1: Mbar >= M >= 0
        h = hierarchy_with(a, CustomSmoother(m))
        forms = h.forms
        q = forms.coarse_factors[0]
        assert np.allclose(forms.coarse_spectrum,
                           np.linalg.eigvalsh(q.T @ forms.smoother_form @ q),
                           rtol=0.0, atol=1e-15)
        assert h.mbar_min_eig >= 0.0

    def test_jacobi_eigenvalue_formula(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((6, 6))
        a_raw = sym_part(g @ g.T)
        a_raw = a_raw / np.max(np.abs(np.diag(a_raw)))
        np.fill_diagonal(a_raw, 1.0)  # unit diagonal, stays SPD for mild off-diagonal
        a_raw = sym_part(0.1 * a_raw + 0.9 * np.eye(6))
        omega = 0.4
        h = hierarchy_with(a_raw, WeightedJacobi(omega))  # unit diagonal: M = omega I
        lam = np.linalg.eigvalsh(h.A.matrix)
        expected = np.sort(2.0 * omega - omega ** 2 * lam)
        assert abs(h.mbar_min_eig - expected[0]) <= 1e-12

    @pytest.mark.parametrize("grid", [8, 16], ids=["dense", "lanczos-csr"])
    def test_indefinite_jacobi_mbar_reads_both_ends(self, grid):
        # omega = 1.5 is past Jacobi's limit on a grid, so lambda_min < 0 and
        # the top end follows for spectrum_psd's scale; at 16 x 16 (n = 256)
        # Mbar is CSR and both ends are Lanczos reads
        a, p, _, _ = generate_problem(NeumannLaplacian2D(grid, grid), group=2)
        w = 1.5 / dense(a.matrix).diagonal()
        m = assemble(np.arange(a.n) * (a.n + 1), w, (a.n, a.n))
        assert type(m) is (CsrArray if grid == 16 else np.ndarray)
        ac = spsd_certify(p.T @ (a.matrix @ p), a.policy)
        h = TwoGridHierarchy(A=a, M=m, P=p, Ac=ac)
        mbar = np.diag(2.0 * w) - w[:, None] * dense(a.matrix) * w
        ref = np.linalg.eigvalsh(mbar)
        assert ref[0] < 0.0 and h.mbar_ends.shape == (2,)
        assert np.allclose(h.mbar_ends, ref[[0, -1]], rtol=1e-13, atol=0.0)
        assert not check_conditions(h).suff_cond_ok
        assert h.mbar_min_eig == h.mbar_ends[0]

    def test_gauss_seidel_mtilde_spectrum_in_unit_box(self):
        # the form's spectrum and its two compressions, which interlace it
        h = hierarchy_with(neumann_laplacian_1d(8), GaussSeidel())
        for w in (np.linalg.eigvalsh(mtilde_form(h)), h.forms.complement_spectrum,
                  h.forms.coarse_spectrum):
            assert w[0] >= -PSD_SLACK
            assert w[-1] <= 1.0 + PSD_SLACK


@pytest.mark.parametrize("t", [1e-7, 1e-10, 1e-13])
@pytest.mark.parametrize("kind", ["jacobi", "gs"])
def test_mtilde_compressions_match_extended_precision(kind, t):
    # V^T (B + B^T - B B^T) V for V = Q_perp and V = Q, with B = F M F^T and
    # M = t * Jacobi 2/3 or t * Gauss-Seidel (nonsymmetric), assembled in
    # long double from the same F, Q and Q_perp: a small M loses no digits
    a = certify(neumann_laplacian_1d(16))
    m = (np.diag((2.0 / 3.0) / np.diag(a.matrix)) if kind == "jacobi"
         else solve_triangular(np.tril(a.matrix), np.eye(16), lower=True))
    h = build_hierarchy(a, aggregation_prolongation(16, 2), CustomSmoother(t * m))
    f = h.A.factor.astype(np.longdouble)
    b = f @ (np.longdouble(t) * m.astype(np.longdouble)) @ f.T
    form = b + b.T - b @ b.T
    q, _, q_perp = h.forms.coarse_factors
    for v, w in ((q_perp, h.forms.complement_spectrum[h.s:]),
                 (q, h.forms.coarse_spectrum)):
        vl = v.astype(np.longdouble)
        ref = np.linalg.eigvalsh(np.float64(vl.T @ form @ vl))
        smallest = float(np.min(ref[ref > h.policy.rank_rel_tol * ref[-1]]))
        assert np.max(np.abs(w - ref)) <= 1e-12 * smallest, (v.shape, w, ref)


class TestBuildHierarchy:
    def test_diagonal_galerkin(self):
        a = certify(np.diag([2.0, 1.0, 0.0]))
        p = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        h = build_hierarchy(a, p, CustomSmoother(0.25 * np.eye(3)))
        assert np.allclose(h.Ac.matrix, np.diag([2.0, 1.0]))
        assert (h.r, h.s) == (2, 2)

    def test_zero_column_accepted(self):
        a = certify(neumann_laplacian_1d(6))
        p = aggregation_prolongation(6, 2)
        p[:, 2] = 0.0
        h = build_hierarchy(a, p, WeightedJacobi(2.0 / 3.0))
        assert h.s < p.shape[1]

    def test_neumann_ranks(self):
        a = certify(neumann_laplacian_1d(8))
        p = aggregation_prolongation(8, 2)
        h = build_hierarchy(a, p, WeightedJacobi(2.0 / 3.0))
        assert (h.r, h.s) == (7, 3)

    def test_unread_operators_are_not_built(self):
        # set-up reads A's thin factor only: nothing coarse is built, and
        # neither are A^+, Ac^+ or Ac's factor
        h = build_hierarchy(neumann_laplacian_1d(8), aggregation_prolongation(8, 2),
                            WeightedJacobi(2.0 / 3.0))
        assert not hasattr(h, "Pi") and not hasattr(h.A, "sqrt")
        assert "coarse_factors" not in vars(h.forms)
        assert "pinv" not in vars(h.A) and "factor" not in vars(h.Ac)
        assert "factor" in vars(h.A) and "pinv" not in vars(h.Ac)
        assert "PT" not in vars(h)

    def test_forms_are_built_in_analysis_on_first_read(self):
        # the hierarchy holds operators only; its r x r forms are kept on
        # h.forms, which a Gauss-Seidel set-up never builds and a Jacobi
        # set-up builds only as far as the smoother check reads
        for name in ("coarse_factors", "Q", "R", "Q_perp", "smoother_product",
                     "smoother_form", "smoother_spectrum", "pre_smoother",
                     "restricted_pre_smoother", "_mtilde_spectrum",
                     "complement_spectrum", "coarse_spectrum"):
            assert not hasattr(TwoGridHierarchy, name), name
        a = certify(neumann_laplacian_1d(8))
        p = aggregation_prolongation(8, 2)
        assert "forms" not in vars(build_hierarchy(a, p, GaussSeidel()))
        h = build_hierarchy(a, p, WeightedJacobi(2.0 / 3.0))
        assert "forms" in vars(h) and h.forms is h.forms
        assert vars(h.forms).keys() == {"A", "M", "P", "s", "smoother_product",
                                        "smoother_form", "smoother_spectrum"}
        forms = h.forms
        assert forms.A is h.A and forms.M is h.M and forms.P is h.P and forms.s == h.s

    def test_four_inputs_derive_the_rest(self):
        assert [f.name for f in fields(SpsdOperator)] == [
            "matrix", "rank", "policy", "components", "eig"]
        assert [f.name for f in fields(TwoGridHierarchy)] == ["A", "M", "P", "Ac"]
        a = certify(neumann_laplacian_1d(10))
        p = aggregation_prolongation(10, 2)
        ac = spsd_certify(sym_part(p.T @ a.matrix @ p), a.policy)
        h = TwoGridHierarchy(A=a, M=build_smoother(GaussSeidel(), a), P=p, Ac=ac)
        built = build_hierarchy(a, p, GaussSeidel())
        for name in ("smoother_product", "smoother_form", "pre_smoother",
                     "complement_spectrum", "coarse_spectrum"):
            assert np.array_equal(getattr(h.forms, name), getattr(built.forms, name)), name
        for mine, theirs in zip(h.forms.coarse_factors, built.forms.coarse_factors):
            assert np.array_equal(mine, theirs)
        assert (h.r, h.s) == (a.rank, ac.rank) == (9, 4)

    def test_setup_and_sweeps_form_no_n_by_n_smoother(self):
        # set-up and the sweeps read no smoother form and no Mbar spectrum,
        # and M holds no n x n array
        a, p, f, u_ref = generate_problem(NeumannLaplacian1D(12), group=2, seed=0)
        h = build_hierarchy(a, p, GaussSeidel())
        for variant in ("tg", "stg"):
            iterate(h, f, np.zeros(h.n), 3, variant, u_ref=u_ref)
        for name in ("forms", "mbar_ends"):
            assert name not in vars(h), name
        assert all(array.shape != (h.n, h.n) for array in reachable_arrays(h.M))

    def test_analysed_gauss_seidel_m_holds_no_n_by_n_array(self):
        # the analysis reads M through band solves as well: after a full
        # report, M and M^T still hold only their band
        a, p, _, _ = generate_problem(NeumannLaplacian2D(32, 32), group=4, seed=0)
        h = build_hierarchy(a, p, GaussSeidel())
        convergence_report(h, coarse=2.0 * h.Ac.matrix, epsilon=0.3)
        assert "smoother_product" in vars(h.forms) and "mbar_ends" in vars(h)
        arrays = reachable_arrays(h.M)
        assert arrays and all(array.shape != (h.n, h.n) for array in arrays)

    def test_zero_coarse_matrix_rejected(self):
        a = certify(np.diag([0.0, 0.0, 1.0]))
        p = np.array([[1.0], [0.0], [0.0]])
        with pytest.raises(NotSpsdError, match="coarse"):
            build_hierarchy(a, p, CustomSmoother(np.zeros((3, 3))))

    def test_expansive_smoother_rejected(self):
        a = certify(neumann_laplacian_1d(6))
        p = aggregation_prolongation(6, 2)
        with pytest.raises(SmootherAssumptionError, match="smallest eigenvalue of "
                           r"the smoother form F Mbar F\^T is -\d"):
            build_hierarchy(a, p, WeightedJacobi(1.9))

    @staticmethod
    def jacobi_limit(a):
        """Reference stability limit 2 / lambda_max(D^{-1/2} A D^{-1/2})."""
        scale = 1.0 / np.sqrt(np.diag(a.matrix))
        return 2.0 / np.linalg.eigvalsh(scale[:, None] * a.matrix * scale)[-1]

    def test_jacobi_check_is_the_weight_limit(self):
        a = certify(neumann_laplacian_1d(6))
        p = aggregation_prolongation(6, 2)
        limit = self.jacobi_limit(a)
        assert limit == pytest.approx(1.0, abs=1e-12)  # bipartite path graph
        build_hierarchy(a, p, WeightedJacobi(limit))
        with pytest.raises(SmootherAssumptionError,
                           match="Jacobi weight 1.01 exceeds the stability limit 1$"):
            build_hierarchy(a, p, WeightedJacobi(1.01 * limit))

    @pytest.mark.parametrize("factor", [1.01, 1.5, 10.0])
    def test_jacobi_limit_read_off_the_smoother_spectrum(self, factor):
        # the error solves the limit back from the most negative eigenvalue
        # of the smoother form; on a random matrix the limit is not 1
        a = certify(random_spsd(10, 6, 0))
        limit = self.jacobi_limit(a)
        assert abs(limit - 1.0) > 1e-3
        with pytest.raises(SmootherAssumptionError) as err:
            build_hierarchy(a, aggregation_prolongation(a.n, 2),
                            WeightedJacobi(factor * limit))
        assert str(err.value).endswith(f"stability limit {limit:.6g}")

    def test_projector_properties(self):
        a = certify(neumann_laplacian_1d(10))
        p = aggregation_prolongation(10, 2)
        h = build_hierarchy(a, p, GaussSeidel())
        tol = h.policy.match_tol
        pi_a = h.P @ h.Ac.pinv @ h.P.T @ h.A.matrix
        assert np.max(np.abs(pi_a @ pi_a - pi_a)) <= tol
        # Pi = Q Q^T: Q has s orthonormal columns and Q R = F P, with the
        # thin factor F = Lambda_r^{1/2} V_r^T formed here from A's eigenpairs
        for case in corpus.builtin_corpus():
            h, _, _ = corpus.build_case(case)
            q, r, _ = h.forms.coarse_factors
            lam, v = h.A.eig.values[h.n - h.r:], h.A.eig.vectors[:, h.n - h.r:]
            fp = np.sqrt(lam)[:, None] * (v.T @ h.P)
            assert q.shape == (h.r, h.s), case.name
            assert np.max(np.abs(q.T @ q - np.eye(h.s))) <= 1e-14, case.name
            assert (np.max(np.abs(q @ r - fp))
                    <= 1e-13 * np.max(np.abs(fp))), case.name

    def test_mbar_mtilde_conjugate_spectra_match(self):
        # the analysis reads the smoother spectrum as the Mtilde form's:
        # I - K^T K and I - K K^T share their eigenvalues
        cases = [case for case in corpus.builtin_corpus()
                 if isinstance(case.smoother, GaussSeidel)]
        assert len(cases) == 14
        for case in cases:
            h, _, _ = corpus.build_case(case)
            gap = np.max(np.abs(np.linalg.eigvalsh(mtilde_form(h))
                                - h.forms.smoother_spectrum))
            assert gap <= 1e-13, case.name

    def test_gauss_seidel_zero_diagonal_rejected(self):
        # node 3 is isolated: the band solve would divide by zero
        a = graph_laplacian([(0, 1), (1, 2)], n=4)
        with pytest.raises(SmootherError) as err:
            build_hierarchy(a, aggregation_prolongation(4, 2), GaussSeidel())
        assert str(err.value) == (
            "diagonal entry 3 of A is zero; the matching row and column are zero "
            "as well, so solve the reduced system with that index removed")

    def test_gauss_seidel_mbar_is_mt_d_m(self):
        # set-up certifies Gauss-Seidel by this identity, not by a spectrum:
        # Mbar = M^T D M with D = diag(A) > 0, so F M^T D M F^T is the
        # smoother form
        hierarchies = [corpus.build_case(case)[0] for case in corpus.builtin_corpus()
                       if isinstance(case.smoother, GaussSeidel)]
        a, p, _, _ = generate_problem(NeumannLaplacian2D(32, 32), group=4, seed=0)
        hierarchies.append(build_hierarchy(a, p, GaussSeidel()))
        assert len(hierarchies) == 15
        for h in hierarchies:
            m, f = dense_smoother(h), h.A.factor
            ref = f @ m.T @ (np.diag(dense(h.A.matrix))[:, None] * m) @ f.T
            gap = np.max(np.abs(ref - h.forms.smoother_form))
            assert gap <= 1e-13 * np.max(np.abs(ref)), h.n

    def test_gauss_seidel_mbar_min_eig_matches_the_paper_formula(self):
        # lambda_min(Mbar) is 1 / lambda_max(X X^T), X = tril(A) D^{-1/2}
        # read off M's band (by Lanczos on the CSR product at n = 1024); the
        # dense paper formula M + M^T - M^T A M is the reference, and the
        # sufficient condition reads the same
        hierarchies = [corpus.build_case(case)[0] for case in corpus.builtin_corpus()
                       if isinstance(case.smoother, GaussSeidel)]
        a, p, _, _ = generate_problem(NeumannLaplacian2D(32, 32), group=4, seed=0)
        hierarchies.append(build_hierarchy(a, p, GaussSeidel()))
        assert len(hierarchies) == 15
        for h in hierarchies:
            ref = np.linalg.eigvalsh(paper_mbar(h))
            assert h.mbar_ends.shape == (1,), h.n
            assert abs(h.mbar_min_eig - ref[0]) <= 1e-13 * abs(ref[0]), h.n
            twin = TwoGridHierarchy(A=h.A, M=dense_smoother(h), P=h.P, Ac=h.Ac)
            assert (check_conditions(h).suff_cond_ok
                    == check_conditions(twin).suff_cond_ok), h.n

    def test_raw_matrix_accepted(self):
        h = build_hierarchy(neumann_laplacian_1d(6), aggregation_prolongation(6, 2),
                            WeightedJacobi(0.5))
        assert h.n == 6 and h.nc == 3


def parity_problems(monkeypatch):
    """(label, A, P, smoother spec) of every problem tools/parity.py solves."""
    # the tool sets and clears these on import; monkeypatch restores them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    for var in ("RANK_REL_TOL", "MATCH_TOL"):
        monkeypatch.delenv(var, raising=False)
    spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    problems = [(f"{problem} {smoother}", problem, parse_smoother(smoother))
                for problem, smoother in parity.PROBLEMS]
    problems += [(f"{problem} custom {label}", problem, CustomSmoother(matrix))
                 for problem, label, matrix in parity.CUSTOM]
    return [(label, *generate_problem(parse_problem(problem), group=2, seed=0)[:2],
             smoother) for label, problem, smoother in problems]


class TestSweepOperators:
    @staticmethod
    def assert_own_arrays(h, label):
        # a small P is held and swept as an ndarray, P^T as its view; a
        # Gauss-Seidel M and M^T as its band solves at every size, a Jacobi
        # or custom M below the gate as its ndarray
        assert type(h.P) is np.ndarray, label
        assert h.PT.base is h.P and h.PT.shape == h.P.T.shape, label
        if isinstance(h.M, LowerBandSolve):
            assert type(h.M.T) is LowerBandSolve and h.M.T.band is h.M.band, label
        else:
            assert type(h.M) is np.ndarray and h.M.size < SPARSE_MIN_ENTRIES, label

    def test_solve_2d_hierarchy(self):
        # neumann2d:32x32, GS, agg 4: A, P and P^T are sparse; M and M^T are
        # one band solve on tril(A), whose bandwidth is the grid width
        a, p, _, _ = generate_problem(NeumannLaplacian2D(32, 32), group=4, seed=0)
        h = build_hierarchy(a, p, GaussSeidel())
        ops = (h.A.matrix, h.M, h.M.T, h.P, h.PT)
        assert h.PT is h.PT
        assert [type(op) for op in ops] == [CsrArray, LowerBandSolve, LowerBandSolve,
                                            CsrArray, csr_array]
        a_op, m, mt, p_op, pt = ops
        assert mt is h.M.T and mt.T.trans == "N"
        assert (m.trans, mt.trans) == ("N", "T") and mt.band is m.band is mt.T.band
        assert m.band.shape == (33, h.n) and m.band.flags.f_contiguous
        # A and P hold the bytes csr_array gives the dense Laplacian and
        # aggregation, and P^T is their CSR transpose
        lap = neumann_laplacian_1d(32)
        agg = np.zeros((h.n, h.nc))
        agg[np.arange(h.n), np.arange(h.n) // 4] = 1.0
        for op, matrix in ((a_op, np.kron(lap, np.eye(32)) + np.kron(np.eye(32), lap)),
                           (p_op, agg), (pt, agg.T)):
            ref = csr_array(matrix)
            for name in ("data", "indices", "indptr"):
                mine, theirs = getattr(op, name), getattr(ref, name)
                assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
        v = np.random.default_rng(0).standard_normal(h.n)
        dense = dense_smoother(h)
        for op, matrix in ((m, dense), (mt, dense.T)):
            exact = matrix @ v
            assert np.linalg.norm(op @ v - exact) <= 1e-14 * np.linalg.norm(exact)
        # an ndarray M is held and swept as that array, even tril(A)^{-1}
        for matrix in (0.9 * dense, dense):
            other = TwoGridHierarchy(A=h.A, M=matrix, P=h.P, Ac=h.Ac)
            tg_sweep(other, v, h.A.matrix @ v)
            assert other.M is matrix and other.M.T.base is matrix
        # a Jacobi M of the same size is its diagonal in CSR, no n x n
        # array; M v and M^T v have the bytes of the diagonal scaling
        m = build_smoother(WeightedJacobi(), h.A)
        w = (2.0 / 3.0) / h.A.matrix.diagonal()
        assert type(m) is CsrArray and m.nnz == h.n
        assert m.nbytes == h.n * (8 + 4) + (h.n + 1) * 4
        assert (m @ v).tobytes() == (m.T @ v).tobytes() == (w * v).tobytes()

    def test_sweeps_keep_one_operator_of_their_own(self):
        # after a report, three sweeps on the solve-2d hierarchy add one
        # entry to it, the CSR P^T; A, M and P are applied as held
        a, p, f, u_ref = generate_problem(NeumannLaplacian2D(32, 32), group=4, seed=0)
        h = build_hierarchy(a, p, GaussSeidel())
        convergence_report(h)
        before = set(vars(h))
        iterate(h, f, np.zeros(h.n), 3, "tg", u_ref=u_ref)
        assert set(vars(h)) - before == {"PT"}
        assert type(h.PT) is csr_array
        ref = csr_array(dense(h.P).T)
        for name in ("data", "indices", "indptr"):
            assert getattr(h.PT, name).tobytes() == getattr(ref, name).tobytes()

    def test_benchmark_reads_the_band_solve(self):
        # perfbench's solve-2d workload sizes the hierarchy it sweeps through
        # these two helpers; both read a Gauss-Seidel M as its band
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        a, p, _, _ = generate_problem(NeumannLaplacian2D(32, 32), group=4, seed=0)
        h = build_hierarchy(a, p, GaussSeidel())
        assert workloads.sweep_arrays(h)["M"] == h.M.band.nbytes == 33 * 1024 * 8
        assert workloads.hierarchy_arrays(h)["M.band"] == h.M.band.nbytes

    def test_dense_a_gives_a_full_band(self):
        # a dense A: tril(A) is a full triangle, kd = n - 1
        a, p, _, _ = generate_problem(RandomSpsd(128, 96, 0), group=2, seed=0)
        h = build_hierarchy(a, p, GaussSeidel())
        m, mt = h.M, h.M.T
        assert type(m) is LowerBandSolve and m.band.shape == (128, 128)
        v = np.random.default_rng(1).standard_normal(h.n)
        dense = dense_smoother(h)
        for op, matrix in ((m, dense), (mt, dense.T)):
            exact = matrix @ v
            assert np.linalg.norm(op @ v - exact) <= 1e-12 * np.linalg.norm(exact)

    def test_band_solve_raises_on_a_zero_pivot(self):
        band = np.array([[1.0, 0.0, 2.0], [1.0, 1.0, 0.0]])
        with pytest.raises(SmootherError, match="LAPACK info 2"):
            LowerBandSolve(band) @ np.ones(3)

    def test_corpus_keeps_its_arrays(self):
        for case in corpus.builtin_corpus():
            h, _, _ = corpus.build_case(case)
            self.assert_own_arrays(h, case.name)

    def test_parity_problems_keep_their_arrays(self, monkeypatch):
        problems = parity_problems(monkeypatch)
        assert len(problems) == 8
        for label, a, p, smoother in problems:
            self.assert_own_arrays(build_hierarchy(a, p, smoother), label)

    @pytest.mark.parametrize("problem,group,a_csr,p_csr", [
        (NeumannLaplacian2D(8, 16), 2, True, False),    # A 2^14 entries, P 2^13
        (NeumannLaplacian1D(127), 2, False, False),     # A 2^14 - 255 entries
        (NeumannLaplacian2D(16, 16), 4, True, True),    # P 256 x 64 = 2^14 entries
        (NeumannLaplacian2D(32, 32), 64, True, True),   # P 1024 x 16, 1/16 nonzero
    ], ids=["8x16-agg2", "1d-127", "16x16-agg4", "32x32-agg64"])
    def test_thresholds(self, problem, group, a_csr, p_csr):
        # the entry count alone decides where A and P are built in CSR, and
        # a sweep applies that form, P^T in CSR exactly when P is
        assert SPARSE_MIN_ENTRIES == 2 ** 14
        a, p, f, _ = generate_problem(problem, group=group, seed=0)
        h = build_hierarchy(a, p, GaussSeidel())
        tg_sweep(h, np.zeros(h.n), f)
        assert type(h.A.matrix) is (CsrArray if a_csr else np.ndarray)
        assert type(h.P) is (CsrArray if p_csr else np.ndarray)
        assert type(h.PT) is (csr_array if p_csr else np.ndarray)


def jacobi_cases():
    """(label, hierarchy, f, u_ref) of every Jacobi corpus case and of the
    analyze-2d benchmark set-up (neumann2d:24x24, Jacobi 2/3, aggregation 2)."""
    cases = [(case.name, *corpus.build_case(case)) for case in corpus.builtin_corpus()
             if isinstance(case.smoother, WeightedJacobi)]
    a, p, f, u_ref = generate_problem(NeumannLaplacian2D(24, 24), group=2, seed=0)
    cases.append(("analyze-2d", build_hierarchy(a, p, WeightedJacobi(2.0 / 3.0)),
                  f, u_ref))
    return cases


class TestDiagonalJacobi:
    """Jacobi's M is the matrix diag(omega / d), assembled: an ndarray below
    the 2^14-entry gate, a CsrArray from it on, with the bytes of the
    diagonal scaling in every product the hierarchy and the sweeps take."""

    def test_every_jacobi_case_gives_the_dense_diagonal_bytes(self):
        cases = jacobi_cases()
        assert len(cases) == 8
        for label, h, f, u_ref in cases:
            big = h.n * h.n >= SPARSE_MIN_ENTRIES
            assert type(h.M) is (CsrArray if big else np.ndarray), label
            w = h.M.diagonal()
            fa = h.A.factor
            # B = F M F^T has the bytes of (F * w) F^T, the column scaling
            assert h.forms.smoother_product.tobytes() == ((fa * w) @ fa.T).tobytes(), label
            # Mbar's ends, read by spectrum_end, against the paper's dense
            # Mbar solved in full
            ends, ref = h.mbar_ends, np.linalg.eigvalsh(paper_mbar(h))
            ref = ref[:1] if ref[0] >= 0.0 else ref[[0, -1]]
            assert ends.shape == ref.shape, label
            assert np.all(np.abs(ends - ref) <= 1e-13 * np.abs(ref)), label
            twin = TwoGridHierarchy(A=h.A, M=np.diag(w), P=h.P, Ac=h.Ac)
            bc = spsd_certify(2.0 * h.Ac.matrix, h.policy)
            u0 = np.random.default_rng(5).standard_normal(h.n)
            for variant, coarse in (("tg", None), ("stg", None), ("itg", bc)):
                mine, theirs = (iterate(x, f, u0, 6, variant, coarse, u_ref=u_ref)
                                for x in (h, twin))
                assert mine.errors_A == theirs.errors_A, (label, variant)
                assert mine.residuals == theirs.residuals, (label, variant)

    @pytest.mark.parametrize("problem", [NeumannLaplacian2D(8, 8),
                                         NeumannLaplacian2D(12, 12)],
                             ids=["dense-eigen-factor", "csr-structural-factor"])
    def test_factor_times_m_is_the_column_scaling(self, problem):
        # F @ M, dense at n = 64, CSR at n = 144 on the column-major pinned
        # Cholesky factor, has the bytes of F * (omega / d)
        a = generate_problem(problem)[0]
        m = build_smoother(WeightedJacobi(0.5), a)
        assert type(m) is (CsrArray if a.n == 144 else np.ndarray)
        f = a.factor
        product = f @ m
        assert product.tobytes() == (f * (0.5 / dense(a.matrix).diagonal())).tobytes()

    def test_jacobi_hierarchy_holds_no_n_by_n_smoother(self):
        # not after set-up, the sweeps or a full report: above the gate M is
        # its diagonal in CSR
        _, h, f, u_ref = jacobi_cases()[-1]
        iterate(h, f, np.zeros(h.n), 2, "stg", u_ref=u_ref)
        convergence_report(h, coarse=2.0 * h.Ac.matrix, epsilon=0.3)
        assert "smoother_product" in vars(h.forms) and "mbar_ends" in vars(h)
        assert type(h.M) is CsrArray and h.M.nnz == h.n
        arrays = reachable_arrays(h.M)
        assert arrays and all(array.shape != (h.n, h.n) for array in arrays)


class TestGenerators:
    def test_neumann_1d_stencil(self):
        a = neumann_laplacian_1d(4)
        assert np.array_equal(a[0], [1.0, -1.0, 0.0, 0.0])
        assert np.array_equal(a[1], [-1.0, 2.0, -1.0, 0.0])
        assert certify(a).rank == 3

    def test_neumann_2d_rank(self):
        a = neumann_laplacian_2d(3, 4)
        op = certify(a)
        assert op.rank == 11
        assert np.allclose(a @ np.ones(12), 0.0)

    def test_path_graph_laplacian(self):
        a = graph_laplacian([(0, 1, 1.0), (1, 2, 1.0)])
        assert np.array_equal(a, [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative weight"):
            graph_laplacian([(0, 1, -1.0)])

    def test_random_rank(self):
        a, p, f, u_ref = generate_problem(RandomSpsd(n=10, rank=6, seed=7))
        assert a.rank == 6
        assert p.shape == (10, 5)
        assert np.allclose(f, a.matrix @ u_ref)

    def test_rhs_in_range(self):
        a, _, f, _ = generate_problem(NeumannLaplacian1D(12), seed=3)
        resid = np.max(np.abs(a.null_basis.T @ f))
        assert resid <= a.policy.match_tol * max(1.0, np.linalg.norm(f))

    def test_generated_rhs_reproducible(self):
        first = generate_problem(GraphLaplacian(((0, 1, 2.0), (1, 2, 1.0))), seed=5)
        second = generate_problem(GraphLaplacian(((0, 1, 2.0), (1, 2, 1.0))), seed=5)
        assert np.array_equal(first[2], second[2])
        assert np.array_equal(first[3], second[3])

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 101])
    def test_generators_keep_the_bytes_of_their_loops(self, n):
        a = np.zeros((n, n))
        for i in range(n - 1):
            a[i, i] += 1.0
            a[i + 1, i + 1] += 1.0
            a[i, i + 1] -= 1.0
            a[i + 1, i] -= 1.0
        assert np.array_equal(neumann_laplacian_1d(n), a)
        assert neumann_laplacian_1d(n).tobytes() == a.tobytes()
        for group in (2, 3, 4):
            nc = max(1, n // group)
            p = np.zeros((n, nc))
            for i in range(n):
                p[i, min(i // group, nc - 1)] = 1.0
            assert np.array_equal(aggregation_prolongation(n, group), p)
            assert aggregation_prolongation(n, group).tobytes() == p.tobytes()
        for ny in (2, 5, 9):
            # + 0.0 turns kron's -0.0 products (-1 * 0) into the +0.0 of a sum
            kron = (np.kron(neumann_laplacian_1d(n), np.eye(ny))
                    + np.kron(np.eye(n), neumann_laplacian_1d(ny)) + 0.0)
            assert dense(neumann_laplacian_2d(n, ny)).tobytes() == kron.tobytes()
        rng = np.random.default_rng(n)
        u = rng.integers(0, n, 3 * n)
        v = (u + rng.integers(1, n, 3 * n)) % n
        w = np.where(rng.random(3 * n) < 0.2, 0.0,
                     rng.random(3 * n) * 10.0 ** rng.integers(-8, 3, 3 * n))
        edges = [(int(a), int(b), float(c)) for a, b, c in zip(u, v, w)]
        edges += [(b, a, 0.5 * c) for a, b, c in edges[::3]]  # reversed
        edges += edges[::5]  # repeated
        edges += [(a, b) for a, b, _ in edges[::7]]  # unit weight
        edges = [edges[k] for k in rng.permutation(len(edges))]
        a = np.zeros((n, n))
        for edge in edges:
            i, j, c = edge if len(edge) == 3 else (*edge, 1.0)
            a[i, i] += c
            a[j, j] += c
            a[i, j] -= c
            a[j, i] -= c
        assert graph_laplacian(edges, n).tobytes() == a.tobytes()

    @pytest.mark.parametrize("edges, n, message", [
        ([(0, 1), (2, 2)], None, "self loop at node 2 is not allowed"),
        ([(0, 1, -1.0)], None, "edge (0, 1) has negative weight -1.0"),
        ([(0, -1)], None, "edge (0, -1) has a negative node index"),
        ([(0, 1), (1, 5)], 3, "edge (1, 5) exceeds node count 3"),
        ([], None, "graph needs at least two nodes"),
        ([(0, 1)], 1, "graph needs at least two nodes"),
        ([(3, 3, -1.0)], None, "self loop at node 3 is not allowed"),
        ([(-1, 1, -2.0)], None, "edge (-1, 1) has negative weight -2.0"),
        ([(0, 1, -1.0), (2, 2)], None, "edge (0, 1) has negative weight -1.0"),
        ([(0, 9), (1, 1)], 3, "self loop at node 1 is not allowed"),
        ([(0, 9), (-1, 1)], 2, "edge (-1, 1) has a negative node index"),
        ([(0, 1), (1, 2 ** 63)], 3,
         "edge (1, 9223372036854775808) has a node index outside the int64 range"),
        ([(0, 1), (1, 2, float("nan"))], None, "edge (1, 2) has non-finite weight nan"),
        ([(0, 1, float("inf"))], None, "edge (0, 1) has non-finite weight inf"),
        ([(0, 1, -float("inf"))], None, "edge (0, 1) has non-finite weight -inf"),
        ([(0, 1, 1e308), (1, 2, 1e308)], None,
         "edge (0, 1): the weighted degree of node 1 overflows"),
        ([(0, 1), (2, 3, 1e308), (4, 3, 1e308)], None,
         "edge (2, 3): the weighted degree of node 3 overflows"),
    ])
    def test_invalid_edges_are_named(self, edges, n, message):
        # the first invalid edge is named: self loop, then weight, then
        # index; the node count is checked after every edge passed
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            graph_laplacian(edges, n)

    @pytest.mark.parametrize("edges, n, index", [
        ([(0, -1)], None, 0),
        ([(0, 9), (1, 1)], 3, 1),
        ([(0, 1), (1, 2, float("nan"))], None, 1),
        ([(0, 1), (1, 2), (2, 5)], 4, 2),
        ([(0, 1), (-2 ** 63 - 1, 1), (1, 2 ** 63)], None, 1),
        ([], None, None),
        ([(0, 1), (2, 3, 1e308), (4, 3, 1e308)], None, 1),
    ])
    def test_invalid_edge_error_carries_its_index(self, edges, n, index):
        with pytest.raises(EdgeError) as caught:
            graph_laplacian(edges, n)
        assert caught.value.index == index

    def test_aggregation_shapes(self):
        p = aggregation_prolongation(9, 4)
        assert p.shape == (9, 2)
        assert np.array_equal(p.sum(axis=1), np.ones(9))
        with pytest.raises(ValueError):
            aggregation_prolongation(9, 1)

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            neumann_laplacian_1d(1)
        with pytest.raises(ValueError):
            neumann_laplacian_2d(1, 5)
