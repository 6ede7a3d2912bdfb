"""Tests for smoother construction, hierarchy assembly, and generators."""
import importlib.util
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
    NotSpsdError,
    SmootherAssumptionError,
    SmootherError,
)
from twogrid.linalg import SpsdOperator, TolerancePolicy, spsd_certify, sym_part
from twogrid.model import (
    SPARSE_MAX_DENSITY,
    SPARSE_MIN_ENTRIES,
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
    sweep_form,
)
from twogrid.solver import iterate

ROOT = Path(__file__).resolve().parents[1]


def certify(a):
    return spsd_certify(a, TolerancePolicy.for_dimension(a.shape[0]))


def dense_smoother(h):
    """M as an n x n array; a Gauss-Seidel M is tril(A)^{-1}, built here."""
    if isinstance(h.M, np.ndarray):
        return h.M
    return solve_triangular(np.tril(h.A.matrix), np.eye(h.n), lower=True)


def paper_mbar(h):
    """The paper's n x n Mbar = M + M^T - M^T A M."""
    m = dense_smoother(h)
    return sym_part(m + m.T - m.T @ h.A.matrix @ m)


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
        assert np.allclose(m, 0.5 * np.eye(3))

    def test_gauss_seidel_two_by_two(self):
        a = certify(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        m = build_smoother(GaussSeidel(), a)
        assert np.allclose(m @ np.eye(2), [[0.5, 0.0], [0.25, 0.5]])

    def test_jacobi_mbar_is_spd_on_neumann(self):
        h = build_hierarchy(neumann_laplacian_1d(8), aggregation_prolongation(8, 2),
                            WeightedJacobi(2.0 / 3.0))
        assert h.mbar_spectrum[0] > 0.0
        # closed form omega^2 D^{-1} (2 omega^{-1} D - A) D^{-1}
        d = np.diag(h.A.matrix)
        omega = 2.0 / 3.0
        closed = omega ** 2 * np.diag(1.0 / d) @ (3.0 * np.diag(d) - h.A.matrix) @ np.diag(1.0 / d)
        assert np.allclose(h.mbar_spectrum, np.linalg.eigvalsh(closed), atol=1e-13)

    def test_gauss_seidel_mbar_is_spd(self):
        h = build_hierarchy(neumann_laplacian_1d(8), aggregation_prolongation(8, 2),
                            GaussSeidel())
        assert h.mbar_spectrum[0] > 0.0

    def test_zero_diagonal_rejected_with_index(self):
        a = certify(np.diag([1.0, 0.0, 2.0]))
        with pytest.raises(SmootherError, match="entry 1"):
            build_smoother(WeightedJacobi(0.5), a)
        with pytest.raises(SmootherError, match="entry 1"):
            build_smoother(GaussSeidel(), a)

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
        ref = solve_triangular(np.tril(a.matrix), np.eye(a.n), lower=True)
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


class TestMbarMtilde:
    def test_identity_smoother(self):
        h = hierarchy_with(np.diag([0.5, 1.0, 1.5, 1.25]), CustomSmoother(np.eye(4)))
        assert np.allclose(h.mbar_spectrum, np.sort(2.0 - np.diag(h.A.matrix)))

    def test_zero_smoother(self):
        h = hierarchy_with(np.eye(4), CustomSmoother(np.zeros((4, 4))))
        assert np.array_equal(h.mbar_spectrum, np.zeros(4))
        assert np.array_equal(h.mtilde_form, np.zeros((4, 4)))

    def test_symmetric_smoother_makes_them_equal(self):
        rng = np.random.default_rng(3)
        a = sym_part(np.diag(rng.uniform(0.5, 2.0, size=6)))
        g = rng.standard_normal((6, 6))
        m = sym_part(g @ g.T)
        m *= 0.5 / np.linalg.norm(m, 2)  # ||M|| ||A|| <= 1: Mbar >= M >= 0
        h = hierarchy_with(a, CustomSmoother(m))
        assert h.mtilde_form is h.smoother_form
        assert h.mbar_spectrum[0] >= 0.0

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
        assert np.allclose(h.mbar_spectrum, expected, atol=1e-12)

    def test_gauss_seidel_mtilde_spectrum_in_unit_box(self):
        h = hierarchy_with(neumann_laplacian_1d(8), GaussSeidel())
        assert h.mtilde_form is not h.smoother_form
        w = np.linalg.eigvalsh(h.mtilde_form)
        slack = h.policy.psd_slack
        assert w[0] >= -slack
        assert w[-1] <= 1.0 + slack


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
        assert "coarse_factors" not in vars(h)
        assert "pinv" not in vars(h.A) and "factor" not in vars(h.Ac)
        assert "factor" in vars(h.A) and "pinv" not in vars(h.Ac)
        assert "sweep_operators" not in vars(h)

    def test_four_inputs_derive_the_rest(self):
        assert [f.name for f in fields(SpsdOperator)] == [
            "matrix", "rank", "policy", "components"]
        assert [f.name for f in fields(TwoGridHierarchy)] == ["A", "M", "P", "Ac"]
        a = certify(neumann_laplacian_1d(10))
        p = aggregation_prolongation(10, 2)
        ac = spsd_certify(sym_part(p.T @ a.matrix @ p), a.policy)
        h = TwoGridHierarchy(A=a, M=build_smoother(GaussSeidel(), a), P=p, Ac=ac)
        built = build_hierarchy(a, p, GaussSeidel())
        for name in ("smoother_product", "smoother_form", "mtilde_form",
                     "pre_smoother"):
            assert np.array_equal(getattr(h, name), getattr(built, name)), name
        for mine, theirs in zip(h.coarse_factors, built.coarse_factors):
            assert np.array_equal(mine, theirs)
        assert (h.r, h.s) == (a.rank, ac.rank) == (9, 4)

    def test_setup_and_sweeps_form_no_n_by_n_smoother(self):
        # set-up and the sweeps read no smoother form and no Mbar spectrum,
        # and M holds no n x n array
        a, p, f, u_ref = generate_problem(NeumannLaplacian1D(12), group=2, seed=0)
        h = build_hierarchy(a, p, GaussSeidel())
        for variant in ("tg", "stg"):
            iterate(h, f, np.zeros(h.n), 3, variant, u_ref=u_ref)
        for name in ("smoother_product", "smoother_form", "mtilde_form",
                     "mbar_spectrum"):
            assert name not in vars(h), name
        assert all(array.shape != (h.n, h.n) for array in reachable_arrays(h.M))

    def test_analysed_gauss_seidel_m_holds_no_n_by_n_array(self):
        # the analysis reads M through band solves as well: after a full
        # report, M and M^T still hold only their band
        a, p, _, _ = generate_problem(NeumannLaplacian2D(32, 32), group=4, seed=0)
        h = build_hierarchy(a, p, GaussSeidel())
        convergence_report(h, coarse=2.0 * h.Ac.matrix, epsilon=0.3)
        assert "smoother_product" in vars(h) and "mbar_spectrum" in vars(h)
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
        with pytest.raises(SmootherAssumptionError, match="negative eigenvalue"):
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
            q, r = h.coarse_factors
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
            assert h.mtilde_form is not h.smoother_form, case.name
            gap = np.max(np.abs(np.linalg.eigvalsh(h.mtilde_form)
                                - h.smoother_spectrum))
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
            ref = f @ m.T @ (np.diag(h.A.matrix)[:, None] * m) @ f.T
            gap = np.max(np.abs(ref - h.smoother_form))
            assert gap <= 1e-13 * np.max(np.abs(ref)), h.n

    def test_gauss_seidel_mbar_spectrum_matches_the_paper_formula(self):
        # the Mbar spectrum is read off the singular values of
        # tril(A) D^{-1/2}; the dense paper formula M + M^T - M^T A M is the
        # reference, and the sufficient condition reads the same
        hierarchies = [corpus.build_case(case)[0] for case in corpus.builtin_corpus()
                       if isinstance(case.smoother, GaussSeidel)]
        a, p, _, _ = generate_problem(NeumannLaplacian2D(32, 32), group=4, seed=0)
        hierarchies.append(build_hierarchy(a, p, GaussSeidel()))
        assert len(hierarchies) == 15
        for h in hierarchies:
            ref = np.linalg.eigvalsh(paper_mbar(h))
            got = h.mbar_spectrum
            assert got.shape == ref.shape and np.all(np.diff(got) >= 0.0), h.n
            assert abs(got[0] - ref[0]) <= 1e-13 * abs(ref[0]), h.n
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
        # a small A and P are applied as the hierarchy's arrays, P^T as a
        # view; a Gauss-Seidel M and M^T as its band solves at every size,
        # an ndarray M as itself, M^T as a view
        a, m, mt, p, pt = h.sweep_operators
        assert a is h.A.matrix and m is h.M and p is h.P, label
        assert pt.base is h.P and pt.shape == h.P.T.shape, label
        if isinstance(h.M, LowerBandSolve):
            assert mt is h.M.T and type(mt) is LowerBandSolve, label
        else:
            assert mt.base is h.M and mt.shape == h.M.T.shape, label

    def test_solve_2d_hierarchy(self):
        # neumann2d:32x32, GS, agg 4: A, P and P^T are sparse; M and M^T are
        # one band solve on tril(A), whose bandwidth is the grid width
        a, p, _, _ = generate_problem(NeumannLaplacian2D(32, 32), group=4, seed=0)
        h = build_hierarchy(a, p, GaussSeidel())
        ops = h.sweep_operators
        assert ops is h.sweep_operators
        assert [type(op) for op in ops] == [csr_array, LowerBandSolve, LowerBandSolve,
                                            csr_array, csr_array]
        a_op, m, mt, p_op, pt = ops
        assert m is h.M and mt is h.M.T and mt.T.trans == "N"
        assert (m.trans, mt.trans) == ("N", "T") and mt.band is m.band is mt.T.band
        assert m.band.shape == (33, h.n) and m.band.flags.f_contiguous
        for op, matrix in ((a_op, h.A.matrix), (p_op, h.P), (pt, h.P.T)):
            assert np.array_equal(op.toarray(), matrix)
        v = np.random.default_rng(0).standard_normal(h.n)
        dense = dense_smoother(h)
        for op, matrix in ((m, dense), (mt, dense.T)):
            exact = matrix @ v
            assert np.linalg.norm(op @ v - exact) <= 1e-14 * np.linalg.norm(exact)
        # an ndarray M keeps its dense array, even tril(A)^{-1} itself
        for matrix in (0.9 * dense, dense):
            other = TwoGridHierarchy(A=h.A, M=matrix, P=h.P, Ac=h.Ac)
            m, mt = other.sweep_operators[1:3]
            assert m is other.M and mt.base is other.M
        # a Jacobi M of the same size is diagonal, so M and M^T are sparse
        jacobi = TwoGridHierarchy(A=h.A, M=build_smoother(WeightedJacobi(), h.A),
                                  P=h.P, Ac=h.Ac)
        m, mt = jacobi.sweep_operators[1:3]
        assert type(m) is csr_array and type(mt) is csr_array
        assert np.array_equal(m.toarray(), jacobi.M)
        assert np.array_equal(mt.toarray(), jacobi.M.T)

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
        m, mt = h.sweep_operators[1:3]
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
        assert len(problems) == 7
        for label, a, p, smoother in problems:
            self.assert_own_arrays(build_hierarchy(a, p, smoother), label)

    @pytest.mark.parametrize("shape,nonzeros,sparse", [
        ((128, 128), 128, True),    # 2^14 entries
        ((127, 129), 127, False),   # 2^14 - 1 entries
        ((128, 128), 512, True),    # density 1/32
        ((128, 128), 513, False),   # density just above 1/32
    ])
    def test_thresholds(self, shape, nonzeros, sparse):
        assert SPARSE_MIN_ENTRIES == 2 ** 14 and SPARSE_MAX_DENSITY == 1.0 / 32.0
        matrix = np.zeros(shape)
        matrix.flat[np.linspace(0, matrix.size - 1, nonzeros).astype(int)] = 1.5
        assert np.count_nonzero(matrix) == nonzeros
        form = sweep_form(matrix)
        if sparse:
            assert type(form) is csr_array
            assert np.array_equal(form.toarray(), matrix)
        else:
            assert form is matrix


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
