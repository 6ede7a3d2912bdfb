"""Tests for smoother construction, hierarchy assembly, and generators."""
from dataclasses import fields

import numpy as np
import pytest

from twogrid.errors import (
    NotSpsdError,
    ShapeError,
    SmootherAssumptionError,
    SmootherError,
)
from twogrid.linalg import SpsdOperator, TolerancePolicy, spsd_certify, sym_part
from twogrid.model import (
    CustomSmoother,
    GaussSeidel,
    NeumannLaplacian1D,
    GraphLaplacian,
    RandomSpsd,
    TwoGridHierarchy,
    WeightedJacobi,
    aggregation_prolongation,
    build_hierarchy,
    build_smoother,
    generate_problem,
    graph_laplacian,
    jacobi_weight_limit,
    mbar,
    mtilde,
    neumann_laplacian_1d,
    neumann_laplacian_2d,
)


def certify(a):
    return spsd_certify(a, TolerancePolicy.for_dimension(a.shape[0]))


class TestBuildSmoother:
    def test_jacobi_unit_diagonal(self):
        a = certify(np.eye(3))
        m = build_smoother(WeightedJacobi(0.5), a)
        assert np.allclose(m, 0.5 * np.eye(3))

    def test_gauss_seidel_two_by_two(self):
        a = certify(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        m = build_smoother(GaussSeidel(), a)
        assert np.allclose(m, [[0.5, 0.0], [0.25, 0.5]])

    def test_jacobi_mbar_is_spd_on_neumann(self):
        a = certify(neumann_laplacian_1d(8))
        m = build_smoother(WeightedJacobi(2.0 / 3.0), a)
        mb = mbar(m, a)
        assert np.min(np.linalg.eigvalsh(mb)) > 0.0
        # closed form omega^2 D^{-1} (2 omega^{-1} D - A) D^{-1}
        d = np.diag(a.matrix)
        omega = 2.0 / 3.0
        closed = omega ** 2 * np.diag(1.0 / d) @ (3.0 * np.diag(d) - a.matrix) @ np.diag(1.0 / d)
        assert np.allclose(mb, closed, atol=1e-13)

    def test_gauss_seidel_mbar_is_spd(self):
        a = certify(neumann_laplacian_1d(8))
        m = build_smoother(GaussSeidel(), a)
        assert np.min(np.linalg.eigvalsh(mbar(m, a))) > 0.0

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

    def test_weight_above_limit_warns(self):
        a = certify(neumann_laplacian_1d(6))
        limit = jacobi_weight_limit(a)
        assert limit == pytest.approx(1.0, abs=1e-12)  # bipartite path graph
        with pytest.warns(UserWarning, match="stability limit"):
            build_smoother(WeightedJacobi(limit * 1.5), a)

    def test_custom_shape_checked(self):
        a = certify(np.eye(3))
        with pytest.raises(SmootherError, match="shape"):
            build_smoother(CustomSmoother(np.eye(2)), a)


class TestMbarMtilde:
    def test_identity_smoother(self):
        a = certify(np.diag([0.5, 1.0, 1.5]))
        assert np.allclose(mbar(np.eye(3), a), 2.0 * np.eye(3) - a.matrix)

    def test_zero_smoother(self):
        a = certify(np.eye(3))
        assert np.array_equal(mbar(np.zeros((3, 3)), a), np.zeros((3, 3)))
        assert np.array_equal(mtilde(np.zeros((3, 3)), a), np.zeros((3, 3)))

    def test_symmetric_smoother_makes_them_equal(self):
        rng = np.random.default_rng(3)
        a = certify(sym_part(np.diag(rng.uniform(0.5, 2.0, size=6))))
        m = sym_part(rng.standard_normal((6, 6))) * 0.1
        assert np.allclose(mbar(m, a), mtilde(m, a), atol=1e-14)

    def test_jacobi_eigenvalue_formula(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((6, 6))
        a_raw = sym_part(g @ g.T)
        a_raw = a_raw / np.max(np.abs(np.diag(a_raw)))
        np.fill_diagonal(a_raw, 1.0)  # unit diagonal, stays SPD for mild off-diagonal
        a_raw = sym_part(0.1 * a_raw + 0.9 * np.eye(6))
        a = certify(a_raw)
        omega = 0.4
        m = omega * np.eye(6)
        got = np.linalg.eigvalsh(mbar(m, a))
        lam = np.linalg.eigvalsh(a.matrix)
        expected = np.sort(2.0 * omega - omega ** 2 * lam)
        assert np.allclose(got, expected, atol=1e-12)

    def test_gauss_seidel_mtilde_spectrum_in_unit_box(self):
        a = certify(neumann_laplacian_1d(8))
        m = build_smoother(GaussSeidel(), a)
        w = np.linalg.eigvalsh(sym_part(a.sqrt @ mtilde(m, a) @ a.sqrt))
        slack = a.policy.psd_slack
        assert w[0] >= -slack
        assert w[-1] <= 1.0 + slack

    def test_shape_mismatch(self):
        a = certify(np.eye(3))
        with pytest.raises(ShapeError):
            mbar(np.eye(4), a)


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
        # the hierarchy reads A^{1/2} and Ac^+ only; A^+ and Ac^{1/2} stay unbuilt
        h = build_hierarchy(neumann_laplacian_1d(8), aggregation_prolongation(8, 2),
                            WeightedJacobi(2.0 / 3.0))
        assert "pinv" not in vars(h.A) and "sqrt" not in vars(h.Ac)
        assert "sqrt" in vars(h.A) and "pinv" in vars(h.Ac)

    def test_four_inputs_derive_the_rest(self):
        assert [f.name for f in fields(SpsdOperator)] == ["matrix", "eig", "rank", "policy"]
        assert [f.name for f in fields(TwoGridHierarchy) if f.init] == ["A", "M", "P", "Ac"]
        a = certify(neumann_laplacian_1d(10))
        p = aggregation_prolongation(10, 2)
        ac = spsd_certify(sym_part(p.T @ a.matrix @ p), a.policy)
        h = TwoGridHierarchy(A=a, M=build_smoother(GaussSeidel(), a), P=p, Ac=ac)
        built = build_hierarchy(a, p, GaussSeidel())
        for name in ("Mbar", "Mtilde", "Pi"):
            assert np.array_equal(getattr(h, name), getattr(built, name)), name
        assert (h.r, h.s) == (a.rank, ac.rank) == (9, 4)

    def test_zero_coarse_matrix_rejected(self):
        a = certify(np.diag([0.0, 0.0, 1.0]))
        p = np.array([[1.0], [0.0], [0.0]])
        with pytest.raises(NotSpsdError, match="coarse"):
            build_hierarchy(a, p, CustomSmoother(np.zeros((3, 3))))

    def test_expansive_smoother_rejected(self):
        a = certify(neumann_laplacian_1d(6))
        p = aggregation_prolongation(6, 2)
        with pytest.warns(UserWarning):
            with pytest.raises(SmootherAssumptionError, match="negative eigenvalue"):
                build_hierarchy(a, p, WeightedJacobi(1.9))

    def test_projector_properties(self):
        a = certify(neumann_laplacian_1d(10))
        p = aggregation_prolongation(10, 2)
        h = build_hierarchy(a, p, GaussSeidel())
        tol = h.policy.match_tol
        assert np.max(np.abs(h.Pi @ h.Pi - h.Pi)) <= tol
        assert np.max(np.abs(h.Pi - h.Pi.T)) <= tol
        assert abs(np.trace(h.Pi) - h.s) <= 10.0 * tol
        pi_a = h.P @ h.Ac.pinv @ h.P.T @ h.A.matrix
        assert np.max(np.abs(pi_a @ pi_a - pi_a)) <= tol

    def test_mbar_mtilde_conjugate_spectra_match(self):
        a = certify(neumann_laplacian_1d(9))
        p = aggregation_prolongation(9, 3)
        h = build_hierarchy(a, p, GaussSeidel())
        wb = np.linalg.eigvalsh(sym_part(a.sqrt @ h.Mbar @ a.sqrt))
        wt = np.linalg.eigvalsh(sym_part(a.sqrt @ h.Mtilde @ a.sqrt))
        assert np.max(np.abs(wb - wt)) <= h.policy.match_tol

    def test_raw_matrix_accepted(self):
        h = build_hierarchy(neumann_laplacian_1d(6), aggregation_prolongation(6, 2),
                            WeightedJacobi(0.5))
        assert h.n == 6 and h.nc == 3


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
