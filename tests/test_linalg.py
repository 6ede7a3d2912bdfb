"""Tests for the dense symmetric spectral kernels."""
import numpy as np
import pytest

from twogrid.errors import NotSpsdError, ShapeError
from twogrid.linalg import (
    TolerancePolicy,
    spectrum_psd,
    spectrum_rank,
    spsd_certify,
    sym_eig,
    symmetric_rank,
)


def policy(n):
    return TolerancePolicy.for_dimension(n)


def neumann_1d(n):
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i] += 1.0
        a[i + 1, i + 1] += 1.0
        a[i, i + 1] -= 1.0
        a[i + 1, i] -= 1.0
    return a


class TestSymEig:
    def test_diagonal_input(self):
        e = sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(e.values, [1.0, 2.0, 3.0])
        # eigenvectors are signed permuted identity columns
        assert np.allclose(np.abs(e.vectors), np.eye(3)[:, [1, 2, 0]])

    def test_two_by_two_closed_form(self):
        e = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(e.values, [-1.0, 1.0])
        expected = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        for k in range(2):
            col = e.vectors[:, k]
            ref = expected[:, k]
            assert np.allclose(col, ref) or np.allclose(col, -ref)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(12)
        s = rng.standard_normal((12, 12))
        s = 0.5 * (s + s.T)
        e = sym_eig(s)
        recon = (e.vectors * e.values) @ e.vectors.T
        scale = np.max(np.abs(s))
        assert np.max(np.abs(recon - s)) <= 1e-12 * scale
        # orthonormality
        assert np.max(np.abs(e.vectors.T @ e.vectors - np.eye(12))) < 1e-13

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal((9, 9))
        s = s + s.T
        e1 = sym_eig(s)
        e2 = sym_eig(s)
        assert np.array_equal(e1.values, e2.values)
        assert np.array_equal(e1.vectors, e2.vectors)

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            sym_eig(np.ones((2, 3)))

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ShapeError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestSpsdCertify:
    def test_diagonal_pseudoinverse(self):
        op = spsd_certify(np.diag([2.0, 0.0]), policy(2))
        assert op.rank == 1
        assert op.factor.shape == (1, 2)
        assert np.allclose(np.abs(op.factor), [[np.sqrt(2.0), 0.0]])
        assert np.allclose(op.pinv, np.diag([0.5, 0.0]))

    def test_identity(self):
        op = spsd_certify(np.eye(4), policy(4))
        assert op.rank == 4
        assert np.allclose(op.factor.T @ op.factor, np.eye(4))
        assert np.allclose(op.pinv, np.eye(4))

    def test_neumann_laplacian_nullity(self):
        a = neumann_1d(6)
        # constant vector is in the null space by direct multiplication
        assert np.allclose(a @ np.ones(6), 0.0)
        op = spsd_certify(a, policy(6))
        assert op.rank == 5
        null = op.null_basis
        assert null.shape == (6, 1)
        direction = null[:, 0] * np.sqrt(6.0)
        assert np.allclose(np.abs(direction), np.ones(6), atol=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(NotSpsdError):
            spsd_certify(np.diag([1.0, -1.0]), policy(2))

    def test_rejects_zero_matrix(self):
        with pytest.raises(NotSpsdError, match="zero"):
            spsd_certify(np.zeros((3, 3)), policy(3))

    def test_clamps_roundoff_negatives(self):
        op = spsd_certify(np.diag([1.0, -1e-14]), policy(2))
        assert op.rank == 1
        assert op.eig.values[0] == 0.0

    @pytest.mark.parametrize("seed,n,r", [(0, 8, 3), (1, 10, 6), (2, 7, 7)])
    def test_penrose_identities(self, seed, n, r):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((r, n))
        a = g.T @ g
        op = spsd_certify(a, policy(n))
        assert op.rank == r
        s, sp = op.matrix, op.pinv
        lam = op.max_eigenvalue
        tol = op.policy.match_tol
        assert np.max(np.abs(s @ sp @ s - s)) <= tol * lam
        assert np.max(np.abs(sp @ s @ sp - sp)) <= tol * np.max(np.abs(sp))
        assert np.max(np.abs((s @ sp) - (s @ sp).T)) <= tol
        assert np.max(np.abs((sp @ s) - (sp @ s).T)) <= tol

    @pytest.mark.parametrize("seed,n,r", [(3, 9, 4), (4, 12, 12)])
    def test_factor_properties(self, seed, n, r):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((r, n))
        a = g.T @ g
        op = spsd_certify(a, policy(n))
        lam = op.max_eigenvalue
        tol = op.policy.match_tol
        f = op.factor
        # one row per kept eigenvalue, and F^T F = A
        assert f.shape == (op.rank, n) and op.rank == r
        assert np.max(np.abs(f.T @ f - op.matrix)) <= tol * lam
        # the rows are orthogonal: F F^T is the kept spectrum
        assert np.max(np.abs(f @ f.T - np.diag(op.eig.values[n - r:]))) <= tol * lam
        # the null space of the matrix is annihilated by the factor
        if op.rank < n:
            resid = np.max(np.abs(f @ op.null_basis))
            assert resid <= 1e-14 * np.sqrt(lam)


class TestNumericalRank:
    def test_diag(self):
        assert spsd_certify(np.diag([1.0, 1.0, 0.0]), policy(3)).rank == 2

    def test_graph_laplacian_components(self):
        # two components: a path on 6 nodes and a path on 4 nodes
        edges = [(i, i + 1) for i in range(5)] + [(6 + i, 7 + i) for i in range(3)]
        n = 10
        a = np.zeros((n, n))
        for u, v in edges:
            a[u, u] += 1.0
            a[v, v] += 1.0
            a[u, v] -= 1.0
            a[v, u] -= 1.0
        # independent component count by traversal
        adj = {i: [] for i in range(n)}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        seen, comps = set(), 0
        for start in range(n):
            if start in seen:
                continue
            comps += 1
            frontier = [start]
            while frontier:
                node = frontier.pop()
                if node in seen:
                    continue
                seen.add(node)
                frontier.extend(adj[node])
        assert comps == 2
        op = spsd_certify(a, policy(n))
        assert op.rank == n - comps


class TestRangeNullBases:
    def test_diag(self):
        op = spsd_certify(np.diag([2.0, 0.0]), policy(2))
        rng_b, null_b = op.range_basis, op.null_basis
        assert np.allclose(np.abs(rng_b), [[1.0], [0.0]])
        assert np.allclose(np.abs(null_b), [[0.0], [1.0]])

    def test_neumann_constant_null(self):
        op = spsd_certify(neumann_1d(4), policy(4))
        null_b = op.null_basis
        assert np.allclose(np.abs(null_b[:, 0]), 0.5)

    def test_random_rank3_residual_and_orthonormal(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((3, 8))
        op = spsd_certify(g.T @ g, policy(8))
        rng_b, null_b = op.range_basis, op.null_basis
        assert rng_b.shape == (8, 3)
        assert null_b.shape == (8, 5)
        assert np.max(np.abs(op.matrix @ null_b)) <= 1e-10 * op.max_eigenvalue
        full = np.hstack([rng_b, null_b])
        assert np.max(np.abs(full.T @ full - np.eye(8))) <= op.policy.match_tol


class TestSpectrumPsd:
    def test_slack_is_absolute_below_unit_scale(self):
        tol = policy(4)
        assert spectrum_psd(np.array([-0.5e-10, 0.0, 0.5]), tol)
        assert not spectrum_psd(np.array([-2e-10, 0.0, 0.5]), tol)

    def test_slack_scales_with_largest_magnitude(self):
        tol = policy(4)
        assert spectrum_psd(np.array([-0.5e-6, 1.0, 1e4]), tol)
        assert not spectrum_psd(np.array([-2e-6, 1.0, 1e4]), tol)

    def test_large_negative_eigenvalue_rejected(self):
        assert not spectrum_psd(np.array([-3.0, 1.0]), policy(2))


class TestSymmetricRank:
    def test_zero_allowed(self):
        assert symmetric_rank(np.zeros((4, 4)), policy(4)) == 0

    def test_projector(self):
        assert symmetric_rank(np.diag([1.0, 1.0, 0.0]), policy(3)) == 2

    def test_spectrum_rank_cut_is_relative_to_given_scale(self):
        # a compressed spectrum of pure rounding has no scale of its own
        w = np.array([0.0, 1e-15])
        assert spectrum_rank(w, policy(4)) == 1
        assert spectrum_rank(w, policy(4), scale=1.0) == 0
        assert spectrum_rank(w, policy(4), scale=0.0) == 0
