"""Tests for the dense symmetric spectral kernels."""
import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from twogrid import linalg
from twogrid.errors import EigenSolveError, NotSpsdError, ShapeError
from twogrid.linalg import (
    END_MIN_ORDER,
    EPS,
    SPARSE_MIN_ENTRIES,
    TolerancePolicy,
    spectrum_end,
    spectrum_psd,
    spectrum_rank,
    spsd_certify,
)
from twogrid.model import neumann_laplacian_2d, random_spsd

from dense_eigh import dense_eig


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

    def test_eig_of_a_diagonal_input(self):
        e = spsd_certify(np.diag([3.0, 1.0, 2.0]), policy(3)).eig
        assert np.allclose(e.values, [1.0, 2.0, 3.0])
        # eigenvectors are signed permuted identity columns
        assert np.allclose(np.abs(e.vectors), np.eye(3)[:, [1, 2, 0]])

    def test_eig_two_by_two_closed_form(self):
        e = spsd_certify(np.array([[1.0, 1.0], [1.0, 1.0]]), policy(2)).eig
        assert np.allclose(e.values, [0.0, 2.0], atol=1e-15)
        expected = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        for k in range(2):
            col, ref = e.vectors[:, k], expected[:, k]
            assert np.allclose(col, ref) or np.allclose(col, -ref)

    def test_eig_reconstructs_the_input(self):
        g = np.random.default_rng(12).standard_normal((12, 12))
        s = g.T @ g
        e = spsd_certify(s, policy(12)).eig
        recon = (e.vectors * e.values) @ e.vectors.T
        assert np.max(np.abs(recon - s)) <= 1e-12 * np.max(np.abs(s))
        assert np.max(np.abs(e.vectors.T @ e.vectors - np.eye(12))) < 1e-13

    def test_identical_bytes_give_identical_eig_bytes(self):
        g = np.random.default_rng(5).standard_normal((6, 9))
        s = g.T @ g
        e1, e2 = (spsd_certify(s.copy(), policy(9)).eig for _ in range(2))
        assert e1.values.tobytes() == e2.values.tobytes()
        assert e1.vectors.tobytes() == e2.vectors.tobytes()

    @pytest.mark.parametrize("matrix,error", [
        (np.ones((2, 3)), ShapeError),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), ShapeError),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), ValueError),
    ], ids=["nonsquare", "nonsymmetric", "nonfinite"])
    def test_rejects_malformed_input(self, matrix, error):
        with pytest.raises(error):
            spsd_certify(matrix, policy(2))

    def test_rejects_indefinite(self):
        with pytest.raises(NotSpsdError):
            spsd_certify(np.diag([1.0, -1.0]), policy(2))

    def test_rejects_zero_matrix(self):
        with pytest.raises(NotSpsdError, match="zero"):
            spsd_certify(np.zeros((3, 3)), policy(3))

    def test_rejects_kept_eigenvalue_without_finite_reciprocal(self):
        # subnormal: certified on its relative rank, its pseudoinverse would
        # overflow; the smallest kept eigenvalue 1e-310 is the cut
        spsd_certify(np.diag([1e-300, 1e-305, 0.0]), policy(3))
        with pytest.raises(NotSpsdError, match="smallest kept eigenvalue 1.0+e-310 "
                           "has no finite reciprocal"):
            spsd_certify(np.diag([1e-300, 1e-310, 0.0]), policy(3))

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
        lam = float(op.eig.values[-1])
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
        lam = float(op.eig.values[-1])
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
        rng_b, null_b = op.eig.vectors[:, op.n - op.rank:], op.null_basis
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
        rng_b, null_b = op.eig.vectors[:, op.n - op.rank:], op.null_basis
        assert rng_b.shape == (8, 3)
        assert null_b.shape == (8, 5)
        assert np.max(np.abs(op.matrix @ null_b)) <= 1e-10 * float(op.eig.values[-1])
        full = np.hstack([rng_b, null_b])
        assert np.max(np.abs(full.T @ full - np.eye(8))) <= op.policy.match_tol


class TestSpectrumPsd:
    def test_slack_is_absolute_below_unit_scale(self):
        assert spectrum_psd(np.array([-0.5e-10, 0.0, 0.5]))
        assert not spectrum_psd(np.array([-2e-10, 0.0, 0.5]))

    def test_slack_scales_with_largest_magnitude(self):
        assert spectrum_psd(np.array([-0.5e-6, 1.0, 1e4]))
        assert not spectrum_psd(np.array([-2e-6, 1.0, 1e4]))

    def test_large_negative_eigenvalue_rejected(self):
        assert not spectrum_psd(np.array([-3.0, 1.0]))


class TestSpectrumRank:
    def test_zero_allowed(self):
        assert spectrum_rank(np.linalg.eigvalsh(np.zeros((4, 4))), policy(4)) == 0

    def test_projector(self):
        assert spectrum_rank(np.linalg.eigvalsh(np.diag([1.0, 1.0, 0.0])), policy(3)) == 2

    def test_spectrum_rank_cut_is_relative_to_given_scale(self):
        # a compressed spectrum of pure rounding has no scale of its own
        w = np.array([0.0, 1e-15])
        assert spectrum_rank(w, policy(4)) == 1
        assert spectrum_rank(w, policy(4), scale=1.0) == 0
        assert spectrum_rank(w, policy(4), scale=0.0) == 0


class TestSymmetricInput:
    @pytest.mark.parametrize("n", [1, 5, 64, 130, 200])
    def test_bytes_of_the_symmetric_part(self, n):
        rng = np.random.default_rng(n)
        s = rng.standard_normal((n, n))
        s = s + s.T + 1e-12 * rng.standard_normal((n, n))  # rounding skew
        before = s.copy()
        sym = linalg._symmetric_input(s)
        expected = 0.5 * (s + s.T)
        assert sym.tobytes() == expected.tobytes() and sym.flags.c_contiguous
        assert np.array_equal(s, before) and sym is not s

    def test_fortran_and_list_inputs(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal((7, 7))
        s = s + s.T
        expected = (0.5 * (s + s.T)).tobytes()
        assert linalg._symmetric_input(np.asfortranarray(s)).tobytes() == expected
        assert linalg._symmetric_input(s.tolist()).tobytes() == expected

    def test_skew_in_the_last_partial_block_is_rejected(self):
        s = np.eye(130)
        s[129, 128] = 1e-3  # rows 128 and 129 are the last, partial block
        with pytest.raises(ShapeError, match="not symmetric"):
            linalg._symmetric_input(s)


def eigh_route(a, tol):
    """The eigh certificate written out: (sym, rank, clamped spectrum, vectors)."""
    sym = 0.5 * (a + a.T)
    w, v = np.linalg.eigh(sym)
    clamped = np.maximum(w, 0.0)
    return sym, spectrum_rank(clamped, tol), clamped, v


def assert_eigh_certificate(op, a, tol):
    """op is the eigh certificate of a, byte for byte."""
    sym, rank, w, v = eigh_route(a, tol)
    assert op.components is None and op.eig is not None
    assert op.matrix.tobytes() == sym.tobytes() and op.rank == rank
    assert op.eig.values.tobytes() == w.tobytes()
    assert op.eig.vectors.tobytes() == v.tobytes()


@st.composite
def weighted_laplacians(draw):
    """(A, labels): a weighted graph Laplacian with n >= 128 and its components.

    Each component is a random spanning tree plus random extra edges; some
    nodes are left isolated. Weights are log-uniform between 10^lo and
    10^hi, anywhere in [1e-6, 1e6], 0 to 12 decades apart. labels numbers
    the components by their smallest node.
    """
    n = draw(st.integers(128, 160))
    parts = draw(st.integers(1, 3))
    isolated = draw(st.integers(0, 3))
    decades = draw(st.sampled_from(range(13)))
    lo = draw(st.integers(-6, 6 - decades))
    hi = lo + decades
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = np.zeros((n, n))
    order = rng.permutation(n)
    group = np.empty(n, dtype=int)
    group[order[:isolated]] = np.arange(isolated)  # each isolated node alone
    for g, part in enumerate(np.array_split(order[isolated:], parts)):
        group[part] = isolated + g
        tree = [(part[k], part[rng.integers(k)]) for k in range(1, part.size)]
        extra = [tuple(rng.choice(part, 2, replace=False)) for _ in range(part.size)]
        for u, v in tree + extra:
            w = 10.0 ** rng.uniform(lo, hi)
            a[u, u] += w
            a[v, v] += w
            a[u, v] -= w
            a[v, u] -= w
    smallest = np.array([np.flatnonzero(group == g)[0] for g in group])
    return a, np.unique(smallest, return_inverse=True)[1]


class TestStructuralCertificate:
    """Graph Laplacians with n^2 >= SPARSE_MIN_ENTRIES are certified by structure."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(weighted_laplacians())
    def test_structure_decides_as_eigh(self, laplacian):
        a, labels = laplacian
        n = a.shape[0]
        tol = policy(n)
        op = spsd_certify(a, tol)
        weights = -a[a < 0.0]
        event("eigh fallback" if op.components is None else "structural")
        event(f"weight ratio 1e{round(np.log10(weights.max() / weights.min()))}")
        if op.components is None:
            # outside the margin: the eigh certificate, byte for byte
            assert_eigh_certificate(op, a, tol)
            return
        comps = int(labels.max()) + 1
        assert np.array_equal(op.components, labels)
        assert op.rank == n - comps
        null = op.null_basis
        assert op.eig is None  # no spectrum is solved
        assert np.array_equal(null != 0.0, labels[:, None] == np.arange(comps))
        assert np.max(np.abs(null.T @ null - np.eye(comps))) <= n * EPS
        assert np.max(np.abs(a @ null)) <= n * EPS * np.max(np.diag(a))
        sym, rank, w, v = eigh_route(a, tol)
        assert rank == op.rank
        # largest principal angle to eigh's null basis; eigh's own basis is
        # accurate to its backward error over the gap (Davis-Kahan)
        eigh_null = v[:, :comps]
        angle = np.linalg.norm(eigh_null - null @ (null.T @ eigh_null), 2)
        assert angle <= max(1e-10, n * EPS * w[-1] / w[comps])
        assert op.matrix.toarray().tobytes() == sym.tobytes()  # held in CSR

    def test_well_separated_null_space_to_1e10(self):
        # lambda_2 / lambda_max far above n EPS: eigh's null basis is good
        # to 1e-10, and the structural one, exact, lies within that of it
        a = np.kron(np.eye(2), neumann_laplacian_2d(8, 8))  # two 8x8 grids
        op = spsd_certify(a, policy(128))
        assert op.components is not None and op.rank == 126
        _, _, _, v = eigh_route(a, policy(128))
        null = op.null_basis
        angle = np.linalg.norm(v[:, :2] - null @ (null.T @ v[:, :2]), 2)
        assert angle <= 1e-10

    def test_isolated_nodes_are_components(self):
        n = 130
        a = np.zeros((n, n))
        a[:128, :128] = neumann_1d(128)
        op = spsd_certify(a, policy(n))
        assert op.rank == 127 and op.null_basis.shape == (n, 3)
        assert list(op.components[126:]) == [0, 0, 1, 2]
        assert np.array_equal(op.null_basis[128:, 1:], np.eye(2))

    def test_below_the_gate_is_the_eigh_certificate(self):
        a = neumann_1d(127)
        assert a.size < SPARSE_MIN_ENTRIES
        assert_eigh_certificate(spsd_certify(a, policy(127)), a, policy(127))

    def test_non_laplacian_falls_back_byte_for_byte(self):
        a = random_spsd(200, 150, 0)
        assert_eigh_certificate(spsd_certify(a, policy(200)), a, policy(200))

    def test_edge_below_the_margin_falls_back_byte_for_byte(self):
        # two paths joined by one 1e-14 edge: Mohar's bound cannot keep
        # lambda_2 above the rank cut, so the spectrum decides (rank n - 2)
        a = np.zeros((128, 128))
        a[:64, :64] = a[64:, 64:] = neumann_1d(64)
        a[63, 63] += 1e-14
        a[64, 64] += 1e-14
        a[63, 64] = a[64, 63] = -1e-14
        op = spsd_certify(a, policy(128))
        assert_eigh_certificate(op, a, policy(128))
        assert op.rank == 126

    def test_positive_off_diagonal_falls_back(self):
        # a negative edge weight, small enough that A stays PSD
        a = neumann_1d(128)
        a[0, 5] = a[5, 0] = 1e-3
        a[0, 0] -= 1e-3
        a[5, 5] -= 1e-3
        assert_eigh_certificate(spsd_certify(a, policy(128)), a, policy(128))


def pinned_cases():
    """(name, A, labels): graph Laplacians just above the gate, certified by
    structure, and their components numbered by smallest node."""
    connected = linalg.dense(neumann_laplacian_2d(16, 8))
    two = np.kron(np.eye(2), neumann_laplacian_2d(8, 8))
    perm = np.random.default_rng(0).permutation(128)  # interleaved components
    isolated = np.zeros((130, 130))  # nodes 0 and 129 alone, a path between
    isolated[1:129, 1:129] = neumann_1d(128)
    return [
        ("connected", connected, np.zeros(128, dtype=int)),
        ("disconnected", two[np.ix_(perm, perm)],
         np.unique(perm // 64 != perm[0] // 64, return_inverse=True)[1]),
        ("isolated", isolated, np.r_[0, np.ones(128, dtype=int), 2]),
    ]


def assert_pinned_operators(op, a, labels):
    """The pinned factor and pseudoinverse of a structurally certified op.

    Flat bounds on the factor. The pseudoinverse is held to 1e-12, or to
    EPS kappa where eigh's pinv is itself no closer (kappa = lambda_max over
    the smallest kept eigenvalue, which sets both routes' rounding).
    """
    n = a.shape[0]
    assert op.components is not None and np.array_equal(op.components, labels)
    f, x, null = op.factor, op.pinv, op.null_basis
    assert op.eig is None  # neither reads a spectrum
    assert f.shape == (op.rank, n)
    scale = np.max(np.abs(a))
    assert np.max(np.abs(f.T @ f - a)) <= 1e-13 * scale
    assert np.max(np.abs(f @ null)) <= n * EPS * np.max(np.abs(f))
    eig = dense_eig(a)  # for kappa and the eig-based pinv
    w = eig.values
    bound = max(1e-12, EPS * w[-1] / w[n - op.rank])
    assert np.array_equal(x, x.T)
    ax, xa = a @ x, x @ a
    assert np.max(np.abs(ax @ a - a)) <= bound * scale
    assert np.max(np.abs(xa @ x - x)) <= bound * np.max(np.abs(x))
    assert np.max(np.abs(ax - ax.T)) <= bound
    assert np.max(np.abs(xa - xa.T)) <= bound
    eigen = linalg.SpsdOperator(matrix=a, rank=op.rank, policy=op.policy, eig=eig)
    assert np.max(np.abs(x - eigen.pinv)) <= bound * np.max(np.abs(eigen.pinv))


class TestSubnormalLaplacian:
    def test_structural_route_refuses_an_infinite_reciprocal(self):
        # 1e-310 L passes every relative check of the certificate, but its
        # lambda_2 lower bound (the Mohar margin) has no finite reciprocal
        a = neumann_laplacian_2d(16, 16)
        assert spsd_certify(a, policy(256)).components is not None
        with pytest.raises(NotSpsdError, match=(
                r"^matrix is too small to invert: the lower bound .* on its "
                r"smallest kept eigenvalue has no finite reciprocal$")):
            spsd_certify(1e-310 * a, policy(256))

    def test_structural_route_keeps_a_small_normal_scale(self):
        op = spsd_certify(1e-300 * neumann_laplacian_2d(16, 16), policy(256))
        assert op.components is not None and op.rank == 255


class TestPinnedOperators:
    """A structurally certified Laplacian's F and A^+ from pinned Cholesky factors."""

    @pytest.mark.parametrize("name, a, labels", pinned_cases(),
                             ids=[case[0] for case in pinned_cases()])
    def test_factor_and_pinv(self, name, a, labels):
        assert a.size >= SPARSE_MIN_ENTRIES
        op = spsd_certify(a, policy(a.shape[0]))
        assert_pinned_operators(op, op.matrix.toarray(), labels)

    def test_isolated_nodes_have_no_rows(self):
        _, a, labels = pinned_cases()[2]
        op = spsd_certify(a, policy(130))
        f, x = op.factor, op.pinv
        assert f.shape == (127, 130)
        for node in (0, 129):
            assert not f[:, node].any() and not x[node].any() and not x[:, node].any()
        # component 1 is pinned at node 1: its rows are [-L^T 1 | L^T]
        assert np.array_equal(f[:, 1], -f[:, 2:129].sum(axis=1))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(weighted_laplacians())
    def test_weighted_graphs(self, laplacian):
        # weights anywhere in [1e-6, 1e6]; the draws the certificate refuses
        # keep the eigen factor
        a, labels = laplacian
        op = spsd_certify(a, policy(a.shape[0]))
        event("eigh fallback" if op.components is None else "structural")
        if op.components is None:
            return
        assert_pinned_operators(op, a, labels)

    def test_failed_cholesky_names_the_component(self, monkeypatch):
        # a path on nodes 0..99 and one on 100..129: component 1 has 30 nodes
        a = np.zeros((130, 130))
        a[:100, :100] = neumann_1d(100)
        a[100:, 100:] = neumann_1d(30)
        op = spsd_certify(a, policy(130))
        assert op.rank == 128
        original = linalg.dpotrf

        def forged(block, **kwargs):
            lower, info = original(block, **kwargs)
            return lower, (7 if block.shape[0] == 29 else info)

        monkeypatch.setattr(linalg, "dpotrf", forged)
        message = (r"Cholesky factorization failed on component 1 \(30 nodes, "
                   r"node 100 pinned; LAPACK info 7\)")
        with pytest.raises(EigenSolveError, match=message):
            op.factor
        with pytest.raises(EigenSolveError, match=message):
            op.pinv

    def test_an_operator_holds_exactly_one_certificate(self):
        op = spsd_certify(neumann_1d(130), policy(130))
        eig = dense_eig(op.matrix)
        for kwargs in ({}, {"components": op.components, "eig": eig}):
            with pytest.raises(ValueError, match="exactly one certificate"):
                linalg.SpsdOperator(matrix=op.matrix, rank=op.rank, policy=op.policy,
                                    **kwargs)

    def test_eigh_certificate_keeps_the_eigen_factor(self):
        a = random_spsd(200, 150, 0)  # above the gate, not a Laplacian
        op = spsd_certify(a, policy(200))
        assert op.components is None
        w, v = op.eig.values, op.eig.vectors
        assert op.factor.tobytes() == (np.sqrt(w[50:])[:, None] * v[:, 50:].T).tobytes()

    @pytest.mark.parametrize("name, a, labels", pinned_cases(),
                             ids=[case[0] for case in pinned_cases()])
    def test_both_factors_are_column_major(self, name, a, labels):
        # the pinned Cholesky factor has the eigen factor's layout, so
        # F @ M on a CSR M reads F^T without a contiguous copy
        op = spsd_certify(a, policy(a.shape[0]))
        eigen = linalg.SpsdOperator(matrix=op.matrix, rank=op.rank, policy=op.policy,
                                    eig=dense_eig(op.matrix))
        assert op.components is not None
        assert op.factor.flags.f_contiguous and eigen.factor.flags.f_contiguous


class TestEndReader:
    """spectrum_end: dense below END_MIN_ORDER, Lanczos from it on."""

    @pytest.mark.parametrize("n", [8, END_MIN_ORDER - 1])
    def test_below_the_gate_the_dense_bytes(self, n):
        assert END_MIN_ORDER == 256
        x = random_spsd(n, n // 2 + 1, 1) - 0.3 * np.eye(n)
        w = np.linalg.eigvalsh(x)
        assert spectrum_end(x, highest=False) == float(w[0])
        assert spectrum_end(x, highest=True) == float(w[-1])

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_above_the_gate_lanczos_agrees_with_the_dense_ends(self, sparse, monkeypatch):
        from twogrid.csr import CsrArray

        n = END_MIN_ORDER + 44
        x = linalg.dense(neumann_laplacian_2d(15, 20)) - 0.25 * np.eye(n)
        assert x.shape == (n, n)
        w = np.linalg.eigvalsh(x)
        x = CsrArray(x) if sparse else x
        monkeypatch.setattr(np.linalg, "eigvalsh", None)  # no dense route taken
        assert abs(spectrum_end(x, highest=False) - w[0]) <= 1e-13 * abs(w[0])
        assert abs(spectrum_end(x, highest=True) - w[-1]) <= 1e-13 * abs(w[-1])
        # a fixed start vector: the same bytes on every call
        assert spectrum_end(x, highest=False) == spectrum_end(x, highest=False)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_zero_operator_above_the_gate_reads_the_dense_value(self, sparse):
        # ARPACK refuses it ("starting vector is zero"); the dense solve runs
        from twogrid.csr import CsrArray

        n = END_MIN_ORDER + 1
        x = CsrArray((n, n)) if sparse else np.zeros((n, n))
        assert spectrum_end(x, highest=False) == 0.0
        assert spectrum_end(x, highest=True) == 0.0

    def test_no_convergence_falls_back_to_the_dense_value(self, monkeypatch):
        import scipy.sparse.linalg
        from scipy.sparse.linalg import ArpackNoConvergence

        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
        n = END_MIN_ORDER + 4
        x = random_spsd(n, n - 10, 2)
        w = np.linalg.eigvalsh(x)
        assert spectrum_end(x, highest=False) == float(w[0])
        assert spectrum_end(x, highest=True) == float(w[-1])
