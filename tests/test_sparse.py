"""The sparse set-up: a large graph Laplacian stays in CSR from its edge list.

Each check compares the CSR route with the dense route of the same problem:
the same rank (the dense spectrum's), components, null basis, Gauss-Seidel
band and Galerkin matrix, and the sweep reads the bytes csr_array(dense) would hold.
"""
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from twogrid import mmio
from twogrid.csr import CsrArray
from twogrid.errors import NotSpsdError, ShapeError
from twogrid.linalg import (
    DENSIFY_MAX_ORDER,
    SPARSE_MIN_ENTRIES,
    SpsdOperator,
    TolerancePolicy,
    dense,
    entries,
    spectrum_rank,
    spsd_certify,
)
from twogrid.model import (
    GaussSeidel,
    NeumannLaplacian2D,
    aggregation_prolongation,
    build_hierarchy,
    build_smoother,
    generate_problem,
    graph_laplacian,
    neumann_laplacian_2d,
    random_spsd,
)

from dense_eigh import dense_eig

MB = 2 ** 20


def weighted_graph(n, blocks, seed, repeat=False):
    """Seeded edges on n nodes in `blocks` components: a weighted path through
    each block plus random chords, weights in [0.5, 2]; with repeat, a third
    of the edges listed again, reversed and reweighted."""
    rng = np.random.default_rng(seed)
    edges = []
    for block in np.array_split(np.arange(n), blocks):
        path = list(zip(block[:-1], block[1:]))
        chords = rng.choice(block, (2 * block.size, 2))
        edges += path + [(u, v) for u, v in chords if u != v]
    edges = [(int(u), int(v), float(rng.uniform(0.5, 2.0))) for u, v in edges]
    if repeat:
        edges += [(v, u, float(rng.uniform(0.5, 2.0))) for u, v, _ in edges[::3]]
    return [edges[k] for k in rng.permutation(len(edges))]


PROBLEMS = {
    "neumann2d:12x12": (lambda: neumann_laplacian_2d(12, 12), 2, True),
    "neumann2d:16x16": (lambda: neumann_laplacian_2d(16, 16), 4, True),
    "neumann2d:32x32": (lambda: neumann_laplacian_2d(32, 32), 4, True),
    "weighted-connected": (lambda: graph_laplacian(weighted_graph(300, 1, 1)), 2, False),
    "weighted-3-components": (lambda: graph_laplacian(weighted_graph(300, 3, 2)), 2, False),
    "weighted-repeated-edges": (lambda: graph_laplacian(weighted_graph(300, 1, 3, True)),
                                2, False),
}


@pytest.fixture(scope="module", params=list(PROBLEMS), ids=list(PROBLEMS))
def routes(request):
    """(sparse operator, dense operator, P, unit weights) of one problem; the
    dense operator holds the same rank on the dense matrix, with no components,
    as the eigh certificate leaves it."""
    build, group, unit = PROBLEMS[request.param]
    a = build()
    n = a.shape[0]
    assert type(a) is CsrArray and n * n >= SPARSE_MIN_ENTRIES
    op = spsd_certify(a, TolerancePolicy.for_dimension(n))
    assert op.components is not None and type(op.matrix) is CsrArray
    assert op.matrix.data.tobytes() == a.data.tobytes()
    d = a.toarray()
    dense_op = SpsdOperator(matrix=d, rank=op.rank, policy=op.policy, eig=dense_eig(d))
    return op, dense_op, aggregation_prolongation(n, group), unit


def test_rank_components_null_basis_and_spectrum_are_the_dense_ones(routes):
    op, dense_op, _, _ = routes
    d = dense_op.matrix
    count, labels = connected_components(csr_array(d), directed=False)
    clamped = np.maximum(np.linalg.eigvalsh(d), 0.0)
    assert op.rank == spectrum_rank(clamped, op.policy) == op.n - count
    assert np.array_equal(op.components, labels)
    sizes = np.bincount(labels)
    null = np.zeros((op.n, count))
    null[np.arange(op.n), labels] = 1.0 / np.sqrt(sizes[labels])
    assert op.null_basis.tobytes() == null.tobytes()
    assert op.eig is None and type(op.matrix) is CsrArray


def test_gauss_seidel_band_is_the_dense_one(routes):
    op, dense_op, _, _ = routes
    band = build_smoother(GaussSeidel(), op).band
    assert band.flags.f_contiguous
    assert band.tobytes() == build_smoother(GaussSeidel(), dense_op).band.tobytes()


def test_sparse_galerkin_matches_the_dense_product(routes):
    # unit weights sum exactly, so the sparse product has the dense one's
    # bytes; weighted graphs agree to rounding. Below SPARSE_MIN_ENTRIES
    # (neumann2d:16x16 by 4, nc = 64) spsd_certify alone densifies Ac
    op, dense_op, p, unit = routes
    sparse_h = build_hierarchy(op, p, GaussSeidel())
    dense_h = build_hierarchy(dense_op, dense(p), GaussSeidel())
    got, ref = dense(sparse_h.Ac.matrix), dense(dense_h.Ac.matrix)
    small = sparse_h.nc ** 2 < SPARSE_MIN_ENTRIES
    assert type(sparse_h.Ac.matrix) is (np.ndarray if small else CsrArray)
    assert type(sparse_h.Ac.matrix) is type(dense_h.Ac.matrix)
    if unit:
        assert got.tobytes() == ref.tobytes()
    else:
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert sparse_h.Ac.rank == dense_h.Ac.rank
    if dense_h.Ac.components is not None:
        assert np.array_equal(sparse_h.Ac.components, dense_h.Ac.components)


def test_pinned_factor_and_pinv_match_the_eigen_ones(routes):
    # both factors give A; they differ by an orthogonal matrix, so F F^T has
    # the eigen factor's spectrum, and A^+ is the eigen one to rounding
    op, dense_op, _, _ = routes
    d = dense_op.matrix
    f = op.factor
    scale = np.max(np.abs(d))
    assert f.shape == dense_op.factor.shape
    assert np.max(np.abs(f.T @ f - d)) <= 1e-13 * scale
    kept = np.linalg.eigvalsh(f @ f.T)
    assert np.max(np.abs(kept - dense_op.eig.values[op.n - op.rank:])) <= 1e-12 * scale
    ref = dense_op.pinv
    assert np.max(np.abs(op.pinv - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_coarse_basis_reads_csr_p_as_the_dense_product(routes):
    # F @ P with P in CSR has the bytes of F @ dense(P), so Q, R and Q_perp
    # keep those of its full SVD
    op, _, p, _ = routes
    h = build_hierarchy(op, p, GaussSeidel())
    f = op.factor
    fp = f @ dense(p)
    if type(p) is CsrArray:
        assert (f @ p).tobytes() == fp.tobytes()
    u, sv, vt = np.linalg.svd(fp, full_matrices=True)
    q, r, q_perp = h.forms.coarse_factors
    assert q.tobytes() == u[:, :h.s].copy().tobytes()
    assert r.tobytes() == (sv[:h.s, None] * vt[:h.s]).tobytes()
    assert q_perp.tobytes() == u[:, h.s:].copy().tobytes()


def test_other_prolongation_is_multiplied_out(routes):
    # a smoothed aggregation P, dense, is read into CSR for the product
    op, dense_op, p, _ = routes
    d = dense_op.matrix
    smoothed = dense(p) - (0.5 / np.diag(d))[:, None] * (d @ dense(p))
    got = build_hierarchy(op, smoothed, GaussSeidel()).Ac
    ref = build_hierarchy(dense_op, smoothed, GaussSeidel()).Ac
    gap = np.max(np.abs(dense(got.matrix) - dense(ref.matrix)))
    assert gap <= 1e-14 * np.max(np.abs(dense(ref.matrix)))
    assert got.rank == ref.rank


def test_sweep_reads_the_bytes_of_the_dense_conversion(routes):
    op, _, p, _ = routes
    h = build_hierarchy(op, p, GaussSeidel())
    assert h.A.matrix is op.matrix
    pairs = [(h.A.matrix, op.matrix)]
    if type(p) is CsrArray:  # else small enough to be held and swept dense
        pairs += [(h.P, p), (h.PT, p.T)]
    for got, matrix in pairs:
        ref = csr_array(dense(matrix))
        for name in ("data", "indices", "indptr"):
            mine, theirs = getattr(got, name), getattr(ref, name)
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


def test_entries_reads_both_forms_alike(routes):
    # the one entry reader: the same triples, row by row, for a CSR matrix,
    # its transpose (a csc_array) and the dense form of each
    op, _, p, _ = routes
    for matrix in (op.matrix, p, p.T):
        got, ref = entries(matrix), entries(dense(matrix))
        assert all(np.array_equal(x, y) for x, y in zip(got[:2], ref[:2]))
        assert got[2].tobytes() == ref[2].tobytes()


@pytest.mark.parametrize("n", [127, 128])
def test_laplacian_is_csr_exactly_from_the_gate(n):
    # order 127 is below SPARSE_MIN_ENTRIES = 128^2, order 128 is at it;
    # either form has the bytes of adding each repeated, weighted edge in turn
    edges = weighted_graph(n, 2, 5, repeat=True)
    ref = np.zeros((n, n))
    for u, v, w in edges:
        ref[u, u] += w
        ref[v, v] += w
        ref[u, v] -= w
        ref[v, u] -= w
    lap = graph_laplacian(edges, n)
    assert type(lap) is (CsrArray if n * n >= SPARSE_MIN_ENTRIES else np.ndarray)
    assert dense(lap).tobytes() == ref.tobytes()


# n * nc just below (5461 * 3 = 16383) and at (256 * 64, 8192 * 2) the gate
@pytest.mark.parametrize("n, group", [(128, 2), (256, 4), (1024, 4), (1024, 64), (300, 3),
                                      (5461, 1820), (8192, 4096)])
def test_aggregation_is_csr_exactly_where_the_sweep_applies_csr(n, group):
    p = aggregation_prolongation(n, group)
    nc = max(1, n // group)
    ref = np.zeros((n, nc))
    ref[np.arange(n), np.minimum(np.arange(n) // group, nc - 1)] = 1.0
    csr = n * nc >= SPARSE_MIN_ENTRIES
    assert isinstance(p, CsrArray) is csr
    assert dense(p).tobytes() == ref.tobytes()
    assert p.nbytes == (p.data.nbytes + p.indices.nbytes + p.indptr.nbytes
                        if csr else ref.nbytes)


def test_sparse_input_failing_the_certificate_is_certified_dense():
    # not a graph Laplacian: the eigh certificate on the dense bytes
    d = random_spsd(130, 60, 1)
    tol = TolerancePolicy.for_dimension(130)
    op, ref = spsd_certify(csr_array(d), tol), spsd_certify(d, tol)
    assert op.components is None and type(op.matrix) is np.ndarray
    assert op.matrix.tobytes() == ref.matrix.tobytes() and op.rank == ref.rank
    assert op.eig.values.tobytes() == ref.eig.values.tobytes()


def test_sparse_input_below_the_gate_is_certified_dense():
    d = neumann_laplacian_2d(4, 4)
    op = spsd_certify(csr_array(d), TolerancePolicy.for_dimension(16))
    assert op.components is None and op.matrix.tobytes() == d.tobytes()


@pytest.mark.parametrize("change, error, message", [
    (lambda a: a + csr_array(([1e-3], ([0], [5])), shape=a.shape), ShapeError,
     "matrix is not symmetric: max|a_ij - a_ji| = 1.000e-03"),
    (lambda a: a * np.nan, ValueError, "matrix contains NaN or Inf entries"),
    (lambda a: a[:, :-1], ShapeError, "matrix must be square, got shape (144, 143)"),
])
def test_sparse_input_is_checked_as_a_dense_one(change, error, message):
    a = change(neumann_laplacian_2d(12, 12))
    for s in (a, dense(a)):
        with pytest.raises(error) as caught:
            spsd_certify(s, TolerancePolicy.for_dimension(144))
        assert str(caught.value) == message


def test_rounding_skew_is_symmetrized_as_the_dense_input():
    a = neumann_laplacian_2d(12, 12)
    skewed = a + csr_array(([1e-14], ([0], [1])), shape=a.shape)
    tol = TolerancePolicy.for_dimension(144)
    got, ref = spsd_certify(skewed, tol), spsd_certify(dense(skewed), tol)
    assert got.matrix.toarray().tobytes() == ref.matrix.toarray().tobytes()


def test_huge_sparse_input_failing_the_certificate_is_refused():
    # at n = 65536 the certificate cannot hold (8 n EPS > PSD_SLACK); the
    # dense eigh would need a 34 GB array, so no n x n array is allocated
    tracemalloc.start()
    try:
        a = neumann_laplacian_2d(256, 256)
        with pytest.raises(NotSpsdError) as caught:
            spsd_certify(a, TolerancePolicy.for_dimension(a.shape[0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == (
        "the structural certificate failed on this sparse 65536 x 65536 matrix, "
        f"and its order exceeds {DENSIFY_MAX_ORDER}, the largest one certified "
        "on a dense eigen-solve")
    assert peak < 200 * MB


def test_large_gauss_seidel_setup_forms_no_n_by_n_array():
    # n = 16384: one dense n x n array would take 2 GiB
    tracemalloc.start()
    try:
        a, p, f, _ = generate_problem(NeumannLaplacian2D(128, 128), group=4, seed=0)
        h = build_hierarchy(a, p, GaussSeidel())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * MB
    assert (h.n, h.nc, h.r, h.s) == (16384, 4096, 16383, 4095)
    assert type(h.A.matrix) is type(h.P) is type(h.Ac.matrix) is CsrArray


@pytest.mark.parametrize("layout, symmetry", [("array", "symmetric"),
                                              ("coordinate", "symmetric"),
                                              ("coordinate", "general"),
                                              ("array", "general")])
def test_csr_is_written_with_the_dense_bytes(layout, symmetry, tmp_path):
    for matrix in (neumann_laplacian_2d(12, 12), aggregation_prolongation(256, 4),
                   graph_laplacian(weighted_graph(300, 3, 2, repeat=True))):
        if symmetry == "symmetric" and matrix.shape[0] != matrix.shape[1]:
            continue
        mmio.write_matrix(tmp_path / "csr.mtx", matrix, layout, symmetry)
        mmio.write_matrix(tmp_path / "dense.mtx", dense(matrix), layout, symmetry)
        assert ((tmp_path / "csr.mtx").read_bytes()
                == (tmp_path / "dense.mtx").read_bytes())
