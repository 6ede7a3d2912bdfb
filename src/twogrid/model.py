"""Two-grid hierarchy assembly and test-problem generators.

Builds smoothers (weighted Jacobi as the matrix omega D^{-1}, Gauss-Seidel
as a band solve on tril(A) with no n x n array; a custom M as given), the
Galerkin coarse matrix P^T A P (for a large graph Laplacian in O(nnz) as a
sparse product), and, on range(A) through A's thin factor F (A = F^T F), the
coarse basis Q with its orthogonal complement, the form of the
symmetrized smoother M + M^T - M^T A M (Mbar) and the two compressions of
M + M^T - M A M^T (Mtilde) that the analysis reads, onto Q and onto its
complement, all read off the one product F M F^T, and the ends of Mbar's own
spectrum that the sufficient condition reads (for Gauss-Seidel off M's
band, for a matrix M off M + M^T - M^T A M in its operands' form, each
read by linalg.spectrum_end). Also provides SPSD test problems: Neumann
Laplacians in 1d/2d and weighted graph Laplacians, each summed from its
edge list (_laplacian), seeded random rank-deficient matrices, and file
input. Every summed matrix here, a Laplacian, an aggregation prolongation,
the Jacobi M and the Gauss-Seidel matrix that gives Mbar's ends, is built
by linalg.assemble, the one place that chooses between an ndarray and a
CSR form with no n x n array.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np
# Unused here; perfbench/recorder.py wraps this binding by name.
from scipy.linalg import solve_triangular  # noqa: F401
from scipy.linalg.lapack import dtbtrs

from . import mmio
from .errors import (EdgeError, NotSpsdError, ShapeError, SmootherAssumptionError,
                     SmootherError)
from .linalg import (
    PSD_SLACK,
    SpsdOperator,
    TolerancePolicy,
    as_matrix,
    assemble,
    dense,
    entries,
    is_sparse,
    spectrum_end,
    spectrum_psd,
    spsd_certify,
    sym_part,
)


# ---------------------------------------------------------------------------
# smoother specifications


@dataclass(frozen=True)
class WeightedJacobi:
    """M = omega * D^{-1} with D = diag(A), assembled as a matrix; requires omega > 0."""

    omega: float = 2.0 / 3.0


@dataclass(frozen=True)
class GaussSeidel:
    """M = (D + L)^{-1} for the lower-triangular splitting A = D + L + L^T."""


@dataclass(frozen=True, eq=False)
class CustomSmoother:
    """User-supplied n x n smoother matrix M; a sparse one is held dense."""

    matrix: np.ndarray


SmootherSpec = Union[WeightedJacobi, GaussSeidel, CustomSmoother]


def _positive_diagonal(a: SpsdOperator) -> np.ndarray:
    """diag(A), or SmootherError at its first entry d <= PSD_SLACK * lambda_max,
    named as zero when it is, else by its value and that floor.

    On a graph Laplacian certified by structure the certificate puts every
    nonzero entry above PSD_SLACK * 2 max diag(A) >= PSD_SLACK * lambda_max
    (Gershgorin), so d <= PSD_SLACK * lambda_max holds exactly when d == 0:
    the same decision, made without reading A's spectrum.
    """
    d = a.matrix.diagonal().copy()
    floor = 0.0 if a.eig is None else PSD_SLACK * float(a.eig.values[-1])
    bad = np.nonzero(d <= floor)[0]
    if bad.size and d[bad[0]] == 0.0:
        raise SmootherError(
            f"diagonal entry {bad[0]} of A is zero; the matching row and column "
            "are zero as well, so solve the reduced system with that index removed")
    if bad.size:
        raise SmootherError(
            f"diagonal entry {bad[0]} of A is {d[bad[0]]:.6e}, not above the floor "
            f"psd_slack * lambda_max = {floor:.6e}")
    return d


@dataclass(frozen=True, eq=False)
class LowerBandSolve:
    """v -> T^{-1} v (trans "N") or T^{-T} v (trans "T") by LAPACK dtbtrs.

    T is lower triangular, in band storage band[i - j, j] = T[i, j] (kd + 1
    rows, kd its bandwidth). This is the only form of the operator: no n x n
    T^{-1} is ever formed. X @ op is one solve too, (op^T X^T)^T; numpy
    defers every operator to this class.
    """

    band: np.ndarray
    trans: str = "N"

    __array_ufunc__ = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.band.shape[1],) * 2

    @property
    def nbytes(self) -> int:
        return self.band.nbytes

    @cached_property
    def T(self) -> "LowerBandSolve":
        return LowerBandSolve(self.band, "T" if self.trans == "N" else "N")

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        x, info = dtbtrs(self.band, v, uplo="L", trans=self.trans)
        if info != 0:
            raise SmootherError(f"banded triangular solve failed: LAPACK info {info}")
        return x

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        return (self.T @ x.T).T


Smoother = Union[np.ndarray, LowerBandSolve]  # or a csr.CsrArray (a large Jacobi M)


def build_smoother(spec: SmootherSpec, a: SpsdOperator) -> Smoother:
    """M as a matrix (Jacobi's diagonal omega D^{-1} by linalg.assemble: a
    CsrArray from SPARSE_MIN_ENTRIES entries on, else a dense ndarray), a
    LowerBandSolve (Gauss-Seidel) or, for a custom M, a dense n x n ndarray."""
    if isinstance(spec, WeightedJacobi):
        if not 0.0 < spec.omega < np.inf:
            raise SmootherError(
                f"Jacobi weight must be positive and finite, got {spec.omega}")
        n = a.n
        return assemble(np.arange(n) * (n + 1), spec.omega / _positive_diagonal(a),
                        (n, n))
    if isinstance(spec, GaussSeidel):
        _positive_diagonal(a)
        # tril(A) as a Fortran-ordered band (dtbtrs copies a C-ordered one)
        i, j, x = entries(a.matrix)
        lower = i >= j
        i, j = i[lower], j[lower]
        band = np.zeros((int((i - j).max()) + 1, a.n), order="F")
        band[i - j, j] = x[lower]
        return LowerBandSolve(band)
    if isinstance(spec, CustomSmoother):
        m = as_matrix(dense(spec.matrix), "M")
        if m.shape != (a.n, a.n):
            raise SmootherError(
                f"custom smoother has shape {m.shape}, expected ({a.n}, {a.n})")
        return m
    raise TypeError(f"unknown smoother spec {spec!r}")


# ---------------------------------------------------------------------------
# hierarchy


@dataclass(frozen=True, eq=False)
class TwoGridHierarchy:
    """All operators of one two-grid setup, immutable after construction.

    The fields are the inputs A and Ac (certified SPSD, one tolerance
    policy; a graph Laplacian certified by structure is held in CSR), M (for
    Jacobi the matrix omega D^{-1}, in CSR when linalg.assemble builds it
    so; for Gauss-Seidel a LowerBandSolve on tril(A), its only form; a
    custom M an n x n ndarray) and P (in CSR when given sparse, as
    linalg.assemble builds a large aggregation_prolongation). Each
    operator has the one form it was built in, and the solver's sweeps
    apply A, M, M^T and P in it, with P^T from PT, the one operator kept
    for the sweeps alone. r and s are the ranks of A and Ac (s <= r). When
    A or Ac is a graph Laplacian certified by structure, its rank, null
    basis, thin factor and pseudoinverse need no spectrum: F and Ac^+ (the
    first sweep's coarse solve) come from pinned Cholesky factors
    (SpsdOperator). Every form is
    r x r on range(A), through A's thin factor F (F^T F = A; the eigen
    factor Lambda_r^{1/2} V_r^T after the eigh certificate), and is read off
    B = F M F^T. Any two r-row factors differ by an orthogonal r x r matrix,
    so no spectrum read here depends on which one A has. The coarse space
    is the SVD F P = Q R, truncated to s: Q (r x s) has orthonormal columns
    and R (s x nc) is Sigma_s V_s^T; the same full SVD gives Q_perp
    (r x (r - s)), an orthonormal basis of the complement of range(Q).
    Pi = F P Ac^+ P^T F^T = Q Q^T is never stored; every coarse correction
    is Q C Q^T, s x s core C, and reads K = I - B through Q^T K (s x r). B,
    Q, R, Q_perp, Q^T K, the smoother and pre-smoother forms, the spectra
    the analysis reads and the ends of Mbar's spectrum (mbar_ends; together
    they decide every convergence condition) are built on first read and
    kept, so each is solved once per hierarchy. The Mtilde form
    B + B^T - B B^T is read only through its compressions onto Q_perp and Q
    (complement_spectrum, coarse_spectrum), never formed; its own spectrum
    is smoother_spectrum.
    build_hierarchy validates; this does not.
    """

    A: SpsdOperator
    M: Smoother
    P: np.ndarray  # or a csr.CsrArray
    Ac: SpsdOperator

    @property
    def r(self) -> int:
        return self.A.rank

    @property
    def s(self) -> int:
        return self.Ac.rank

    @property
    def n(self) -> int:
        return self.A.n

    @property
    def nc(self) -> int:
        return self.P.shape[1]

    @property
    def policy(self) -> TolerancePolicy:
        return self.A.policy

    @cached_property
    def PT(self):
        """P^T, the restriction the sweeps apply: for a CSR P its CSR
        transpose, built on the first sweep and kept; otherwise the view P.T."""
        return self.P.T.tocsr() if is_sparse(self.P) else self.P.T

    @cached_property
    def coarse_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Q, R, Q_perp) from the full SVD F P = U Sigma V^T, cut at s = rank(Ac).

        Q = U[:, :s], R = Sigma_s V_s^T and Q_perp = U[:, s:]; U itself is
        not kept. The squared singular values are Ac's eigenvalues, so s is
        Ac's one rank decision; none is made again on these singular values.
        A P held in CSR is never densified: F @ P is the sparse product.
        """
        u, sv, vt = np.linalg.svd(self.A.factor @ self.P, full_matrices=True)
        s = self.s
        return u[:, :s].copy(), sv[:s, None] * vt[:s], u[:, s:].copy()

    @property
    def Q(self) -> np.ndarray:
        """Orthonormal basis (r x s) of the range of F P."""
        return self.coarse_factors[0]

    @property
    def R(self) -> np.ndarray:
        """The s x nc factor with Q R = F P."""
        return self.coarse_factors[1]

    @property
    def Q_perp(self) -> np.ndarray:
        """Orthonormal basis (r x (r - s)) of the complement of range(Q)."""
        return self.coarse_factors[2]

    @cached_property
    def smoother_product(self) -> np.ndarray:
        """B = F M F^T (r x r), the product every smoother operator is read off.

        For a CSR M, F M reads the column-major F's transpose as it is; for
        a LowerBandSolve M, F M is one band solve on F's r rows."""
        return self.A.factor @ self.M @ self.A.factor.T

    @cached_property
    def smoother_form(self) -> np.ndarray:
        """F Mbar F^T = B + B^T - B^T B (r x r), PSD by the smoother assumption.

        Not I - K^T K, whose cancellation would erase a small M's digits."""
        b = self.smoother_product
        return sym_part(b + b.T - b.T @ b)

    @cached_property
    def smoother_spectrum(self) -> np.ndarray:
        """Eigenvalues of the smoother form, ascending, solved once.

        Nonnegativity of this spectrum is equivalent to the smoothing
        iteration being a (not necessarily strict) contraction in the energy
        seminorm; build_hierarchy certifies a Jacobi or custom M on it. It is also
        the spectrum of the Mtilde form: with K = I - B the smoother form is
        I - K^T K and the Mtilde form is I - K K^T, and K^T K and K K^T have
        the same eigenvalues.
        """
        return np.linalg.eigvalsh(self.smoother_form)

    @cached_property
    def pre_smoother(self) -> np.ndarray:
        """K = I - B (r x r); its transpose is the post-smoothing twin."""
        return np.eye(self.r) - self.smoother_product

    @cached_property
    def restricted_pre_smoother(self) -> np.ndarray:
        """Q^T K (s x r), the one product of K with the coarse basis."""
        return self.Q.T @ self.pre_smoother

    def _mtilde_spectrum(self, v: np.ndarray) -> np.ndarray:
        """Spectrum of V^T F Mtilde F^T V = V^T (B + B^T - B B^T) V, ascending.

        For every M it is X + X^T - Y Y^T with Y = V^T B and X = Y V, summed
        as G + G^T with G = Y (V - Y^T / 2) = X - Y Y^T / 2: exactly
        symmetric, one product fewer, and no r x r Mtilde form is formed.
        A small M keeps its digits: B is never added to I.
        """
        y = v.T @ self.smoother_product
        g = y @ (v - 0.5 * y.T)
        return np.linalg.eigvalsh(g + g.T)

    @cached_property
    def complement_spectrum(self) -> np.ndarray:
        """Spectrum of (I - Pi) F Mtilde F^T (I - Pi), Pi = Q Q^T (r x r), ascending.

        [Q Q_perp] is orthogonal, and in that basis the form is zero but for
        its Q_perp block, so the spectrum is s exact zeros and that of
        Q_perp^T F Mtilde F^T Q_perp, one eigen-solve of order r - s.
        """
        w = self._mtilde_spectrum(self.Q_perp)
        return np.sort(np.concatenate([np.zeros(self.s), w]))

    @cached_property
    def coarse_spectrum(self) -> np.ndarray:
        """Spectrum of Q^T F Mtilde F^T Q (s x s).

        With r - s zeros added it is the spectrum of Pi F Mtilde F^T Pi.
        """
        return self._mtilde_spectrum(self.Q)

    @cached_property
    def mbar_ends(self) -> np.ndarray:
        """The ends of the spectrum of Mbar = M + M^T - M^T A M that are read:
        lambda_min, followed by lambda_max only when lambda_min < 0.

        That is all spectrum_psd needs for the sufficient condition, and
        mbar_min_eig is the first entry. Both ends are read by
        linalg.spectrum_end:
        - Gauss-Seidel, M = T^{-1} with T = tril(A), has Mbar^{-1} =
          T D^{-1} T^T = X X^T, PD by its structure; X = T D^{-1/2} is read
          off M's band (entry (j + k, j) is band[k, j] / sqrt(band[0, j])),
          summed by linalg.assemble, and lambda_min is 1 / lambda_max(X X^T);
        - a matrix M (Jacobi or custom) forms Mbar = M + M^T - M^T (A M) in
          its operands' form: in CSR when both M and A are.
        """
        m = self.M
        if isinstance(m, LowerBandSolve):
            n = self.n
            k, j = np.nonzero(m.band)
            x = assemble((j + k) * n + j, m.band[k, j] / np.sqrt(m.band[0, j]), (n, n))
            return np.array([1.0 / spectrum_end(x @ x.T, highest=True)])
        mbar = m + m.T - m.T @ (self.A.matrix @ m)
        low = spectrum_end(mbar, highest=False)
        if low >= 0.0:
            return np.array([low])
        return np.array([low, spectrum_end(mbar, highest=True)])

    @property
    def mbar_min_eig(self) -> float:
        """The smallest eigenvalue of Mbar (mbar_ends)."""
        return float(self.mbar_ends[0])


def _galerkin(a: SpsdOperator, p) -> np.ndarray:
    """P^T A P: for a CSR A (a large graph Laplacian) the sparse product
    P^T (A P) in O(nnz), else dense. A small sparse product is left for
    spsd_certify to densify, by the size rule it shares with linalg.assemble."""
    if is_sparse(a.matrix):
        from .csr import as_csr
        p = as_csr(p, "P")
        return p.T @ (a.matrix @ p)
    p = dense(p)
    return p.T @ a.matrix @ p


def check_prolongation(p, n: int):
    """P validated against A's order n: in CSR when given sparse, else a
    finite ndarray, with n rows and between 1 and n - 1 columns."""
    if is_sparse(p):
        from .csr import as_csr
        p = as_csr(p, "P")
    else:
        p = as_matrix(p, "P")
    rows, nc = p.shape
    if rows != n:
        raise ShapeError(f"P has {rows} rows, expected {n}")
    if not (1 <= nc < n):
        raise ShapeError(f"P must have between 1 and {n - 1} columns, got {nc}")
    return p


def build_hierarchy(a, p, spec: SmootherSpec) -> TwoGridHierarchy:
    """Validate, certify and assemble a two-grid hierarchy.

    `a` is a certified operator, or a raw SPSD matrix certified under the
    default policy for its dimension (for another policy, certify first).
    Raises if P^T A P is invalid or outranks A, or if the smoothing
    iteration is expansive in the energy seminorm, which for weighted Jacobi
    is a weight above the stability limit 2 / lambda_max(D^{-1} A), named in
    the error. Gauss-Seidel needs no solve: Mbar = M^T D M, D = diag(A) > 0,
    so on graph Laplacians that A and Ac certify by structure its set-up
    solves no spectrum at all.
    """
    if not isinstance(a, SpsdOperator):
        a = spsd_certify(a, TolerancePolicy.for_dimension(np.shape(a)[0]))
    p = check_prolongation(p, a.n)
    m = build_smoother(spec, a)
    try:
        ac = spsd_certify(_galerkin(a, p), a.policy)
    except NotSpsdError as exc:
        raise NotSpsdError(f"coarse-grid matrix P^T A P is invalid: {exc}") from exc
    if ac.rank > a.rank:
        raise ShapeError(
            f"coarse rank {ac.rank} exceeds fine rank {a.rank}; "
            "rank thresholds are inconsistent")

    h = TwoGridHierarchy(A=a, M=m, P=p, Ac=ac)
    if isinstance(spec, GaussSeidel):
        return h
    spectrum = h.smoother_spectrum
    if not spectrum_psd(spectrum):
        limit = ""
        if isinstance(spec, WeightedJacobi):
            # The smoother form of omega D^{-1} has the eigenvalues
            # omega mu (2 - omega mu), mu in sigma(D^{-1} A); the most
            # negative one comes from mu_max, so 2 / mu_max solves back.
            bound = 2.0 * spec.omega / (1.0 + np.sqrt(1.0 - float(spectrum[0])))
            limit = (f"; Jacobi weight {spec.omega:.6g} exceeds the stability "
                     f"limit {bound:.6g}")
        raise SmootherAssumptionError(
            "smoothing iteration is expansive in the energy seminorm: "
            f"most negative eigenvalue of A^(1/2) Mbar A^(1/2) is {float(spectrum[0]):.6e}"
            + limit)
    return h


# ---------------------------------------------------------------------------
# problem generators


@dataclass(frozen=True)
class NeumannLaplacian1D:
    n: int


@dataclass(frozen=True)
class NeumannLaplacian2D:
    nx: int
    ny: int


@dataclass(frozen=True)
class GraphLaplacian:
    """Weighted undirected graph given as (u, v, weight) edges, nodes 0..n-1."""

    edges: tuple
    n: int | None = None


@dataclass(frozen=True)
class RandomSpsd:
    n: int
    rank: int
    seed: int


@dataclass(frozen=True)
class FromFile:
    path: str


ProblemSpec = Union[NeumannLaplacian1D, NeumannLaplacian2D, GraphLaplacian,
                    RandomSpsd, FromFile]


def _laplacian(u: np.ndarray, v: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """L = D - W (n x n) of the edges u[k] - v[k], weights w[k], in one assemble.

    Its keys row * n + col run per edge as (u, u) +w, (v, v) +w, (u, v) -w,
    (v, u) -w, so each entry adds its terms in edge order: a per-edge loop's
    bytes. linalg.assemble sums them, so a large L is a csr.CsrArray of the
    same sums and no n x n array is formed.
    """
    keys = np.outer(u, [n + 1, 0, n, 1]) + np.outer(v, [0, n + 1, 1, n])
    terms = np.outer(w, [1.0, 1.0, -1.0, -1.0])
    return assemble(keys.ravel(), terms.ravel(), (n, n))


def neumann_laplacian_1d(n: int) -> np.ndarray:
    """Second-difference matrix with pure Neumann ends: the path graph's Laplacian."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    i = np.arange(n - 1)
    return _laplacian(i, i + 1, np.ones(n - 1), n)


def neumann_laplacian_2d(nx: int, ny: int) -> np.ndarray:
    """5-point Neumann Laplacian: the nx x ny grid graph's, node (x, y) at x * ny + y."""
    if nx < 2 or ny < 2:
        raise ValueError(f"need nx, ny >= 2, got {nx} x {ny}")
    node = np.arange(nx * ny).reshape(nx, ny)
    u = np.concatenate([node[:-1].ravel(), node[:, :-1].ravel()])
    v = np.concatenate([node[1:].ravel(), node[:, 1:].ravel()])
    return _laplacian(u, v, np.ones(u.size), nx * ny)


def graph_laplacian(edges, n: int | None = None) -> np.ndarray:
    """Weighted graph Laplacian L = D - W of (u, v[, weight]) edges.

    Weights (default 1) must be finite and nonnegative; repeated edges add.
    The first invalid edge is named: an index beyond int64, then a self
    loop, then its weight, then a negative index; then the node count (n, or
    the largest index + 1); then the first edge of the first node whose
    weighted degree overflows. Its EdgeError carries its index in `edges`; a
    graph of fewer than two nodes raises one with index None.
    """
    us, vs, ws = [], [], []
    for edge in edges:
        u, v, w = (*edge, 1.0) if len(edge) == 2 else edge
        us.append(int(u))
        vs.append(int(v))
        ws.append(float(w))
    try:
        (u, v), w = np.array([us, vs], dtype=np.int64), np.array(ws)
    except OverflowError:
        k = next(k for k, pair in enumerate(zip(us, vs))
                 if not all(-2 ** 63 <= x < 2 ** 63 for x in pair))
        raise EdgeError(f"edge ({us[k]}, {vs[k]}) has a node index outside the "
                        "int64 range", k) from None
    failed = np.array([u == v, ~np.isfinite(w), w < 0.0, np.minimum(u, v) < 0])
    if failed.any():  # name the first invalid edge by its first failed check
        k, check = np.argwhere(failed.T)[0]
        raise EdgeError(("self loop at node {u} is not allowed",
                         "edge ({u}, {v}) has non-finite weight {w}",
                         "edge ({u}, {v}) has negative weight {w}",
                         "edge ({u}, {v}) has a negative node index")[check]
                        .format(u=us[k], v=vs[k], w=ws[k]), int(k))
    top = np.maximum(u, v)
    size = n if n is not None else (int(top.max()) + 1 if ws else 0)
    if size < 2:
        raise EdgeError("graph needs at least two nodes", None)
    over = np.flatnonzero(top >= size)
    if over.size:
        k = int(over[0])
        raise EdgeError(f"edge ({us[k]}, {vs[k]}) exceeds node count {size}", k)
    # summed per node in edge order, as _laplacian sums the diagonal
    degree = np.bincount(np.column_stack([u, v]).ravel(), np.repeat(w, 2), size)
    if not np.isfinite(degree).all():
        node = int(np.flatnonzero(~np.isfinite(degree))[0])
        k = int(np.flatnonzero((u == node) | (v == node))[0])
        raise EdgeError(f"edge ({us[k]}, {vs[k]}): the weighted degree of node "
                        f"{node} overflows", k)
    return _laplacian(u, v, w, size)


def random_spsd(n: int, rank: int, seed: int) -> np.ndarray:
    """Seeded rank-deficient SPSD matrix G^T G with G of shape (rank, n)."""
    if not (1 <= rank <= n):
        raise ValueError(f"rank must lie in [1, {n}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((rank, n))
    return sym_part(g.T @ g)


def aggregation_prolongation(n: int, group: int = 2) -> np.ndarray:
    """Piecewise-constant prolongation over consecutive index groups.

    Column j is the indicator of indices [j*group, (j+1)*group); the last
    group absorbs the remainder. group >= 2 keeps the coarse space strictly
    smaller than the fine space. linalg.assemble builds P, so a large P is
    a csr.CsrArray, otherwise an ndarray.
    """
    if group < 2:
        raise ValueError(f"aggregation group must be >= 2, got {group}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    nc = max(1, n // group)
    i = np.arange(n)
    groups = np.minimum(i // group, nc - 1)
    return assemble(i * nc + groups, np.ones(n), (n, nc))


def problem_matrix(spec: ProblemSpec) -> np.ndarray:
    if isinstance(spec, NeumannLaplacian1D):
        return neumann_laplacian_1d(spec.n)
    if isinstance(spec, NeumannLaplacian2D):
        return neumann_laplacian_2d(spec.nx, spec.ny)
    if isinstance(spec, GraphLaplacian):
        return graph_laplacian(spec.edges, spec.n)
    if isinstance(spec, RandomSpsd):
        return random_spsd(spec.n, spec.rank, spec.seed)
    if isinstance(spec, FromFile):
        return mmio.read_matrix(spec.path)
    raise TypeError(f"unknown problem spec {spec!r}")


def generate_problem(spec: ProblemSpec, group: int = 2, seed: int = 0
                     ) -> tuple[SpsdOperator, np.ndarray, np.ndarray, np.ndarray]:
    """Build (A, P, f, u_ref) with a consistent right-hand side.

    u_ref is drawn from a seeded generator and f = A u_ref, which guarantees
    that f lies in the range of A. P defaults to pairwise aggregation. A is
    certified under the default policy for its dimension. A graph Laplacian
    that linalg.assemble builds in CSR stays in CSR from its edge list on,
    so f is a CSR product.
    """
    matrix = problem_matrix(spec)
    n = matrix.shape[0]
    a = spsd_certify(matrix, TolerancePolicy.for_dimension(n))
    p = aggregation_prolongation(n, group)
    rng = np.random.default_rng(seed)
    u_ref = rng.standard_normal(n)
    f = a.matrix @ u_ref
    return a, p, f, u_ref
