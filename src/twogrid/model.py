"""Two-grid hierarchy assembly and test-problem generators.

Builds smoothers (weighted Jacobi, Gauss-Seidel as a band solve on tril(A),
custom M), the Galerkin coarse matrix P^T A P, and, on range(A) through A's
thin factor F (A = F^T F), the coarse basis and the forms of the symmetrized
smoothers M + M^T - M^T A M (Mbar) and M + M^T - M A M^T (Mtilde), read off
the one product F M F^T. Also provides SPSD test problems: Neumann Laplacians
in 1d/2d, weighted graph Laplacians, seeded random rank-deficient matrices,
and file input.
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
from .errors import NotSpsdError, ShapeError, SmootherAssumptionError, SmootherError
from .linalg import (
    SPARSE_MIN_ENTRIES,
    SpsdOperator,
    TolerancePolicy,
    as_matrix,
    spectrum_psd,
    spsd_certify,
    sym_part,
)


# ---------------------------------------------------------------------------
# smoother specifications


@dataclass(frozen=True)
class WeightedJacobi:
    """M = omega * D^{-1} with D = diag(A); requires omega > 0."""

    omega: float = 2.0 / 3.0


@dataclass(frozen=True)
class GaussSeidel:
    """M = (D + L)^{-1} for the lower-triangular splitting A = D + L + L^T."""


@dataclass(frozen=True, eq=False)
class CustomSmoother:
    """User-supplied n x n smoother matrix M."""

    matrix: np.ndarray


SmootherSpec = Union[WeightedJacobi, GaussSeidel, CustomSmoother]


def _positive_diagonal(a: SpsdOperator) -> np.ndarray:
    """diag(A), or SmootherError at its first entry d <= psd_slack * lambda_max.

    On a graph Laplacian certified by structure the certificate puts every
    nonzero entry above psd_slack * 2 max diag(A) >= psd_slack * lambda_max
    (Gershgorin), so d <= psd_slack * lambda_max holds exactly when d == 0:
    the same decision, made without reading A's spectrum.
    """
    d = np.diag(a.matrix).copy()
    floor = 0.0 if a.components is not None else a.policy.psd_slack * a.max_eigenvalue
    bad = np.nonzero(d <= floor)[0]
    if bad.size:
        raise SmootherError(
            f"diagonal entry {bad[0]} of A is zero; the matching row and column "
            "are zero as well, so solve the reduced system with that index removed")
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


def build_smoother(spec: SmootherSpec, a: SpsdOperator) -> np.ndarray | LowerBandSolve:
    """M as an ndarray (n x n, also for Jacobi), or for Gauss-Seidel a LowerBandSolve."""
    if isinstance(spec, WeightedJacobi):
        if spec.omega <= 0.0:
            raise SmootherError(f"Jacobi weight must be positive, got {spec.omega}")
        return np.diag(spec.omega / _positive_diagonal(a))
    if isinstance(spec, GaussSeidel):
        _positive_diagonal(a)
        # tril(A) as a Fortran-ordered band (dtbtrs copies a C-ordered one)
        i, j = np.nonzero(a.matrix)
        i, j = i[i >= j], j[i >= j]
        band = np.zeros((int((i - j).max()) + 1, a.n), order="F")
        band[i - j, j] = a.matrix[i, j]
        return LowerBandSolve(band)
    if isinstance(spec, CustomSmoother):
        m = as_matrix(spec.matrix, "M")
        if m.shape != (a.n, a.n):
            raise SmootherError(
                f"custom smoother has shape {m.shape}, expected ({a.n}, {a.n})")
        return m
    raise TypeError(f"unknown smoother spec {spec!r}")


# The sweep applies an operator in CSR only when it has at least
# SPARSE_MIN_ENTRIES (linalg) entries and at most SPARSE_MAX_DENSITY of them
# are nonzero. Below that size scipy's cost per call exceeds the dense product.
SPARSE_MAX_DENSITY = 1.0 / 32.0


def sweep_form(matrix):
    """`matrix` as the sweep applies it; see TwoGridHierarchy.sweep_operators."""
    if (isinstance(matrix, np.ndarray) and matrix.size >= SPARSE_MIN_ENTRIES
            and np.count_nonzero(matrix) <= SPARSE_MAX_DENSITY * matrix.size):
        # Imported here: hierarchies below the threshold never load scipy.sparse.
        from scipy.sparse import csr_array
        return csr_array(matrix)
    return matrix


# ---------------------------------------------------------------------------
# hierarchy


@dataclass(frozen=True, eq=False)
class TwoGridHierarchy:
    """All operators of one two-grid setup, immutable after construction.

    The fields are the inputs A and Ac (certified SPSD, one tolerance
    policy), M (for Gauss-Seidel a LowerBandSolve on tril(A), its only form)
    and P. r and s are the ranks of A and Ac (s <= r). When A or Ac is a
    graph Laplacian certified by structure, its rank and null basis need no
    spectrum: A's is solved on the first read of F, Ac's on the first read
    of Ac^+ (the first sweep's coarse solve, or the analysis). Every form is
    r x r on range(A), through A's thin factor F = Lambda_r^{1/2} V_r^T
    (F^T F = A), and is read off B = F M F^T. The coarse space is the
    truncated SVD F P = Q R: Q (r x s) has orthonormal columns and R
    (s x nc) is Sigma_s V_s^T.
    Pi = F P Ac^+ P^T F^T = Q Q^T is never stored; every coarse correction
    is Q C Q^T, s x s core C. B, Q, R, the smoother, Mtilde and
    pre-smoother forms and the spectra the analysis reads (they decide
    every convergence condition) are built on first read and kept, so each
    is solved once per hierarchy. The Mtilde form is a separate array only
    for a nonsymmetric M; its spectrum is smoother_spectrum. The solver
    reads A, M and P via sweep_operators.
    build_hierarchy validates; this does not.
    """

    A: SpsdOperator
    M: np.ndarray | LowerBandSolve
    P: np.ndarray
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
    def sweep_operators(self) -> tuple:
        """(A, M, M^T, P, P^T) as the solver's sweeps apply them.

        Each is its sweep_form: a Gauss-Seidel M (with M^T) as its
        LowerBandSolve at every size; an ndarray with SPARSE_MIN_ENTRIES
        entries or more in CSR if sparse, otherwise the hierarchy's own
        array (M^T and P^T as views). Built on the first sweep, never by the
        analysis.
        """
        return tuple(sweep_form(op) for op in (self.A.matrix, self.M, self.M.T,
                                               self.P, self.P.T))

    @cached_property
    def coarse_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(Q, R) from the SVD of F P, truncated to s = rank(Ac).

        The squared singular values are Ac's eigenvalues, so s is Ac's one
        rank decision; none is made again on these singular values.
        """
        u, sv, vt = np.linalg.svd(self.A.factor @ self.P, full_matrices=False)
        s = self.s
        return u[:, :s].copy(), sv[:s, None] * vt[:s]

    @property
    def Q(self) -> np.ndarray:
        """Orthonormal basis (r x s) of the range of F P."""
        return self.coarse_factors[0]

    @property
    def R(self) -> np.ndarray:
        """The s x nc factor with Q R = F P."""
        return self.coarse_factors[1]

    @cached_property
    def smoother_product(self) -> np.ndarray:
        """B = F M F^T (r x r), the product every smoother operator is read off.

        For a LowerBandSolve M, F M is one band solve on F's r rows."""
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
    def mtilde_form(self) -> np.ndarray:
        """F Mtilde F^T = B + B^T - B B^T; for a symmetric M, the smoother form."""
        m = self.M  # a LowerBandSolve is symmetric only with a one-row band
        if (m.band.shape[0] == 1 if isinstance(m, LowerBandSolve)
                else np.array_equal(m, m.T)):
            return self.smoother_form
        b = self.smoother_product
        return sym_part(b + b.T - b @ b.T)

    @cached_property
    def complement_spectrum(self) -> np.ndarray:
        """Spectrum of (I - Pi) F Mtilde F^T (I - Pi), Pi = Q Q^T (r x r)."""
        q = self.Q
        y = self.mtilde_form - q @ (q.T @ self.mtilde_form)
        return np.linalg.eigvalsh(sym_part(y - (y @ q) @ q.T))

    @cached_property
    def coarse_spectrum(self) -> np.ndarray:
        """Spectrum of Q^T F Mtilde F^T Q (s x s).

        With r - s zeros added it is the spectrum of Pi F Mtilde F^T Pi.
        """
        q = self.Q
        return np.linalg.eigvalsh(sym_part(q.T @ self.mtilde_form @ q))

    @cached_property
    def mbar_spectrum(self) -> np.ndarray:
        """Eigenvalues of Mbar = M + M^T - M^T A M itself, ascending.

        An ndarray M forms Mbar and drops it. Gauss-Seidel, M = T^{-1} with
        T = tril(A), has Mbar^{-1} = T D^{-1} T^T: the spectrum is
        1 / sigma(T D^{-1/2})^2, as singular values so that rounding cannot
        turn an eigenvalue of T D^{-1} T^T negative.
        """
        m, a = self.M, self.A.matrix
        if isinstance(m, LowerBandSolve):
            t = np.tril(a) / np.sqrt(np.diag(a))
            return 1.0 / np.linalg.svd(t, compute_uv=False) ** 2
        return np.linalg.eigvalsh(sym_part(m + m.T - m.T @ a @ m))


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
        a = spsd_certify(a, TolerancePolicy.for_dimension(np.asarray(a).shape[0]))
    p = as_matrix(p, "P")
    n, nc = p.shape
    if n != a.n:
        raise ShapeError(f"P has {n} rows, expected {a.n}")
    if not (1 <= nc < n):
        raise ShapeError(f"P must have between 1 and {n - 1} columns, got {nc}")

    m = build_smoother(spec, a)
    try:
        ac = spsd_certify(sym_part(p.T @ a.matrix @ p), a.policy)
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
    if not spectrum_psd(spectrum, a.policy):
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


def neumann_laplacian_1d(n: int) -> np.ndarray:
    """Second-difference matrix with pure Neumann ends (corner entries 1)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    a = np.zeros((n, n))
    i = np.arange(n - 1)
    a[i, i + 1] = a[i + 1, i] = -1.0
    np.fill_diagonal(a, 2.0)
    a[0, 0] = a[-1, -1] = 1.0
    return a


def neumann_laplacian_2d(nx: int, ny: int) -> np.ndarray:
    """Tensor 5-point Neumann Laplacian on an nx x ny grid."""
    if nx < 2 or ny < 2:
        raise ValueError(f"need nx, ny >= 2, got {nx} x {ny}")
    lx = neumann_laplacian_1d(nx)
    ly = neumann_laplacian_1d(ny)
    return np.kron(lx, np.eye(ny)) + np.kron(np.eye(nx), ly)


def graph_laplacian(edges, n: int | None = None) -> np.ndarray:
    """Weighted graph Laplacian L = D - W; weights must be nonnegative."""
    normalized = []
    for edge in edges:
        if len(edge) == 2:
            u, v = edge
            w = 1.0
        else:
            u, v, w = edge
        u, v, w = int(u), int(v), float(w)
        if u == v:
            raise ValueError(f"self loop at node {u} is not allowed")
        if w < 0.0:
            raise ValueError(f"edge ({u}, {v}) has negative weight {w}")
        if u < 0 or v < 0:
            raise ValueError(f"edge ({u}, {v}) has a negative node index")
        normalized.append((u, v, w))
    size = n if n is not None else (max(max(u, v) for u, v, _ in normalized) + 1
                                    if normalized else 0)
    if size < 2:
        raise ValueError("graph needs at least two nodes")
    a = np.zeros((size, size))
    for u, v, w in normalized:
        if u >= size or v >= size:
            raise ValueError(f"edge ({u}, {v}) exceeds node count {size}")
        a[u, u] += w
        a[v, v] += w
        a[u, v] -= w
        a[v, u] -= w
    return a


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
    smaller than the fine space.
    """
    if group < 2:
        raise ValueError(f"aggregation group must be >= 2, got {group}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    nc = max(1, n // group)
    p = np.zeros((n, nc))
    i = np.arange(n)
    p[i, np.minimum(i // group, nc - 1)] = 1.0
    return p


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
    certified under the default policy for its dimension.
    """
    matrix = problem_matrix(spec)
    n = matrix.shape[0]
    a = spsd_certify(matrix, TolerancePolicy.for_dimension(n))
    p = aggregation_prolongation(n, group)
    rng = np.random.default_rng(seed)
    u_ref = rng.standard_normal(n)
    f = a.matrix @ u_ref
    return a, p, f, u_ref
