"""Two-grid hierarchy assembly and test-problem generators.

Builds smoothers (weighted Jacobi, Gauss-Seidel, custom M), the symmetrized
smoother operators M + M^T - M^T A M and M + M^T - M A M^T, the Galerkin
coarse matrix P^T A P with its pseudoinverse, and the projectors derived from
them. Also provides SPSD test problems: Neumann Laplacians in 1d/2d, weighted
graph Laplacians, seeded random rank-deficient matrices, and file input.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np
from scipy.linalg import solve_triangular

from . import mmio
from .errors import NotSpsdError, ShapeError, SmootherAssumptionError, SmootherError
from .linalg import (
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
    d = np.diag(a.matrix).copy()
    floor = a.policy.psd_slack * a.max_eigenvalue
    bad = np.nonzero(d <= floor)[0]
    if bad.size:
        raise SmootherError(
            f"diagonal entry {bad[0]} of A is zero; the matching row and column "
            "are zero as well, so solve the reduced system with that index removed")
    return d


def jacobi_weight_limit(a: SpsdOperator) -> float:
    """Stability limit 2 / lambda_max(D^{-1} A) for the weighted Jacobi smoother."""
    d = _positive_diagonal(a)
    scale = 1.0 / np.sqrt(d)
    sym = sym_part(scale[:, None] * a.matrix * scale[None, :])
    lam_max = float(np.linalg.eigvalsh(sym)[-1])
    return np.inf if lam_max <= 0.0 else 2.0 / lam_max


def build_smoother(spec: SmootherSpec, a: SpsdOperator) -> np.ndarray:
    """Materialize the smoother matrix M for a certified system matrix."""
    if isinstance(spec, WeightedJacobi):
        if spec.omega <= 0.0:
            raise SmootherError(f"Jacobi weight must be positive, got {spec.omega}")
        d = _positive_diagonal(a)
        limit = jacobi_weight_limit(a)
        if spec.omega >= limit:
            warnings.warn(
                f"Jacobi weight {spec.omega} is at or above the stability limit "
                f"{limit:.6g}; the smoothing iteration may be expansive",
                stacklevel=2)
        return np.diag(spec.omega / d)
    if isinstance(spec, GaussSeidel):
        d = _positive_diagonal(a)
        lower = np.tril(a.matrix)
        return solve_triangular(lower, np.eye(a.n), lower=True)
    if isinstance(spec, CustomSmoother):
        m = as_matrix(spec.matrix, "M")
        if m.shape != (a.n, a.n):
            raise SmootherError(
                f"custom smoother has shape {m.shape}, expected ({a.n}, {a.n})")
        return m
    raise TypeError(f"unknown smoother spec {spec!r}")


def mbar(m, a: SpsdOperator) -> np.ndarray:
    """Symmetrized pre-smoothing operator M + M^T - M^T A M."""
    m = as_matrix(m, "M")
    if m.shape != (a.n, a.n):
        raise ShapeError(f"M has shape {m.shape}, expected ({a.n}, {a.n})")
    return sym_part(m + m.T - m.T @ a.matrix @ m)


def mtilde(m, a: SpsdOperator) -> np.ndarray:
    """Symmetrized post-smoothing operator M + M^T - M A M^T."""
    m = as_matrix(m, "M")
    if m.shape != (a.n, a.n):
        raise ShapeError(f"M has shape {m.shape}, expected ({a.n}, {a.n})")
    return sym_part(m + m.T - m @ a.matrix @ m.T)


# ---------------------------------------------------------------------------
# hierarchy


@dataclass(frozen=True, eq=False)
class TwoGridHierarchy:
    """All operators of one two-grid setup, immutable after construction.

    The inputs are A and Ac (certified SPSD, one tolerance policy), M and P.
    r and s are the ranks of A and Ac (s <= r); Mbar, Mtilde and the
    orthogonal projector Pi = A^{1/2} P Ac^+ P^T A^{1/2} are assembled once
    on construction. build_hierarchy validates; the constructor does not.
    """

    A: SpsdOperator
    M: np.ndarray
    P: np.ndarray
    Ac: SpsdOperator
    Mbar: np.ndarray = field(init=False)
    Mtilde: np.ndarray = field(init=False)
    Pi: np.ndarray = field(init=False)

    def __post_init__(self):
        a = self.A
        object.__setattr__(self, "Mbar", mbar(self.M, a))
        object.__setattr__(self, "Mtilde", mtilde(self.M, a))
        # P Ac^+ P^T is a temporary so that it is freed before the smoother
        # spectrum is solved; held there, it adds one n x n array to the peak.
        object.__setattr__(self, "Pi", sym_part(
            a.sqrt @ (self.P @ self.Ac.pinv @ self.P.T) @ a.sqrt))

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
    def smoother_spectrum(self) -> np.ndarray:
        """Eigenvalues of A^{1/2} Mbar A^{1/2}, ascending, solved once.

        Nonnegativity of this spectrum is equivalent to the smoothing
        iteration being a (not necessarily strict) contraction in the energy
        seminorm; build_hierarchy certifies the smoother on it.
        """
        ah = self.A.sqrt
        return np.linalg.eigvalsh(sym_part(ah @ self.Mbar @ ah))


def build_hierarchy(a, p, spec: SmootherSpec) -> TwoGridHierarchy:
    """Validate, certify and assemble a two-grid hierarchy.

    `a` is a certified operator, or a raw SPSD matrix certified under the
    default policy for its dimension (for another policy, certify first).
    Raises if P^T A P is invalid or outranks A, or if the smoothing
    iteration is expansive in the energy seminorm.
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
    spectrum = h.smoother_spectrum
    if not spectrum_psd(spectrum, a.policy):
        raise SmootherAssumptionError(
            "smoothing iteration is expansive in the energy seminorm: "
            f"most negative eigenvalue of A^(1/2) Mbar A^(1/2) is {float(spectrum[0]):.6e}")
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
    for i in range(n - 1):
        a[i, i] += 1.0
        a[i + 1, i + 1] += 1.0
        a[i, i + 1] -= 1.0
        a[i + 1, i] -= 1.0
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
    for i in range(n):
        p[i, min(i // group, nc - 1)] = 1.0
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
