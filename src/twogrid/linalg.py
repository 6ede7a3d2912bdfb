"""Dense symmetric spectral kernels.

Eigendecomposition, thin factors and Moore-Penrose inverses under a shared
tolerance policy, plus the two decisions every module shares: the
numerical rank of a spectrum (spectrum_rank) and whether a spectrum is PSD
within slack (spectrum_psd). Every higher-level module (hierarchy assembly,
convergence analysis, solvers) stands on these primitives, so each rule is
written once and the rank threshold is decided once per matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EigenSolveError, NotSpsdError, ShapeError

EPS = float(np.finfo(np.float64).eps)

# Relative asymmetry accepted before an input is rejected as nonsymmetric.
SYMMETRY_RTOL = 1e-8


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a finite float64 2-d array (row-major)."""
    arr = np.array(a, dtype=np.float64, order="C", copy=True)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{name} must have at least one row and one column")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def as_vector(v, n: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and convert input to a finite float64 1-d array."""
    arr = np.array(v, dtype=np.float64, copy=True).reshape(-1)
    if n is not None and arr.size != n:
        raise ShapeError(f"{name} has length {arr.size}, expected {n}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def sym_part(x: np.ndarray) -> np.ndarray:
    """Symmetric part (x + x^T)/2; kills rounding skew of assembled products."""
    return 0.5 * (x + x.T)


def _symmetric_input(s) -> np.ndarray:
    """as_matrix(s) checked square and symmetric up to rounding skew, as sym_part."""
    s = as_matrix(s, "S")
    if s.shape[0] != s.shape[1]:
        raise ShapeError(f"S must be square, got shape {s.shape}")
    skew = float(np.max(np.abs(s - s.T)))
    scale = float(np.max(np.abs(s)))
    if skew > SYMMETRY_RTOL * max(scale, 1.0):
        raise ShapeError(f"S is not symmetric: max|S - S^T| = {skew:.3e}")
    return sym_part(s)


@dataclass(frozen=True)
class TolerancePolicy:
    """Thresholds shared by every rank, PSD, and identity decision.

    rank_rel_tol: eigenvalues below rank_rel_tol * lambda_max count as zero.
    psd_slack: negative eigenvalues above -psd_slack * lambda_max are treated
        as rounding noise and clamped to zero; anything lower is rejected.
    match_tol: tolerance for identity and oracle comparisons.
    """

    rank_rel_tol: float
    psd_slack: float = 1e-10
    match_tol: float = 1e-10

    def __post_init__(self):
        for fname in ("rank_rel_tol", "psd_slack", "match_tol"):
            value = getattr(self, fname)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{fname} must lie in (0, 1), got {value}")

    @classmethod
    def for_dimension(cls, n: int) -> "TolerancePolicy":
        """Default policy for n-dimensional problems: rank cut at 32*n*eps."""
        if n < 1:
            raise ValueError(f"dimension must be positive, got {n}")
        return cls(rank_rel_tol=32.0 * n * EPS)


@dataclass(frozen=True, eq=False)
class SymEigen:
    """Eigenvalues in ascending order, column i of vectors pairs with values[i]."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eig(s) -> SymEigen:
    """Full eigendecomposition of a symmetric matrix.

    The input is symmetrized as (S + S^T)/2 before factorization, so mild
    rounding skew is tolerated; gross asymmetry is rejected. The output is
    deterministic: identical input bytes give identical eigenvalue bytes.
    """
    return _eigh(_symmetric_input(s))


def _eigh(sym: np.ndarray) -> SymEigen:
    """eigh of an already symmetric matrix; a failure names its off-diagonal scale."""
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        off = sym - np.diag(np.diag(sym))
        raise EigenSolveError(
            "eigendecomposition failed to converge "
            f"(max off-diagonal magnitude {np.max(np.abs(off)):.3e})"
        ) from exc
    return SymEigen(values=values, vectors=vectors)


@dataclass(frozen=True, eq=False)
class SpsdOperator:
    """An SPSD matrix with the spectrum and rank its certification decided.

    Every operator derived from the fields (thin factor, Moore-Penrose
    inverse, range and null bases) is a cached property, built on first read
    under the one rank decision.
    """

    matrix: np.ndarray
    eig: SymEigen
    rank: int
    policy: TolerancePolicy

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def max_eigenvalue(self) -> float:
        return float(self.eig.values[-1])

    @cached_property
    def factor(self) -> np.ndarray:
        """Thin factor F = Lambda_r^{1/2} V_r^T (rank x n) over the kept eigenpairs.

        F^T F is the matrix less the eigenvalues the rank discards, and F
        is zero on the null basis up to the rounding of its orthogonality.
        """
        first = self.n - self.rank
        return np.sqrt(self.eig.values[first:])[:, None] * self.eig.vectors[:, first:].T

    @cached_property
    def pinv(self) -> np.ndarray:
        """Moore-Penrose inverse; inverts exactly the eigenvalues the rank keeps."""
        first = self.n - self.rank
        w, v = self.eig.values, self.eig.vectors
        g = np.zeros_like(w)
        g[first:] = 1.0 / w[first:]
        return sym_part((v * g) @ v.T)

    @cached_property
    def range_basis(self) -> np.ndarray:
        """Orthonormal columns spanning the range (eigenvectors of kept eigenvalues)."""
        return self.eig.vectors[:, self.n - self.rank:].copy()

    @cached_property
    def null_basis(self) -> np.ndarray:
        """Orthonormal columns spanning the null space (shape n x (n - rank))."""
        return self.eig.vectors[:, :self.n - self.rank].copy()


def spsd_certify(s, tol: TolerancePolicy) -> SpsdOperator:
    """Certify a matrix as SPSD: decide its spectrum and rank once.

    Eigenvalues in [-psd_slack * lambda_max, 0) are clamped to zero as
    rounding noise (assembled products like P^T A P accumulate it); anything
    below that rejects the input. The zero matrix is rejected outright since
    relative rank decisions need a positive scale.

    The derived operators are built lazily on the returned SpsdOperator.
    """
    sym = _symmetric_input(s)
    eig = _eigh(sym)
    w = eig.values
    lam_max = float(w[-1])
    if lam_max <= 0.0:
        if float(np.max(np.abs(w))) == 0.0:
            raise NotSpsdError("matrix is zero; a nonzero SPSD matrix is required")
        raise NotSpsdError(
            f"matrix is not SPSD: largest eigenvalue {lam_max:.6e} is not positive")
    if float(w[0]) < -tol.psd_slack * lam_max:
        raise NotSpsdError(
            f"matrix is not SPSD: eigenvalue {float(w[0]):.6e} lies below "
            f"-psd_slack * lambda_max = {-tol.psd_slack * lam_max:.6e}")

    clamped = np.maximum(w, 0.0)
    return SpsdOperator(matrix=sym,
                        eig=SymEigen(values=clamped, vectors=eig.vectors),
                        rank=spectrum_rank(clamped, tol), policy=tol)


def symmetric_rank(s, tol: TolerancePolicy) -> int:
    """Rank of a symmetric PSD-ish matrix by thresholded eigenvalue count.

    Unlike spsd_certify this accepts the zero matrix (rank 0); small negative
    eigenvalues are ignored for the count.
    """
    return spectrum_rank(np.linalg.eigvalsh(_symmetric_input(s)), tol)


def spectrum_rank(w: np.ndarray, tol: TolerancePolicy,
                  scale: float | None = None) -> int:
    """symmetric_rank read off an already computed spectrum w.

    The one rank rule: eigenvalues above rank_rel_tol * scale count, where
    scale defaults to max|w|. Pass the scale of the matrix that w was
    compressed from when w itself may be pure rounding.
    """
    if scale is None:
        scale = float(np.max(np.abs(w)))
    if scale == 0.0:
        return 0
    return int(np.count_nonzero(w > tol.rank_rel_tol * scale))


def spectrum_psd(w: np.ndarray, tol: TolerancePolicy) -> bool:
    """Whether an ascending spectrum w is PSD up to rounding.

    The one PSD-within-slack rule: the smallest eigenvalue may dip to
    -psd_slack * max(1, max|w|).
    """
    scale = max(1.0, float(np.max(np.abs(w))))
    return bool(float(w[0]) >= -tol.psd_slack * scale)
