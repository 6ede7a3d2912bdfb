"""Dense symmetric spectral kernels.

Eigendecomposition, matrix square roots and Moore-Penrose inverses under a
shared tolerance policy, numerical rank, orthonormal range/null bases, and
null-space intersection dimensions. Every higher-level module (hierarchy
assembly, convergence analysis, solvers) stands on these primitives, so the
rank threshold is decided exactly once per matrix and reused everywhere.
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


def _require_square_symmetric(s: np.ndarray, name: str) -> None:
    if s.shape[0] != s.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {s.shape}")
    skew = float(np.max(np.abs(s - s.T)))
    scale = float(np.max(np.abs(s)))
    if skew > SYMMETRY_RTOL * max(scale, 1.0):
        raise ShapeError(f"{name} is not symmetric: max|{name} - {name}^T| = {skew:.3e}")


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
    def for_dimension(cls, n: int, psd_slack: float = 1e-10,
                      match_tol: float = 1e-10) -> "TolerancePolicy":
        """Default policy for n-dimensional problems: rank cut at 32*n*eps."""
        if n < 1:
            raise ValueError(f"dimension must be positive, got {n}")
        return cls(rank_rel_tol=32.0 * n * EPS, psd_slack=psd_slack,
                   match_tol=match_tol)


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
    s = as_matrix(s, "S")
    _require_square_symmetric(s, "S")
    sym = sym_part(s)
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
    """An SPSD matrix bundled with its spectral derived operators.

    Carries the eigendecomposition, the numerical rank under the policy
    threshold, the principal square root, and the Moore-Penrose inverse, so
    every consumer sees one consistent set of rank decisions.
    """

    matrix: np.ndarray
    eig: SymEigen
    rank: int
    sqrt: np.ndarray
    pinv: np.ndarray
    policy: TolerancePolicy

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eig.values

    @property
    def max_eigenvalue(self) -> float:
        return float(self.eig.values[-1])

    @cached_property
    def pinv_sqrt(self) -> np.ndarray:
        """Square root of the pseudoinverse (= pseudoinverse of the square root).

        Inverts exactly the eigenvalues retained by the rank decision.
        """
        w = self.eig.values
        v = self.eig.vectors
        inv_sqrt_w = np.zeros_like(w)
        if self.rank > 0:
            kept = w[self.n - self.rank:]
            inv_sqrt_w[self.n - self.rank:] = 1.0 / np.sqrt(kept)
        return sym_part((v * inv_sqrt_w) @ v.T)

    @cached_property
    def range_basis(self) -> np.ndarray:
        """Orthonormal columns spanning the range (eigenvectors of kept eigenvalues)."""
        return self.eig.vectors[:, self.n - self.rank:].copy()

    @cached_property
    def null_basis(self) -> np.ndarray:
        """Orthonormal columns spanning the null space (shape n x (n - rank))."""
        return self.eig.vectors[:, :self.n - self.rank].copy()


def spsd_certify(s, tol: TolerancePolicy) -> SpsdOperator:
    """Certify a matrix as SPSD and bundle its derived spectral operators.

    Eigenvalues in [-psd_slack * lambda_max, 0) are clamped to zero as
    rounding noise (assembled products like P^T A P accumulate it); anything
    below that rejects the input. The zero matrix is rejected outright since
    relative rank decisions need a positive scale.

    The square root keeps every nonnegative eigenvalue, while the
    pseudoinverse inverts only eigenvalues above the rank threshold.
    """
    s = as_matrix(s, "S")
    _require_square_symmetric(s, "S")
    eig = sym_eig(s)
    w = eig.values
    n = w.size
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
    rank = int(np.count_nonzero(clamped > tol.rank_rel_tol * lam_max))
    v = eig.vectors
    sqrt = sym_part((v * np.sqrt(clamped)) @ v.T)
    inv_w = np.zeros_like(clamped)
    if rank > 0:
        inv_w[n - rank:] = 1.0 / clamped[n - rank:]
    pinv = sym_part((v * inv_w) @ v.T)
    return SpsdOperator(matrix=sym_part(s), eig=SymEigen(values=clamped, vectors=v),
                        rank=rank, sqrt=sqrt, pinv=pinv, policy=tol)


def numerical_rank(s: SpsdOperator) -> int:
    """Number of eigenvalues above the rank threshold (n minus the nullity)."""
    return s.rank


def range_null_bases(s: SpsdOperator) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the range and null space of a certified operator.

    Together the two blocks form an orthonormal basis of R^n, realizing the
    orthogonal splitting of R^n into range and null space.
    """
    return s.range_basis, s.null_basis


def symmetric_rank(s, tol: TolerancePolicy) -> int:
    """Rank of a symmetric PSD-ish matrix by thresholded eigenvalue count.

    Unlike spsd_certify this accepts the zero matrix (rank 0); small negative
    eigenvalues are ignored for the count.
    """
    s = as_matrix(s, "S")
    _require_square_symmetric(s, "S")
    return spectrum_rank(np.linalg.eigvalsh(sym_part(s)), tol)


def spectrum_rank(w: np.ndarray, tol: TolerancePolicy) -> int:
    """symmetric_rank read off an already computed spectrum w."""
    lam_max = float(np.max(np.abs(w)))
    if lam_max == 0.0:
        return 0
    return int(np.count_nonzero(w > tol.rank_rel_tol * lam_max))


def stacked_nullity(blocks, tol: TolerancePolicy) -> tuple[int, float]:
    """Nullity of the vertically stacked blocks plus the decision margin.

    The rank of the stack is measured on its Gram matrix with the policy's
    relative threshold. Returns (nullity, smallest retained singular value);
    the margin is 0.0 when nothing is retained. A small margin flags a
    fragile rank decision near the threshold.
    """
    mats = [as_matrix(b, f"block{i}") for i, b in enumerate(blocks)]
    cols = mats[0].shape[1]
    for i, m in enumerate(mats[1:], start=1):
        if m.shape[1] != cols:
            raise ShapeError(
                f"block{i} has {m.shape[1]} columns, expected {cols}")
    stack = np.vstack(mats)
    gram = sym_part(stack.T @ stack)
    w = np.maximum(np.linalg.eigvalsh(gram), 0.0)
    lam_max = float(w[-1])
    if lam_max == 0.0:
        return cols, 0.0
    keep = w > tol.rank_rel_tol * lam_max
    rank = int(np.count_nonzero(keep))
    margin = float(np.sqrt(w[cols - rank])) if rank > 0 else 0.0
    return cols - rank, margin


def null_intersection_dim(k1, k2, tol: TolerancePolicy) -> int:
    """Dimension of the intersection of the null spaces of two matrices.

    Computed as the nullity of the stacked matrix [K1; K2]: a vector is
    annihilated by the stack exactly when both blocks annihilate it.
    """
    nullity, _ = stacked_nullity([k1, k2], tol)
    return nullity
