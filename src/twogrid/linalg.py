"""Dense symmetric spectral kernels.

Eigendecomposition, thin factors and Moore-Penrose inverses under a shared
tolerance policy, plus the two decisions every module shares: the
numerical rank of a spectrum (spectrum_rank) and whether a spectrum is PSD
within slack (spectrum_psd). Where only one end of a spectrum is read, the
one end reader (spectrum_end) solves it in full below END_MIN_ORDER and by
restarted Lanczos from there on; it is the only reader of that order rule.
Every higher-level module (hierarchy assembly, convergence analysis,
solvers) stands on these primitives, so each rule is written once and
the rank threshold is decided once per matrix. A large weighted graph
Laplacian is certified by its structure instead, in O(nnz) on its CSR
form; its thin factor and pseudoinverse come from one Cholesky per
connected component with one node pinned, and its spectrum is never
solved. The analysis reads a matrix only through forms F X F^T of some
thin factor F (F^T F = A) and through pseudoinverses, and
any two r-row factors differ by an r x r orthogonal matrix, so no spectrum
it computes depends on which factor a certificate gives.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri

from .errors import EigenSolveError, NotSpsdError, ShapeError

EPS = float(np.finfo(np.float64).eps)

# Relative asymmetry accepted before an input is rejected as nonsymmetric.
SYMMETRY_RTOL = 1e-8

# Negative eigenvalues above -PSD_SLACK * lambda_max are rounding noise,
# clamped to zero; anything lower rejects a matrix as not PSD.
PSD_SLACK = 1e-10

# Inputs with at least this many entries are tried for a structural
# certificate (spsd_certify), and model holds a graph Laplacian and an
# aggregation prolongation of this size in CSR, the one form the sweeps then
# apply. Below it a dense eigh costs less than the checks, and a dense
# product less than scipy's cost per call.
SPARSE_MIN_ENTRIES = 2 ** 14

# From this order on one end of a spectrum (spectrum_end) is read by
# restarted Lanczos instead of a full dense solve: the measured break-even.
# At order 128 a Jacobi report on a 12 x 12 grid ran 40% slower with
# Lanczos.
END_MIN_ORDER = 256

# A sparse input of larger order that fails the structural certificate is
# refused instead of densified for eigh: its n x n array would take 2 GiB at
# this order, and on a unit grid the certificate cannot hold from n = 56296
# on (8 n EPS exceeds PSD_SLACK), so neumann2d:256x256 would take 34 GB.
DENSIFY_MAX_ORDER = 2 ** 14


def as_matrix(a, name: str = "matrix", copy: bool = True) -> np.ndarray:
    """Validate and convert input to a finite float64 2-d array (row-major).

    copy=False returns a float64 C-ordered ndarray input itself, unwritten.
    """
    arr = np.array(a, dtype=np.float64, order="C", copy=True if copy else None)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{name} must have at least one row and one column")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def as_vector(v, n: int | None = None, name: str = "vector",
              block: bool = False) -> np.ndarray:
    """Validate and copy input as a finite float64 vector, or with block a block.

    An input with at most one axis longer than 1 is a vector, returned 1-d.
    Any other shape is refused by a ShapeError that names it, except that with
    block a 2-d input of n rows and k > 1 columns is kept as that n x k block.
    """
    arr = np.array(v, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        if sum(d > 1 for d in arr.shape) <= 1:
            arr = arr.reshape(-1)
        elif not (block and arr.ndim == 2 and arr.shape[0] == n):
            length = "" if n is None else f" of length {n}"
            kind = f" or an {n} x k block" if block else ""
            raise ShapeError(
                f"{name} has shape {arr.shape}, expected a vector{length}{kind}")
    if arr.ndim == 1 and n is not None and arr.size != n:
        raise ShapeError(f"{name} has length {arr.size}, expected {n}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def is_sparse(m) -> bool:
    """Whether m is a scipy sparse matrix, told without importing scipy.sparse."""
    return not isinstance(m, np.ndarray) and hasattr(m, "tocsr")


def dense(m) -> np.ndarray:
    """m as an ndarray: a sparse matrix's toarray(), anything else itself."""
    return m.toarray() if is_sparse(m) else m


def assemble(keys: np.ndarray, terms: np.ndarray, shape: tuple[int, int]):
    """The matrix whose entry at key = row * shape[1] + col sums the terms of that key.

    The one constructor of a summed matrix and the one place its form is
    chosen: a csr.CsrArray (csr.from_terms) from SPARSE_MIN_ENTRIES entries
    on, with no dense form, else an ndarray by one np.bincount. Each entry
    adds its terms to 0.0 in the order they come in either form, so dense()
    of the CSR form has the bytes of the ndarray.
    """
    rows, cols = shape
    if rows * cols >= SPARSE_MIN_ENTRIES:
        from .csr import from_terms
        return from_terms(keys, terms, shape)
    return np.bincount(keys, weights=terms, minlength=rows * cols).reshape(shape)


def entries(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, column, value) of each nonzero entry of an ndarray, or each stored
    entry of a sparse matrix (read as CSR), row by row: the one entry reader."""
    if isinstance(m, np.ndarray):
        i, j = np.nonzero(m)
        return i, j, m[i, j]
    m = m.tocsr()
    return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)), m.indices, m.data


def sym_part(x: np.ndarray) -> np.ndarray:
    """Symmetric part (x + x^T)/2; kills rounding skew of assembled products."""
    return 0.5 * (x + x.T)


def _symmetric_input(s) -> np.ndarray:
    """as_matrix(s) checked square and symmetric up to rounding skew, as sym_part.

    One n x n buffer: it holds S^T (a contiguous copy, so that the skew is
    read 64 rows at a time), then S^T + S, the bytes of S + S^T.
    """
    block = 64
    s = as_matrix(s, copy=False)
    n = s.shape[0]
    if s.shape[1] != n:
        raise ShapeError(f"matrix must be square, got shape {s.shape}")
    sym = s.T.copy()
    skew = 0.0
    for k in range(0, n, block):
        d = s[k:k + block] - sym[k:k + block]
        skew = max(skew, float(np.abs(d, out=d).max()))
    scale = max(float(s.max()), -float(s.min()))
    if skew > SYMMETRY_RTOL * max(scale, 1.0):
        raise ShapeError(f"matrix is not symmetric: max|a_ij - a_ji| = {skew:.3e}")
    sym += s
    sym *= 0.5
    return sym


def _symmetric_csr(s):
    """A sparse s as a canonical CsrArray, checked as _symmetric_input checks a
    dense one, with the bytes of (S^T + S) / 2."""
    from .csr import as_csr

    a = as_csr(s)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ShapeError(f"matrix must be square, got shape {a.shape}")
    skew = float(abs(a - a.T).max())
    if skew > SYMMETRY_RTOL * max(float(np.abs(a.data).max(initial=0.0)), 1.0):
        raise ShapeError(f"matrix is not symmetric: max|a_ij - a_ji| = {skew:.3e}")
    return a if skew == 0.0 else as_csr((a.T + a) * 0.5)


@dataclass(frozen=True)
class TolerancePolicy:
    """Thresholds shared by every rank and identity decision.

    rank_rel_tol: eigenvalues below rank_rel_tol * lambda_max count as zero.
    match_tol: tolerance for identity and oracle comparisons.
    The PSD decisions use the constant PSD_SLACK.
    """

    rank_rel_tol: float
    match_tol: float = 1e-10

    def __post_init__(self):
        for fname in ("rank_rel_tol", "match_tol"):
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
    """An SPSD matrix with the rank its certification decided.

    After the eigh certificate components is None, matrix is an ndarray and
    eig holds the spectrum it solved (negative rounding clamped to zero,
    ascending); the thin factor is then the eigen factor and the
    pseudoinverse is read off the spectrum. After the structural one
    components labels each index with its connected component of the graph
    Laplacian (0, 1, ... in the order of their smallest index), matrix is a
    csr.CsrArray and eig is None: no spectrum is solved. null_basis is then
    the normalized component indicators, and the thin factor and the
    pseudoinverse come from one Cholesky per component with its smallest
    node pinned (_pinned_cholesky). Both factors satisfy F^T F = A with rank
    rows, so they differ by an orthogonal rank x rank matrix and every form
    F X F^T has the same spectrum under either. Every derived operator is a
    cached property, built on first read under the one rank decision.
    """

    matrix: np.ndarray  # or a csr.CsrArray after the structural certificate
    rank: int
    policy: TolerancePolicy
    components: np.ndarray | None = None
    eig: SymEigen | None = None

    def __post_init__(self):
        if (self.components is None) == (self.eig is None):
            raise ValueError("an SpsdOperator holds exactly one certificate: "
                             "components (structural) or eig (eigh)")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def factor(self) -> np.ndarray:
        """Thin factor F (rank x n) with F^T F = A, column-major.

        Both certificates give it in Fortran order, so F^T is C-contiguous:
        F @ M and F @ P on a CSR operand (scipy's (M^T F^T)^T) read it as it
        is, with no contiguous copy of F. After the eigh certificate
        F = Lambda_r^{1/2} V_r^T over the kept eigenpairs: F^T F is the
        matrix less the eigenvalues the rank discards, and F is zero on the
        null basis up to the rounding of its orthogonality. After the structural certificate each component C
        with pinned node p and L L^T = A[rest, rest] (rest = C - p) has the
        rows [L^T | -L^T 1], L^T on rest and -L^T 1 in column p: F^T F = A
        because A's rows sum to zero, and each row sums to zero over C.
        """
        if self.components is None:
            first = self.n - self.rank
            return (np.sqrt(self.eig.values[first:])[:, None]
                    * self.eig.vectors[:, first:].T)
        f = np.zeros((self.rank, self.n), order="F")
        row = 0
        for label, nodes in enumerate(self._component_nodes()):
            if nodes.size == 1:  # an isolated node: a zero row and column of A
                continue
            upper = self._pinned_cholesky(label, nodes).T
            rows = slice(row, row + nodes.size - 1)
            f[rows, nodes[1:]] = upper
            f[rows, nodes[0]] = -upper.sum(axis=1)
            row = rows.stop
        return f

    @cached_property
    def pinv(self) -> np.ndarray:
        """Moore-Penrose inverse; inverts exactly the eigenvalues the rank keeps.

        After the structural certificate, A^+ = (I - N N^T) X (I - N N^T)
        with N the null basis and X A[rest, rest]^{-1} on each component's
        unpinned nodes, zero elsewhere (X is a generalized inverse of A, and
        projecting both sides onto range(A) gives the Moore-Penrose one). On
        a component C the projection subtracts v_i + v_j from X_ij, where
        v = m - mean(m) / 2 and m holds X's row means over C; it runs in
        place, a block of rows at a time.
        """
        if self.components is None:
            first = self.n - self.rank
            w, v = self.eig.values, self.eig.vectors
            g = np.zeros_like(w)
            g[first:] = 1.0 / w[first:]
            return sym_part((v * g) @ v.T)
        out = np.zeros((self.n, self.n))
        for label, nodes in enumerate(self._component_nodes()):
            size = nodes.size
            if size == 1:  # (I - N N^T) is zero on an isolated node
                continue
            # info > 0 flags a zero diagonal entry of L, which dpotrf excluded
            inv, _ = dpotri(self._pinned_cholesky(label, nodes), lower=1,
                            overwrite_c=1)
            _mirror_lower(inv)
            means = np.zeros(size)
            means[1:] = inv.sum(axis=1) / size
            shift = means - 0.5 * means.mean()
            first, stop = int(nodes[0]), int(nodes[-1]) + 1
            contiguous = stop - first == size
            block = (out[first:stop, first:stop] if contiguous
                     else np.zeros((size, size)))
            block[1:, 1:] = inv
            del inv
            for k in range(0, size, _ROWS):
                block[k:k + _ROWS] -= shift[k:k + _ROWS, None] + shift
            if not contiguous:
                out[np.ix_(nodes, nodes)] = block
        return out

    @cached_property
    def null_basis(self) -> np.ndarray:
        """Orthonormal columns spanning the null space (shape n x (n - rank)).

        For a structurally certified graph Laplacian, the exact normalized
        component indicators; no spectrum is read.
        """
        if self.components is None:
            return self.eig.vectors[:, :self.n - self.rank].copy()
        sizes = np.bincount(self.components)
        basis = np.zeros((self.n, sizes.size))
        basis[np.arange(self.n), self.components] = 1.0 / np.sqrt(sizes[self.components])
        return basis

    def _component_nodes(self) -> list[np.ndarray]:
        """The nodes of each component, ascending, in the order of the labels."""
        order = np.argsort(self.components, kind="stable")
        return np.split(order, np.cumsum(np.bincount(self.components))[:-1])

    def _pinned_cholesky(self, label: int, nodes: np.ndarray) -> np.ndarray:
        """L (lower triangular, Fortran-ordered) with L L^T = A[rest, rest].

        rest is the component's nodes less the first, its pinned node. A
        connected component's Laplacian with one node removed is positive
        definite, so a failed factorization means the structural rank does
        not hold; it raises EigenSolveError naming the component.
        """
        rest = nodes[1:]
        block = self.matrix[rest][:, rest].toarray().T  # Fortran order: in place
        lower, info = dpotrf(block, lower=1, overwrite_a=1)
        if info != 0:
            raise EigenSolveError(
                f"Cholesky factorization failed on component {label} ({nodes.size} "
                f"nodes, node {int(nodes[0])} pinned; LAPACK info {info}): the graph "
                f"Laplacian does not have its structural rank {self.rank}")
        return lower


# Rows per block of the in-place passes over a dense pseudoinverse.
_ROWS = 256


def _mirror_lower(x: np.ndarray) -> None:
    """Copy the strict lower triangle of the square x onto its upper one, in place.

    The upper triangle must be zero, as dpotri leaves it after a dpotrf that
    cleaned it. A block of _ROWS rows at a time, so no second square array.
    """
    for k in range(0, x.shape[0], _ROWS):
        x[k:k + _ROWS, k:] += np.triu(x[k:, k:k + _ROWS].T, 1)


def _components(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Connected-component labels of the graph on n nodes with edges i[k] - j[k].

    Min-label propagation onto the roots, then pointer jumping, until no
    label moves; labels are numbered 0, 1, ... by each component's smallest
    node. The edge list holds both directions.
    """
    labels = np.arange(n)
    while True:
        hooked = labels.copy()
        np.minimum.at(hooked, labels[i], labels[j])
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, labels):
            return np.unique(labels, return_inverse=True)[1]
        labels = hooked


def _laplacian_components(a, tol: TolerancePolicy) -> np.ndarray | None:
    """Component labels when the CsrArray a is certified as a weighted graph
    Laplacian, else None; O(nnz) on a's entries.

    The certificate, with upper = 2 max(diag) (Gershgorin's bound on
    lambda_max once the rows sum to zero):
    - every off-diagonal entry is <= 0 and every row sums to within
      n EPS max(diag) of zero;
    - every nonzero diagonal entry exceeds 2 PSD_SLACK upper;
    - each component C of the nonzero pattern, w_min its smallest edge
      weight, has 4 w_min / (|C| (|C| - 1)) > 2 rank_rel_tol upper: a lower
      bound on its lambda_2 (Mohar: 4 / (|C| diam) for unit weights, and
      diam <= |C| - 1) clears the rank cut;
    - rank_rel_tol and PSD_SLACK are at least 8 n EPS, above the null
      eigenvalues' row-sum slack.
    A matrix that passes but whose smallest margin has no finite reciprocal
    (a subnormal scale) raises NotSpsdError, as the eigh certificate refuses
    a kept eigenvalue with none: its pseudoinverse would overflow.
    The factors 2 and 8 leave room for eigh's rounding (relative n EPS), so
    eigh's rank cut would keep every nonzero eigenvalue and drop exactly one
    per component (rank n - #components), its PSD test would pass, and a
    diagonal entry is below PSD_SLACK lambda_max exactly when it is zero.
    """
    n = a.shape[0]
    diag = a.diagonal()
    max_diag = float(diag.max())
    if max_diag <= 0.0 or min(tol.rank_rel_tol, PSD_SLACK) < 8.0 * n * EPS:
        return None
    i, j, x = entries(a)
    row_sums = np.bincount(i, weights=x, minlength=n)
    if float(np.max(np.abs(row_sums))) > n * EPS * max_diag:
        return None
    upper = 2.0 * max_diag
    degrees = diag[diag != 0.0]
    if float(degrees.min()) <= 2.0 * PSD_SLACK * upper:
        return None
    off = i != j
    i, j, weights = i[off], j[off], -x[off]
    if weights.size and float(weights.min()) < 0.0:
        return None
    labels = _components(i, j, n)
    sizes = np.bincount(labels)
    w_min = np.full(sizes.size, np.inf)
    np.minimum.at(w_min, labels[i], weights)
    linked = sizes > 1
    margin = 4.0 * w_min[linked] / (sizes[linked] * (sizes[linked] - 1.0))
    if margin.size and float(margin.min()) <= 2.0 * tol.rank_rel_tol * upper:
        return None
    if margin.size and 1.0 / float(margin.min()) == np.inf:
        raise NotSpsdError(
            f"matrix is too small to invert: the lower bound {float(margin.min()):.6e} "
            "on its smallest kept eigenvalue has no finite reciprocal")
    return labels


def spsd_certify(s, tol: TolerancePolicy) -> SpsdOperator:
    """Certify a matrix as SPSD: decide its rank once.

    s is an ndarray (or array-like) or a scipy sparse matrix. An input with
    at least SPARSE_MIN_ENTRIES entries is read into CSR once, a dense one
    after its symmetry check, and if it passes the graph-Laplacian
    certificate (_laplacian_components) it is kept in CSR with rank
    n - #components, the component indicators as its null basis and no
    eigen-solve: its factor and pseudoinverse come from pinned Cholesky
    factors, and eig is None. Every other input is certified on its
    spectrum, solved here on the dense matrix and kept as eig; a sparse one
    of order above DENSIFY_MAX_ORDER is refused instead. Eigenvalues in
    [-PSD_SLACK * lambda_max, 0) are clamped to zero as rounding noise
    (assembled products like P^T A P accumulate it); anything below that
    rejects the input. The zero matrix is rejected outright since relative
    rank decisions need a positive scale, and so is a matrix whose smallest
    kept eigenvalue has no finite reciprocal (a subnormal scale), since its
    pseudoinverse would overflow.

    The derived operators are built lazily on the returned SpsdOperator.
    """
    sparse = is_sparse(s)
    sym = _symmetric_csr(s) if sparse else _symmetric_input(s)
    n = sym.shape[0]
    if n * n >= SPARSE_MIN_ENTRIES:
        from .csr import CsrArray

        a = sym if sparse else CsrArray(sym)
        labels = _laplacian_components(a, tol)
        if labels is not None:
            return SpsdOperator(matrix=a, rank=n - int(labels.max()) - 1,
                                policy=tol, components=labels)
        if sparse and n > DENSIFY_MAX_ORDER:
            raise NotSpsdError(
                f"the structural certificate failed on this sparse {n} x {n} matrix, "
                f"and its order exceeds {DENSIFY_MAX_ORDER}, the largest one "
                "certified on a dense eigen-solve")
    sym = dense(sym)
    eig = _eigh(sym)
    w = eig.values
    lam_max = float(w[-1])
    if lam_max <= 0.0:
        if float(np.max(np.abs(w))) == 0.0:
            raise NotSpsdError("matrix is zero; a nonzero SPSD matrix is required")
        raise NotSpsdError(
            f"matrix is not SPSD: largest eigenvalue {lam_max:.6e} is not positive")
    if float(w[0]) < -PSD_SLACK * lam_max:
        raise NotSpsdError(
            f"matrix is not SPSD: eigenvalue {float(w[0]):.6e} lies below "
            f"-psd_slack * lambda_max = {-PSD_SLACK * lam_max:.6e}")

    clamped = np.maximum(w, 0.0)
    rank = spectrum_rank(clamped, tol)
    smallest = float(clamped[n - rank])
    if 1.0 / smallest == np.inf:  # Python float division: no overflow warning
        raise NotSpsdError(
            f"matrix is too small to invert: its smallest kept eigenvalue "
            f"{smallest:.6e} has no finite reciprocal")
    return SpsdOperator(matrix=sym, rank=rank, policy=tol,
                        eig=SymEigen(values=clamped, vectors=eig.vectors))


def spectrum_rank(w: np.ndarray, tol: TolerancePolicy,
                  scale: float | None = None) -> int:
    """Numerical rank read off a symmetric matrix's spectrum w.

    The one rank rule: eigenvalues above rank_rel_tol * scale count, where
    scale defaults to max|w| (so the zero matrix has rank 0). Pass the
    scale of the matrix that w was compressed from when w itself may be
    pure rounding.
    """
    if scale is None:
        scale = float(np.max(np.abs(w)))
    if scale == 0.0:
        return 0
    return int(np.count_nonzero(w > tol.rank_rel_tol * scale))


def _lanczos_start(n: int) -> np.ndarray:
    """ARPACK's start vector for order n, from a fixed seed: the same bytes
    in, the same bytes out, so a report stays deterministic."""
    return np.random.default_rng(0).standard_normal(n)


def spectrum_end(x, highest: bool) -> float:
    """The largest (highest) or smallest eigenvalue of the symmetric x.

    x is an ndarray or a scipy sparse matrix. Below END_MIN_ORDER it is
    w[-1] or w[0] of a dense eigvalsh, the full solve's bytes. From that
    order on it is one eigenpair of restarted Lanczos (ARPACK eigsh, k=1,
    tol=0: converged to machine precision), from _lanczos_start; where
    ARPACK fails (no convergence, or a zero operator, whose start vector
    maps to zero) the dense solve runs instead. scipy.sparse.linalg is
    imported only on that branch.
    """
    n = x.shape[0]
    if n >= END_MIN_ORDER:
        from scipy.sparse.linalg import ArpackError, eigsh
        try:
            return float(eigsh(x, k=1, which="LA" if highest else "SA", tol=0,
                               v0=_lanczos_start(n), return_eigenvectors=False)[0])
        except ArpackError:
            pass
    w = np.linalg.eigvalsh(dense(x))
    return float(w[-1] if highest else w[0])


def spectrum_psd(w: np.ndarray) -> bool:
    """Whether an ascending spectrum w is PSD up to rounding.

    The one PSD-within-slack rule: the smallest eigenvalue may dip to
    -PSD_SLACK * max(1, max|w|). Only the two ends are read, so w may be
    just [lambda_min, lambda_max], or [lambda_min] alone when it is >= 0.
    """
    scale = max(1.0, float(np.max(np.abs(w))))
    return bool(float(w[0]) >= -PSD_SLACK * scale)
