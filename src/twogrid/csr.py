"""The CSR form of a large sparse operator, imported only where one is built.

linalg.assemble, the one place the size rule is applied, builds a large
summed matrix (a graph Laplacian, an aggregation prolongation, a coordinate
MatrixMarket file) here by from_terms, and a sparse input to
linalg.spsd_certify is held as a CsrArray. A problem below that size never
imports this module, so it never loads scipy.sparse.
"""
from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array


class CsrArray(csr_array):
    """A canonical csr_array (sorted, summed, no stored zero) with an ndarray's nbytes.

    scipy's scalar products keep the class; its transpose is a csc_array.
    """

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


def from_terms(keys: np.ndarray, terms: np.ndarray, shape: tuple[int, int]) -> CsrArray:
    """The matrix whose entry at key = row * shape[1] + col sums the terms of that key.

    Each entry adds its terms to 0.0 in the order they come, as np.bincount
    over the keys of the dense matrix does, so a kept entry has the dense
    sum's bytes; an entry that sums to zero is dropped, as csr_array(dense)
    drops it.
    """
    unique, inverse = np.unique(keys, return_inverse=True)
    data = np.bincount(inverse, weights=terms)
    kept = data != 0.0
    rows, cols = np.divmod(unique[kept], shape[1])
    # int32 indices where they fit, as scipy picks them for csr_array(dense)
    index = np.int32 if max(rows.size, *shape) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(shape[0] + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return CsrArray((data[kept], cols.astype(index), indptr), shape=shape)


def as_csr(m, name: str = "matrix") -> CsrArray:
    """A copy of the sparse matrix m as a canonical float64 CsrArray, checked finite."""
    a = CsrArray(m, dtype=np.float64, copy=True)
    if not np.isfinite(a.data).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    a.sum_duplicates()
    a.eliminate_zeros()
    return a
