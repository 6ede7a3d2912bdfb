"""The spectrum of a matrix by one dense eigh, for tests that read a spectrum
no operator holds: a structurally certified operator's eig is None."""
import numpy as np

from twogrid.linalg import SymEigen, dense


def dense_eig(m) -> SymEigen:
    """eigh of dense(m), negative rounding clamped to zero as the eigh
    certificate clamps it; for the matrix of an eigh-certified operator,
    its eig's bytes."""
    w, v = np.linalg.eigh(dense(m))
    return SymEigen(values=np.maximum(w, 0.0), vectors=v)
