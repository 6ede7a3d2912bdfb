"""Exception types shared across the package."""


class TwoGridError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(TwoGridError, ValueError):
    """Dimension or shape mismatch in an input."""


class NotSpsdError(TwoGridError, ValueError):
    """Input failed certification as symmetric positive semidefinite."""


class EigenSolveError(TwoGridError, RuntimeError):
    """The symmetric eigensolver failed to converge."""


class SmootherError(TwoGridError, ValueError):
    """Invalid smoother construction (zero diagonal, nonpositive weight, bad shape)."""


class SmootherAssumptionError(TwoGridError, ValueError):
    """The smoothing iteration is expansive in the energy seminorm."""


class RangeMismatchError(TwoGridError, ValueError):
    """Approximate coarse matrix does not share the range of the Galerkin matrix."""


class CoarseScalingError(TwoGridError, ValueError):
    """Spectral bound of the approximate coarse solve is too large (needs rescaling)."""


class InconsistentSystemError(TwoGridError, ValueError):
    """Right-hand side has a component outside the range of the system matrix."""


class DivergenceError(TwoGridError, RuntimeError):
    """Iteration error grew past the blow-up threshold.

    trace holds the IterationTrace up to and including the diverging sweep.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class EdgeError(TwoGridError, ValueError):
    """Invalid edge list of a graph Laplacian; index is the position of the
    invalid edge in it, or None for a fault of the whole list."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class MatrixMarketError(TwoGridError, ValueError):
    """Malformed MatrixMarket content."""
