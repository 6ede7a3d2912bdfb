"""Two-grid iterations as actual solvers with per-sweep instrumentation.

One sweep is: smoothing with M, restriction of the residual through P^T,
a coarse correction, and prolongation back to the fine grid. The coarse
solve is either a certified SPSD matrix Bc, applied as Bc^+ (the exact solve
is Bc = Ac, the Galerkin matrix), or a GeneralCoarse: an arbitrary callable
of declared relative accuracy. Bc^+ is a dense product, built on the first
sweep; for a graph Laplacian certified by structure it comes from one
pinned Cholesky factor per component, so a solve runs no eigen-solve. A
symmetrized sweep appends one M^T smoothing step after the prolongation.
Sweeps apply A, M, M^T and P in the one form the hierarchy holds them in:
A and P in CSR where they were built so (a large graph Laplacian, a large
aggregation), a Jacobi M as its diagonal, a Gauss-Seidel M as a banded
triangular solve on tril(A), anything else dense; P^T is the hierarchy's
cached PT.

The public sweeps take one start vector u0 or an n x k block of start
vectors that share one right-hand side f, and return u0's shape. The
inputs, f's consistency and the coarse solve are checked once per call, and
each operator is applied once to the whole block, so k spot checks of the
sweep cost one pass. A GeneralCoarse, a black box of one vector, takes no
block; a_seminorm gives one seminorm per column of a block. iterate sweeps
one vector.

Traces record energy-seminorm errors against a reference solution (when one
is available), Euclidean residuals, consecutive ratios, and the tail
geometric-mean contraction factor. The error is sqrt(d^T A d), with A as
held, after the null-space part of d is projected out with A's null
basis (for a graph Laplacian certified by structure, its exact component
indicators, so no spectrum of A is solved), so a tracked sweep costs
O(nnz) where its operators do.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DivergenceError,
    InconsistentSystemError,
    ShapeError,
    TwoGridError,
)
from .linalg import EPS, SpsdOperator, as_vector
from .model import TwoGridHierarchy


@dataclass(eq=False)
class GeneralCoarse:
    """Black-box coarse solver with a declared relative accuracy.

    declared_eps bounds the coarse energy-seminorm error relative to the
    exact coarse correction; the default 0 declares an exact solve. Every
    call is checked against the exact correction (one more coarse solve):
    the measured relative accuracy lands in achieved_eps, and iterate counts
    values above declared_eps + match_tol, the eps bound's assumption, as
    violations.
    """

    solve: Callable[[np.ndarray], np.ndarray]
    declared_eps: float = 0.0
    achieved_eps: list = field(default_factory=list)

    def __post_init__(self):
        if not (0.0 <= self.declared_eps < 1.0):
            raise ValueError(
                f"declared_eps must lie in [0, 1), got {self.declared_eps}")


def a_seminorm(matrix: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """sqrt(v^T S v) clamped against tiny negative rounding: a float for a
    vector v, an array of one seminorm per column for an n x k block."""
    if v.ndim == 1:
        return float(np.sqrt(max(float(v @ (matrix @ v)), 0.0)))
    return np.sqrt(np.maximum(np.einsum("ij,ij->j", v, matrix @ v), 0.0))


def check_consistent(h: TwoGridHierarchy, f: np.ndarray) -> None:
    """Reject a right-hand side with a component outside the range of A.

    The component is read off A's null basis, the exact component
    indicators when A is a graph Laplacian certified by structure.
    """
    null = h.A.null_basis
    if null.shape[1] == 0:
        return
    resid = float(np.linalg.norm(null.T @ f))
    bound = h.policy.match_tol * max(1.0, float(np.linalg.norm(f)))
    if resid > bound:
        raise InconsistentSystemError(
            f"right-hand side has a null-space component of norm {resid:.3e} "
            f"(tolerance {bound:.3e}); the system is inconsistent")


def eps_perturbed_coarse(h: TwoGridHierarchy, eps: float,
                         rng: np.random.Generator) -> Callable[[np.ndarray], np.ndarray]:
    """Coarse solve whose error has relative coarse energy seminorm exactly eps.

    Each call returns the exact correction plus eps times its coarse energy
    seminorm along the direction Ac g, where g is a fresh standard-normal
    draw from `rng` (the caller owns the stream and its position).
    """
    if not (0.0 <= eps < 1.0):
        raise ValueError(f"eps must lie in [0, 1), got {eps}")

    def solve(rc: np.ndarray) -> np.ndarray:
        ec = h.Ac.pinv @ rc
        d = h.Ac.matrix @ rng.standard_normal(h.nc)
        dn = a_seminorm(h.Ac.matrix, d)
        if dn == 0.0:
            return ec
        return ec + (eps * a_seminorm(h.Ac.matrix, ec) / dn) * d

    return solve


def _coarse_correction(h: TwoGridHierarchy, rc: np.ndarray,
                       coarse: SpsdOperator | GeneralCoarse) -> np.ndarray:
    if not isinstance(coarse, GeneralCoarse):
        return coarse.pinv @ rc
    ec_hat = as_vector(coarse.solve(rc), h.nc, "coarse solve output")
    ec = h.Ac.pinv @ rc
    denom = a_seminorm(h.Ac.matrix, ec)
    err = a_seminorm(h.Ac.matrix, ec_hat - ec)
    if denom > 0.0:
        coarse.achieved_eps.append(err / denom)
    else:
        coarse.achieved_eps.append(0.0 if err <= h.policy.match_tol else math.inf)
    return ec_hat


def _check_variant(variant: str, coarse) -> None:
    """The pairing rule of an iteration and its coarse solve, for iterate and
    analysis.seminorm_oracle: "tg" and "stg" use the exact solve and take
    none; "itg" needs one."""
    if variant not in ("tg", "stg", "itg"):
        raise ValueError(f"unknown variant '{variant}'")
    if variant == "itg" and coarse is None:
        raise ValueError("variant 'itg' needs a coarse solve")
    if variant != "itg" and coarse is not None:
        raise ValueError(f"variant '{variant}' uses the exact coarse solve; "
                         "pass no coarse solve, or use variant 'itg'")


def _start(h: TwoGridHierarchy, u0, f, coarse):
    """_sweep's (u0, f, r0 = f - A u0), with them and the coarse solve checked
    once. u0 is one vector or an n x k block of start vectors that share f;
    for a block, f comes back as one column, so r0 and u0 have one shape."""
    u0 = as_vector(u0, h.n, "u0", block=True)
    f = as_vector(f, h.n, "f")
    check_consistent(h, f)
    if isinstance(coarse, SpsdOperator):
        if coarse.n != h.nc:
            raise ShapeError(f"coarse matrix is {coarse.n} x {coarse.n}, "
                             f"expected {h.nc} x {h.nc}")
    elif not isinstance(coarse, GeneralCoarse):
        raise TypeError("the coarse solve must be an SpsdOperator or a "
                        f"GeneralCoarse, got {type(coarse).__name__}")
    elif u0.ndim == 2:
        raise ShapeError("a GeneralCoarse solves one vector per call; sweep a "
                         f"block of {u0.shape[1]} start vectors with an SpsdOperator")
    if u0.ndim == 2:
        f = f[:, None]
    return u0, f, f - h.A.matrix @ u0


def _sweep(h: TwoGridHierarchy, u0: np.ndarray, f: np.ndarray, r0: np.ndarray,
           coarse: SpsdOperator | GeneralCoarse,
           post_smooth: bool = False) -> np.ndarray:
    """One sweep on _start's checked inputs, a vector or a block alike (every
    operator applies to an n x k operand); post_smooth appends the M^T step."""
    a = h.A.matrix
    u1 = u0 + h.M @ r0
    rc = h.PT @ (f - a @ u1)
    u = u1 + h.P @ _coarse_correction(h, rc, coarse)
    if post_smooth:
        u = u + h.M.T @ (f - a @ u)
    return u


def itg_sweep(h: TwoGridHierarchy, u0, f,
              coarse: SpsdOperator | GeneralCoarse) -> np.ndarray:
    """One sweep with the coarse solve Bc^+ (Bc = h.Ac is exact) or a GeneralCoarse.

    u0 is one vector (n,) or, with an SpsdOperator Bc, an n x k block of start
    vectors that share the right-hand side f; the result has u0's shape. The
    inputs and the coarse solve are checked once per call, not per column.
    """
    return _sweep(h, *_start(h, u0, f, coarse), coarse)


def tg_sweep(h: TwoGridHierarchy, u0, f) -> np.ndarray:
    """One exact sweep (coarse correction by the Galerkin pseudoinverse) of
    one vector u0 or an n x k block of start vectors sharing f, as itg_sweep."""
    return itg_sweep(h, u0, f, h.Ac)


def stg_sweep(h: TwoGridHierarchy, u0, f) -> np.ndarray:
    """Exact sweep followed by one M^T post-smoothing step; u0 as in tg_sweep."""
    return _sweep(h, *_start(h, u0, f, h.Ac), h.Ac, post_smooth=True)


@dataclass(eq=False)
class IterationTrace:
    """Per-sweep history of one run.

    errors_A and ratios are None when no reference solution was supplied
    (residual norms are always recorded, factor claims are then disabled).
    observed_factor is the geometric mean of the last max(5, sweeps/4)
    ratios whose endpoints both sit above the stagnation floor. What it
    estimates depends on the variant. For "tg" and "itg" it estimates the
    asymptotic rate (with a linear coarse solve, the spectral radius of the
    error propagator on range(A)), which is at most the sweep's worst-case
    seminorm factor (reached only as the largest single-sweep ratio). For
    "stg" the propagator is A-self-adjoint, so it estimates the symmetrized
    sweep's worst-case factor, factor_identity**2 for the exact coarse
    solve. violations are the achieved_eps above declared_eps + match_tol.
    """

    variant: str
    sweeps: int
    errors_A: list | None
    residuals: list
    ratios: list | None
    observed_factor: float | None
    stagnated: bool
    violations: list
    achieved_eps: list
    floor: float | None
    final_residual_rel: float


def _observed_factor(values: list, floor: float, sweeps: int):
    ratios: list = []
    qualifying: list[float] = []
    for k in range(len(values) - 1):
        prev, nxt = values[k], values[k + 1]
        if prev > floor:
            ratio = nxt / prev
            ratios.append(ratio)
            if nxt > floor and ratio > 0.0:
                qualifying.append(ratio)
        else:
            ratios.append(math.nan)
    window = max(5, sweeps // 4)
    tail = qualifying[-window:]
    if not tail:
        return ratios, None
    return ratios, float(math.exp(sum(math.log(r) for r in tail) / len(tail)))


def iterate(h: TwoGridHierarchy, f, u0, sweeps: int, variant: str = "tg",
            coarse: SpsdOperator | GeneralCoarse | None = None,
            u_ref=None) -> IterationTrace:
    """Run repeated sweeps and record the convergence history.

    variant is "tg" or "stg" (no coarse argument: the exact solve h.Ac), or
    "itg", which needs a certified SPSD Bc (applied as Bc^+) or a
    GeneralCoarse. observed_factor estimates the asymptotic rate for "tg"
    and "itg" (at most the sweep's worst-case factor) and the worst-case
    factor of the symmetrized sweep for "stg"; see IterationTrace. The
    coarse solve, f and u0 (one vector; a block is refused) are checked
    once per run. Raises DivergenceError
    when the tracked error grows tenfold across five sweeps while above the
    stagnation floor, or when the residual is not finite; near-1 contraction
    factors are legitimate and only blow-up aborts. The error carries the
    trace up to and including the sweep that diverged.
    """
    if sweeps < 1:
        raise ValueError(f"sweeps must be >= 1, got {sweeps}")
    _check_variant(variant, coarse)
    if variant != "itg":
        coarse = h.Ac

    u, f, r = _start(h, as_vector(u0, h.n, "u0"), f, coarse)
    if u_ref is not None:
        u_ref = as_vector(u_ref, h.n, "u_ref")

    a = h.A.matrix
    f_norm = float(np.linalg.norm(f))

    # ||d||_A = sqrt(d^T A d), O(nnz(A)) for A in CSR. The
    # null-space part of d is projected out first: it adds nothing to the
    # seminorm but would add its rounding.
    null = h.A.null_basis

    def error_of(u):
        d = u_ref - u
        d -= null @ (null.T @ d)
        return a_seminorm(a, d)

    # A reused GeneralCoarse keeps its earlier runs' accuracies; this run's
    # trace reads only what it appends.
    eps_start = len(coarse.achieved_eps) if isinstance(coarse, GeneralCoarse) else 0

    errors = [error_of(u)] if u_ref is not None else None
    residuals = [float(np.linalg.norm(r))]
    tracked = errors if errors is not None else residuals
    floor = 1e3 * EPS * tracked[0]

    def trace_after(done: int) -> IterationTrace:
        ratios, observed = (None, None)
        if errors is not None:
            ratios, observed = _observed_factor(errors, floor, done)
        achieved, declared = [], 0.0
        if isinstance(coarse, GeneralCoarse):
            achieved, declared = coarse.achieved_eps[eps_start:], coarse.declared_eps
        return IterationTrace(
            variant=variant,
            sweeps=done,
            errors_A=errors,
            residuals=residuals,
            ratios=ratios,
            observed_factor=observed,
            stagnated=observed is not None and observed >= 1.0 - h.policy.match_tol,
            violations=[e for e in achieved if e > declared + h.policy.match_tol],
            achieved_eps=achieved,
            floor=floor if errors is not None else None,
            final_residual_rel=(residuals[-1] / f_norm if f_norm > 0.0
                                else residuals[-1]),
        )

    for k in range(sweeps):
        u = _sweep(h, u, f, r, coarse, post_smooth=variant == "stg")
        r = f - a @ u
        residuals.append(float(np.linalg.norm(r)))
        if errors is not None:
            errors.append(error_of(u))
        if not math.isfinite(residuals[-1]):
            raise DivergenceError(
                f"residual norm is not finite (sweep {k + 1}); "
                "the iteration is diverging", trace=trace_after(k + 1))
        if len(tracked) > 5:
            prev, new = tracked[-6], tracked[-1]
            if new > 10.0 * prev and new > floor and prev > floor:
                raise DivergenceError(
                    f"error grew from {prev:.3e} to {new:.3e} over five sweeps "
                    f"(sweep {k + 1}); the iteration is diverging",
                    trace=trace_after(k + 1))

    trace = trace_after(sweeps)
    if errors is not None and errors[-1] <= floor:
        if trace.final_residual_rel > h.policy.match_tol:
            raise TwoGridError(
                "iterate reached the error floor but does not satisfy the "
                f"system: relative residual {trace.final_residual_rel:.3e}")
    return trace


def write_trace_csv(trace: IterationTrace, path) -> None:
    """Columns: sweep, error_A, residual_2, ratio (blank where undefined)."""
    with open(path, "w", encoding="ascii", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["sweep", "error_A", "residual_2", "ratio"])
        for k, resid in enumerate(trace.residuals):
            error = "" if trace.errors_A is None else trace.errors_A[k]
            ratio = ""
            if trace.ratios is not None and 1 <= k <= len(trace.ratios):
                value = trace.ratios[k - 1]
                ratio = "" if math.isnan(value) else value
            writer.writerow([k, error, resid, ratio])


def trace_summary(trace: IterationTrace, meta: dict | None = None) -> dict:
    summary = {
        "variant": trace.variant,
        "sweeps": trace.sweeps,
        "observed_factor": trace.observed_factor,
        "stagnated": trace.stagnated,
        "violations": trace.violations,
        "achieved_eps_max": max(trace.achieved_eps) if trace.achieved_eps else None,
        "final_residual_rel": trace.final_residual_rel,
        "floor": trace.floor,
    }
    if meta:
        summary.update(meta)
    return summary
