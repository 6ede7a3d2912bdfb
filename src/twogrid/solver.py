"""Two-grid iterations as actual solvers with per-sweep instrumentation.

One sweep is: smoothing with M, restriction of the residual through P^T,
a coarse correction, and prolongation back to the fine grid. The coarse
correction is either the exact pseudoinverse of the Galerkin matrix, the
pseudoinverse of a supplied SPSD approximation, or an arbitrary callable of
declared relative accuracy. A symmetrized sweep appends one M^T smoothing
step after the prolongation.

Traces record energy-seminorm errors against a reference solution (when one
is available), Euclidean residuals, consecutive ratios, and the tail
geometric-mean contraction factor.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import (
    DivergenceError,
    InconsistentSystemError,
    ShapeError,
    TwoGridError,
)
from .linalg import EPS, SpsdOperator, as_vector
from .model import TwoGridHierarchy


@dataclass(frozen=True)
class ExactCoarse:
    """Coarse correction through the pseudoinverse of the Galerkin matrix."""


@dataclass(frozen=True, eq=False)
class LinearSpsdCoarse:
    """Coarse correction through the pseudoinverse of an SPSD approximation."""

    Bc: SpsdOperator


@dataclass(eq=False)
class GeneralCoarse:
    """Black-box coarse solver with a declared relative accuracy.

    declared_eps bounds the coarse energy-seminorm error relative to the
    exact coarse correction. Every call is checked against the exact
    correction (one more coarse solve): the measured relative accuracy lands
    in achieved_eps, and iterate counts values at or above 1 as violations.
    """

    solve: Callable[[np.ndarray], np.ndarray]
    declared_eps: float = 0.0
    achieved_eps: list = field(default_factory=list)

    def __post_init__(self):
        if not (0.0 <= self.declared_eps < 1.0):
            raise ValueError(
                f"declared_eps must lie in [0, 1), got {self.declared_eps}")


CoarseSolverSpec = Union[ExactCoarse, LinearSpsdCoarse, GeneralCoarse]


def a_seminorm(matrix: np.ndarray, v: np.ndarray) -> float:
    """sqrt(v^T S v) clamped against tiny negative rounding."""
    return float(np.sqrt(max(float(v @ (matrix @ v)), 0.0)))


def check_consistent(h: TwoGridHierarchy, f: np.ndarray) -> None:
    """Reject a right-hand side with a component outside the range of A."""
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
                       coarse: CoarseSolverSpec) -> np.ndarray:
    if isinstance(coarse, ExactCoarse):
        return h.Ac.pinv @ rc
    if isinstance(coarse, LinearSpsdCoarse):
        if coarse.Bc.n != h.nc:
            raise ShapeError(f"coarse matrix is {coarse.Bc.n} x {coarse.Bc.n}, "
                             f"expected {h.nc} x {h.nc}")
        return coarse.Bc.pinv @ rc
    if isinstance(coarse, GeneralCoarse):
        ec_hat = as_vector(coarse.solve(rc), name="coarse solve output")
        if ec_hat.size != h.nc:
            raise ShapeError(
                f"coarse solver returned length {ec_hat.size}, expected {h.nc}")
        ec = h.Ac.pinv @ rc
        denom = a_seminorm(h.Ac.matrix, ec)
        err = a_seminorm(h.Ac.matrix, ec_hat - ec)
        if denom > 0.0:
            coarse.achieved_eps.append(err / denom)
        else:
            coarse.achieved_eps.append(0.0 if err <= h.policy.match_tol else math.inf)
        return ec_hat
    raise TypeError(f"unknown coarse solver spec {coarse!r}")


def itg_sweep(h: TwoGridHierarchy, u0, f,
              coarse: CoarseSolverSpec) -> np.ndarray:
    """One sweep with the given coarse solver: smooth, restrict, correct, prolong."""
    u0 = as_vector(u0, h.n, "u0")
    f = as_vector(f, h.n, "f")
    check_consistent(h, f)
    a = h.A.matrix
    u1 = u0 + h.M @ (f - a @ u0)
    rc = h.P.T @ (f - a @ u1)
    ec = _coarse_correction(h, rc, coarse)
    return u1 + h.P @ ec


def tg_sweep(h: TwoGridHierarchy, u0, f) -> np.ndarray:
    """One exact sweep (coarse correction by the Galerkin pseudoinverse)."""
    return itg_sweep(h, u0, f, ExactCoarse())


def stg_sweep(h: TwoGridHierarchy, u0, f) -> np.ndarray:
    """Exact sweep followed by one M^T post-smoothing step."""
    u = tg_sweep(h, u0, f)
    return u + h.M.T @ (f - h.A.matrix @ u)


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
    "stg" the propagator is
    A-self-adjoint, so it estimates the symmetrized sweep's worst-case
    factor, factor_identity**2 for the exact coarse solve.
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
            coarse: CoarseSolverSpec | None = None,
            u_ref=None) -> IterationTrace:
    """Run repeated sweeps and record the convergence history.

    variant is "tg", "stg", or "itg" (the latter needs a coarse solver
    spec). The trace's observed_factor estimates the asymptotic rate for
    "tg" and "itg" (at most the sweep's worst-case factor) and the
    worst-case factor of the symmetrized sweep for "stg"; see
    IterationTrace. Raises DivergenceError when the tracked error grows
    tenfold across five sweeps while above the stagnation floor; near-1
    contraction factors are legitimate and only blow-up aborts. The error
    carries the trace up to and including the sweep that diverged.
    """
    if sweeps < 1:
        raise ValueError(f"sweeps must be >= 1, got {sweeps}")
    if variant not in ("tg", "stg", "itg"):
        raise ValueError(f"unknown variant '{variant}'")
    if variant == "itg":
        if coarse is None:
            raise ValueError("variant 'itg' needs a coarse solver spec")
    else:
        if coarse is not None and not isinstance(coarse, ExactCoarse):
            raise ValueError(f"variant '{variant}' uses the exact coarse solve")
        coarse = ExactCoarse()

    u0 = as_vector(u0, h.n, "u0")
    f = as_vector(f, h.n, "f")
    check_consistent(h, f)
    if u_ref is not None:
        u_ref = as_vector(u_ref, h.n, "u_ref")

    a = h.A.matrix
    f_norm = float(np.linalg.norm(f))

    # The energy seminorm ignores the null-space component of the error, so
    # it is evaluated on the range projection; this keeps the measurement
    # noise well below the stagnation floor even when u_ref - u carries an
    # O(1) null component.
    v_range = h.A.range_basis
    sqrt_a = h.A.sqrt

    def error_of(u):
        if u_ref is None:
            return None
        d = u_ref - u
        return float(np.linalg.norm(sqrt_a @ (v_range @ (v_range.T @ d))))

    def residual_of(u):
        return float(np.linalg.norm(f - a @ u))

    errors = [error_of(u0)] if u_ref is not None else None
    residuals = [residual_of(u0)]
    tracked = errors if errors is not None else residuals
    floor = 1e3 * EPS * tracked[0]

    def trace_after(done: int) -> IterationTrace:
        ratios, observed = (None, None)
        if errors is not None:
            ratios, observed = _observed_factor(errors, floor, done)
        achieved = list(coarse.achieved_eps) if isinstance(coarse, GeneralCoarse) else []
        return IterationTrace(
            variant=variant,
            sweeps=done,
            errors_A=errors,
            residuals=residuals,
            ratios=ratios,
            observed_factor=observed,
            stagnated=observed is not None and observed >= 1.0 - h.policy.match_tol,
            violations=[e for e in achieved if e >= 1.0],
            achieved_eps=achieved,
            floor=floor if errors is not None else None,
            final_residual_rel=(residuals[-1] / f_norm if f_norm > 0.0
                                else residuals[-1]),
        )

    u = u0
    for k in range(sweeps):
        if variant == "stg":
            u = stg_sweep(h, u, f)
        else:
            u = itg_sweep(h, u, f, coarse)
        residuals.append(residual_of(u))
        if errors is not None:
            errors.append(error_of(u))
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


def write_trace_summary(trace: IterationTrace, path,
                        meta: dict | None = None) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(json.dumps(trace_summary(trace, meta), sort_keys=True,
                                indent=2) + "\n")
