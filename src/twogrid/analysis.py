"""Convergence analysis for two-grid iterations on SPSD systems.

Everything here reduces to eigenvalues of explicitly symmetric matrices:
nonsymmetric products whose spectra are needed are replaced by a similar
symmetric form first (documented per operation), so no nonsymmetric
eigensolver is ever run. Every form is r x r on range(A), conjugated by A's
thin factor F (F^T F = A): the eigen factor Lambda_r^{1/2} V_r^T, or for a
graph Laplacian certified by structure the pinned Cholesky factor, with
Bc^+ and Ac^+ alike from Cholesky factors. Two r-row factors differ by an
orthogonal r x r U, and U Y U^T has Y's spectrum, so every quantity here is
the same under either factor up to rounding. The paper's n x n spectra
start with the n - r zeros of null(A), so the paper's ascending position
n - r + k is array index k - 1 here (n - r + 1 is index 0, n - r + s + 1 is
index s); reports keep the paper's positions and dimensions. Each form and
spectrum that depends only on the hierarchy is solved once and cached on it
(see TwoGridHierarchy); each function here is the one formula for its
quantity over those spectra. The complement spectrum, which holds sigma_tg,
is s exact zeros (range(Q)) and one eigen-solve of order r - s in the
complement basis Q_perp; delta_tg reads the compression onto Q. Those two
compressions are all the analysis reads of Mtilde; each is X + X^T - Y Y^T
off Y = V^T B, and no r x r Mtilde form is formed. Every coarse correction
reads K through Q^T K, formed once per hierarchy, and a report with a
coarse matrix forms its core R Bc^+ R^T once for the inexact quadratic form
and the itg oracle. The quadratic-form factors and the oracles read one end of their r x r forms
(lambda_min of ftg and fitg, lambda_max of G^T G) through
linalg.spectrum_end: a dense solve below END_MIN_ORDER, restarted Lanczos
from it on; every form is still assembled in full. The
smoother enters through B = F M F^T alone: K = I - B,
F Mbar F^T = B + B^T - B^T B = I - K^T K and
F Mtilde F^T = B + B^T - B B^T = I - K K^T, so the spectrum of Mtilde A is
the smoother's.

Main entry points:

* check_conditions: contraction flags and the null-space intersection test
  that is necessary and sufficient for a convergence factor below one.
* exact_factor: the convergence factor of the exact two-grid iteration
  through three routes (index identity, quadratic-form reformulation,
  brute-force seminorm oracle). All three read the singular values of the
  r x r operator G = (I - Q Q^T) K, so they cross-check the assembly and
  the index bookkeeping; a fault in F, B or Q moves all three together.
* exact_two_sided: eigenvalue-interlacing bounds that need no projector.
* inexact_linear_analysis: spectral-equivalence constants, the derived
  two-sided bounds, and the exact factor for a pseudoinverse coarse solver.
* general_epsilon_bound: worst-case bound for any coarse solver with
  relative energy-seminorm accuracy eps.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import CoarseScalingError, RangeMismatchError, ShapeError
from .linalg import (
    PSD_SLACK,
    SpsdOperator,
    spectrum_end,
    spectrum_psd,
    spectrum_rank,
    spsd_certify,
    sym_part,
)
from .model import TwoGridHierarchy
from .solver import _check_variant


def _factor_from(value: float) -> float:
    """sqrt(1 - value) clamped against rounding outside [0, 1]."""
    return float(np.sqrt(min(max(float(1.0 - value), 0.0), 1.0)))


def smoothing_floor(h: TwoGridHierarchy) -> float:
    """(n - r + 1)-th smallest eigenvalue of Mtilde A.

    On range(A), Mtilde A is similar to F Mtilde F^T = I - K K^T (K = I - B),
    which has the eigenvalues of the smoother form I - K^T K; so this is
    index 0 of the smoother spectrum. It caps how much the smoother alone
    can leave behind on the range of A.
    """
    return float(h.smoother_spectrum[0])


def sigma_tg(h: TwoGridHierarchy) -> float:
    """Spectral gap whose complement under the square root is the exact factor.

    The paper's (n - r + s + 1)-th smallest eigenvalue of Mtilde A (I - Pi_A)
    is index s of the r x r complement spectrum of (I - Pi) F Mtilde F^T
    (I - Pi), which holds the same eigenvalues without null(A)'s n - r zeros.
    In the degenerate full-coarse-rank case s = r the factor is exactly
    zero, so 1.0 is returned directly instead of indexing past the spectrum.
    """
    if h.s == h.r:
        return 1.0
    if h.s > h.r:
        raise ShapeError(
            f"eigenvalue index {h.s} outside the spectrum of size {h.r} on "
            "range(A); rank thresholds for A and the coarse matrix are inconsistent")
    return float(h.complement_spectrum[h.s])


def delta_tg(h: TwoGridHierarchy) -> tuple[float, bool]:
    """(n - s + 1)-th smallest eigenvalue of Mtilde A Pi_A, with its guard.

    Evaluated as the smallest eigenvalue of the s x s form Q^T F Mtilde F^T Q,
    the nonzero part of Pi F Mtilde F^T Pi. The value is only meaningful when
    that matrix has full coarse rank s (the guard); otherwise 0 is returned,
    which keeps every bound valid. Returns (delta, guard_ok). One
    eigen-solve serves the guard and the value.
    """
    w = h.coarse_spectrum
    if spectrum_rank(w, h.policy) != h.s:
        return 0.0, False
    return float(w[0]), True


def _certified_coarse(h: TwoGridHierarchy, bc) -> SpsdOperator:
    """bc itself when certified, else the raw matrix certified under h's policy."""
    return bc if isinstance(bc, SpsdOperator) else spsd_certify(bc, h.policy)


def _coarse_core(h: TwoGridHierarchy, bc: SpsdOperator) -> np.ndarray:
    """The s x s core C = R Bc^+ R^T of the coarse correction Q C Q^T on range(A).

    The exact solve's core is I, whose correction is the projector Pi; it is
    never formed (None stands for it below).
    """
    return h.R @ bc.pinv @ h.R.T


def _quadratic_form(h: TwoGridHierarchy, core: np.ndarray | None) -> np.ndarray:
    """F Mbar F^T + K^T Q C Q^T K with K = I - B (r x r); core None is C = I.

    c^T c is formed as a general product of the copy c^T with c, the bytes
    of c^T I c, not as the symmetric rank-s update numpy picks for c^T c.
    """
    c = h.restricted_pre_smoother
    coarse = (np.ascontiguousarray(c.T) if core is None else c.T @ core) @ c
    return sym_part(h.smoother_form + coarse)


def _inexact_form(h: TwoGridHierarchy, core: np.ndarray) -> np.ndarray:
    """fitg_matrix's form with the coarse core C = R Bc^+ R^T already formed."""
    return _quadratic_form(h, 2.0 * core - core @ core)


def ftg_matrix(h: TwoGridHierarchy) -> np.ndarray:
    """Quadratic-form matrix of the exact iteration on range(A).

    F Mbar F^T + (I - B^T) Pi (I - B) with Pi = Q Q^T, so the
    coarse block is Q C Q^T with core C = I; SPSD, and nonsingular exactly
    when the intersection condition holds.
    """
    return _quadratic_form(h, None)


def fitg_matrix(h: TwoGridHierarchy, bc) -> np.ndarray:
    """Quadratic-form matrix of the inexact iteration with coarse matrix Bc.

    The symmetrized coarse solve 2 Bc^+ - Bc^+ Ac Bc^+ takes the place of
    Ac^+: on range(A) its block is Q (2 C - C^2) Q^T with
    C = R Bc^+ R^T, since R^T R = Ac. A raw matrix Bc is certified first.
    """
    return _inexact_form(h, _coarse_core(h, _certified_coarse(h, bc)))


# ---------------------------------------------------------------------------
# condition checks


@dataclass(frozen=True)
class ConditionReport:
    """Flags for the convergence conditions plus their decision margins.

    Every field is read off a spectrum the hierarchy caches:
    smoother_ok, smoother_min_eig and mbar_null_in_range_dim off the
    smoother spectrum, intersection_dim and intersection_margin off the
    complement spectrum, and mbar_min_eig, the smallest eigenvalue of Mbar,
    off the hierarchy's mbar_ends.
    intersection_margin is sqrt of the smallest eigenvalue the complement
    rank keeps (0.0 when none is kept); when the intersection condition
    holds and s < r it is sqrt(sigma_tg).
    """

    smoother_ok: bool
    equiv_cond_ok: bool
    suff_cond_ok: bool
    intersection_dim: int
    nullity_A: int
    smoother_min_eig: float
    intersection_margin: float
    mbar_min_eig: float
    mbar_null_in_range_dim: int


def check_conditions(h: TwoGridHierarchy) -> ConditionReport:
    """Evaluate the contraction and convergence conditions of a hierarchy.

    smoother_ok: the smoothing iteration is nonexpansive in the energy
        seminorm, equivalent to the smoother form F Mbar F^T being PSD; read
        off the smoother spectrum, whose smallest eigenvalue is
        smoother_min_eig (on range(A), so null(A) adds no zeros to it).
    equiv_cond_ok: the null spaces of A^{1/2} Mbar A^{1/2} and of
        P^T (I - A M) A^{1/2} intersect exactly in the null space of A;
        necessary and sufficient for a convergence factor below one. With
        K = I - B, Pi = Q Q^T and G = (I - Pi) K, the quadratic form
        ftg is I - G^T G and the complement form is (I - Pi) - G G^T, so
        the complement's nullity is s plus the nullity of ftg, which is the
        intersection dimension less n - r. The complement is a compression
        of the Mtilde form (and at s = r zero), so its rank is cut relative
        to the largest magnitude of the smoother spectrum, which the Mtilde
        form shares.
    suff_cond_ok: Mbar is PSD and its null space meets the range of A only
        at zero; a practical sufficient condition implying equiv_cond_ok.
        F^T maps R^r onto range(A), so for a PSD Mbar that intersection has
        dimension r minus the rank of the smoother form: the flag reads the
        ends of Mbar's spectrum (mbar_ends: lambda_min, and lambda_max only
        when lambda_min < 0) and the smoother spectrum.
        mbar_null_in_range_dim is that difference; it is the dimension of
        null(Mbar) within range(A) whenever Mbar is PSD, the only case in
        which the flag reads it.

    Reports and never raises: diagnosing failing setups is a primary use.
    """
    w_smooth = h.smoother_spectrum
    w_comp = h.complement_spectrum
    kept = spectrum_rank(w_comp, h.policy, scale=float(np.max(np.abs(w_smooth))))
    inter_dim = h.n - h.s - kept
    nullity_a = h.n - h.r
    null_in_range = h.r - spectrum_rank(w_smooth, h.policy)
    return ConditionReport(
        smoother_ok=bool(spectrum_psd(w_smooth)),
        equiv_cond_ok=bool(inter_dim == nullity_a),
        suff_cond_ok=bool(spectrum_psd(h.mbar_ends) and null_in_range == 0),
        intersection_dim=int(inter_dim),
        nullity_A=int(nullity_a),
        smoother_min_eig=float(w_smooth[0]),
        intersection_margin=float(np.sqrt(w_comp[h.r - kept])) if kept else 0.0,
        mbar_min_eig=h.mbar_min_eig,
        mbar_null_in_range_dim=int(null_in_range),
    )


# ---------------------------------------------------------------------------
# exact analysis


@dataclass(frozen=True)
class ExactFactorReport:
    """The exact convergence factor through three routes plus its bounds.

    factor_identity comes from the paper's spectral position n - r + s + 1,
    factor_ftg from the quadratic-form matrix at position n - r + 1, and
    factor_oracle from the brute-force seminorm maximization on the range
    of A. The spectra are r x r forms on range(A), so position n - r + k is
    array index k - 1: index s for the identity, index 0 for the quadratic
    form. warn_equiv_cond is set when the intersection condition failed, in
    which case the factor may legitimately reach one.
    """

    sigma_tg: float
    factor_identity: float
    factor_ftg: float
    factor_oracle: float
    lower_bound: float
    upper_bound: float
    eigengap_at_index: float | None
    warn_equiv_cond: bool


def seminorm_oracle(h: TwoGridHierarchy, iteration: str = "tg",
                    coarse=None) -> float:
    """Worst-case energy-seminorm contraction by direct maximization.

    Builds the r x r error propagator G = F E F^{+} of the requested
    iteration ("tg", "stg", or "itg" with a coarse matrix, certified or
    raw; like the solver, "tg" and "stg" take none and use the exact solve)
    on range(A), whose coarse correction is Q C Q^T with the core C of that
    solve, and returns its largest singular value as sqrt(lambda_max(G^T G)),
    the one end read by linalg.spectrum_end.
    It reads no spectral position, so it checks the index bookkeeping of
    the identity above; it is not independent of the operators: for "tg"
    the identity and the quadratic form read the singular values of this
    same G, built from the same F, B and Q.
    """
    _check_variant(iteration, coarse)
    core = None
    if iteration == "itg":
        core = _coarse_core(h, _certified_coarse(h, coarse))
    return _propagator_norm(h, core, iteration == "stg")


def _propagator_norm(h: TwoGridHierarchy, core: np.ndarray | None,
                     post_smooth: bool) -> float:
    """seminorm_oracle's value for the coarse core C (None: C = I)."""
    pre, qk = h.pre_smoother, h.restricted_pre_smoother
    g = pre - h.Q @ (qk if core is None else core @ qk)
    if post_smooth:
        g = pre.T @ g
    top = spectrum_end(sym_part(g.T @ g), highest=True)
    return float(np.sqrt(max(top, 0.0)))


def exact_two_sided(h: TwoGridHierarchy) -> tuple[float, float]:
    """Interlacing bounds on the exact factor from the spectrum of Mtilde A.

    sqrt(1 - lambda_{n-r+s+1}) <= factor <= sqrt(1 - lambda_{n-r+1}), both
    read off the smoother spectrum, which is that of F Mtilde F^T (see
    smoothing_floor), at indices s and 0. With s = r the lower spectral
    position would fall past the spectrum; the factor is exactly zero there,
    so the lower bound degenerates to 0.
    """
    w = h.smoother_spectrum
    upper = _factor_from(float(w[0]))
    if h.s == h.r:
        return 0.0, upper
    return _factor_from(float(w[h.s])), upper


def exact_factor(h: TwoGridHierarchy) -> ExactFactorReport:
    """Exact convergence factor with cross-checks and two-sided bounds.

    The identity route and the quadratic-form route must agree with the
    oracle to within the match tolerance whenever the intersection condition
    holds; all three are reported so drift is visible. The degenerate case
    s = r yields factor zero without solving or indexing past a spectrum.
    """
    conditions = check_conditions(h)
    sigma = sigma_tg(h)
    factor_identity = _factor_from(sigma)

    factor_ftg, eigengap = 0.0, None
    if h.s < h.r:
        factor_ftg = _factor_from(spectrum_end(ftg_matrix(h), highest=False))
        w = h.complement_spectrum
        eigengap = float(w[h.s] - w[h.s - 1])

    lower, upper = exact_two_sided(h)
    return ExactFactorReport(
        sigma_tg=sigma,
        factor_identity=factor_identity,
        factor_ftg=factor_ftg,
        factor_oracle=seminorm_oracle(h, "tg", None),
        lower_bound=lower,
        upper_bound=upper,
        eigengap_at_index=eigengap,
        warn_equiv_cond=not conditions.equiv_cond_ok,
    )


# ---------------------------------------------------------------------------
# inexact analysis


@dataclass(frozen=True)
class InexactFactorReport:
    """Spectral-equivalence constants and bounds for a pseudoinverse coarse solve."""

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    delta_tg: float
    delta_guard_ok: bool
    lower_L: float
    upper_U: float
    factor_exact_itg: float
    factor_oracle: float


def beta_constants(alpha1: float, alpha2: float) -> tuple[float, float]:
    """Equivalence constants of the symmetrized coarse solve from alpha1, alpha2.

    Three-branch formulas in alpha; the branches agree at alpha = 1 so ties
    at the boundary are resolved by continuity automatically.
    """
    if alpha2 <= 1.0:
        return (2.0 - alpha1) * alpha1, (2.0 - alpha2) * alpha2
    if alpha1 <= 1.0:
        return min((2.0 - alpha1) * alpha1, (2.0 - alpha2) * alpha2), 1.0
    return (2.0 - alpha2) * alpha2, (2.0 - alpha1) * alpha1


def lower_bound_inexact(beta2: float, sigma: float, delta: float,
                        floor: float) -> float:
    """Lower bound L(beta2) on the inexact factor."""
    return _factor_from(min(floor + beta2 * (1.0 - delta), sigma))


def upper_bound_inexact(beta1: float, sigma: float, delta: float,
                        floor: float) -> float:
    """Upper bound U(beta1) on the inexact factor."""
    return _factor_from(max(floor, beta1 * sigma,
                            sigma - (1.0 - beta1) * (1.0 - delta)))


def require_matching_ranges(ac: SpsdOperator, bc: SpsdOperator) -> None:
    """Reject a coarse approximation whose range differs from the Galerkin one.

    Equal ranges are necessary for any two-sided spectral equivalence.
    Checked through the ranks and the rank of the stacked null bases, read
    off their singular values (a Gram matrix would square them, and a null
    space turned by t would pass for t below the square root of the cut).
    """
    if bc.n != ac.n:
        raise ShapeError(f"coarse matrix is {bc.n} x {bc.n}, expected {ac.n} x {ac.n}")
    if bc.rank != ac.rank:
        raise RangeMismatchError(
            f"approximate coarse matrix has rank {bc.rank}, expected {ac.rank} "
            f"(rank defect {abs(ac.rank - bc.rank)})")
    nullity = ac.n - ac.rank
    if nullity == 0:
        return
    joint = np.hstack([ac.null_basis, bc.null_basis])
    joint_rank = spectrum_rank(np.linalg.svd(joint, compute_uv=False), ac.policy)
    if joint_rank != nullity:
        raise RangeMismatchError(
            "approximate coarse matrix has the right rank but a different "
            f"null space (joint nullity rank {joint_rank}, expected {nullity})")


def spectral_equivalence_constants(reference: SpsdOperator,
                                   other: SpsdOperator) -> tuple[float, float]:
    """Best constants (c1, c2) with c1 v'Rv <= v'Ov <= c2 v'Rv on the range.

    The extreme eigenvalues of G R^+ G^T with O's thin factor G (rank x n),
    the nonzero spectrum of R^+ O; requires matching ranges so the constants
    are finite and positive. A range mismatch is reported with `other` in
    the Galerkin role and `reference` as the approximation:
    inexact_linear_analysis calls it with (Bc, Ac), so alpha1 and alpha2 are
    the extreme nonzero eigenvalues of Bc^+ Ac, solved at order s.
    """
    require_matching_ranges(other, reference)
    g = other.factor
    w = np.linalg.eigvalsh(sym_part(g @ reference.pinv @ g.T))
    return float(w[0]), float(w[-1])


def inexact_linear_analysis(h: TwoGridHierarchy, bc) -> InexactFactorReport:
    """Full analysis of the iteration whose coarse solve is Bc^+.

    Verifies that Bc shares the range of the Galerkin matrix and that the
    largest generalized eigenvalue alpha2 stays below 2 (otherwise the
    symmetrized coarse solve loses definiteness; the error names the minimal
    rescaling instead of applying it). Reports the equivalence constants,
    the two-sided bounds, the exact inexact-iteration factor through the
    quadratic form, and the independent oracle value.
    """
    bc = _certified_coarse(h, bc)
    alpha1, alpha2 = spectral_equivalence_constants(bc, h.Ac)
    if alpha2 >= 2.0:
        raise CoarseScalingError(
            f"largest generalized eigenvalue of Bc^+ Ac is {alpha2:.6g} >= 2; "
            f"scale Bc by at least {alpha2 / 2.0:.6g} to restore the bound")
    beta1, beta2 = beta_constants(alpha1, alpha2)
    delta, guard_ok = delta_tg(h)
    sigma = sigma_tg(h)
    floor = smoothing_floor(h)

    # one core C = R Bc^+ R^T for the quadratic form and the oracle
    core = _coarse_core(h, bc)
    factor_itg = _factor_from(spectrum_end(_inexact_form(h, core), highest=False))

    return InexactFactorReport(
        alpha1=alpha1,
        alpha2=alpha2,
        beta1=beta1,
        beta2=beta2,
        delta_tg=delta,
        delta_guard_ok=guard_ok,
        lower_L=lower_bound_inexact(beta2, sigma, delta, floor),
        upper_U=upper_bound_inexact(beta1, sigma, delta, floor),
        factor_exact_itg=factor_itg,
        factor_oracle=_propagator_norm(h, core, False),
    )


def general_epsilon_bound(h: TwoGridHierarchy, eps: float) -> float:
    """Worst-case factor bound for any coarse solver of relative accuracy eps.

    A coarse solve whose output differs from the exact coarse correction by
    at most eps times its coarse energy seminorm yields a per-sweep factor
    of at most U(1 - eps^2). eps = 0 recovers the exact identity.
    """
    if not (0.0 <= eps < 1.0):
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    delta, _ = delta_tg(h)
    return upper_bound_inexact(1.0 - eps * eps, sigma_tg(h), delta,
                               smoothing_floor(h))


# ---------------------------------------------------------------------------
# report assembly


CSV_COLUMNS = [
    "problem", "smoother", "prolongation", "coarse", "seed",
    "n", "nc", "rank_a", "rank_ac",
    "sigma_tg", "factor_identity", "factor_ftg", "factor_oracle",
    "lower", "upper", "eigengap_at_index",
    "alpha1", "alpha2", "beta1", "beta2", "delta_tg",
    "lower_itg", "upper_itg", "factor_itg", "factor_itg_oracle",
    "epsilon", "epsilon_bound",
    "smoother_ok", "equiv_cond_ok", "suff_cond_ok",
    "intersection_dim", "nullity_a",
]

# The CSV columns that the report holds under "flags"; every other column
# is a flat report field.
FLAG_COLUMNS = ("smoother_ok", "equiv_cond_ok", "suff_cond_ok")


def convergence_report(h: TwoGridHierarchy, coarse: SpsdOperator | None = None,
                       epsilon: float | None = None,
                       meta: dict | None = None) -> dict:
    """Assemble the full report dictionary with the frozen field names.

    The flat fields are CSV_COLUMNS less FLAG_COLUMNS, each null until set.
    Inexact fields are null unless a coarse matrix is given; epsilon fields
    are null unless an accuracy level is given. `meta` supplies the
    provenance strings (problem, smoother, prolongation, coarse, seed). The
    epsilon bound comes first: it refuses an epsilon outside [0, 1) before
    any spectrum is read.
    """
    epsilon_bound = None if epsilon is None else general_epsilon_bound(h, epsilon)
    conditions = check_conditions(h)
    exact = exact_factor(h)
    report = dict.fromkeys(c for c in CSV_COLUMNS if c not in FLAG_COLUMNS)
    report.update({
        "n": h.n,
        "nc": h.nc,
        "rank_a": h.r,
        "rank_ac": h.s,
        "sigma_tg": exact.sigma_tg,
        "factor_identity": exact.factor_identity,
        "factor_ftg": exact.factor_ftg,
        "factor_oracle": exact.factor_oracle,
        "lower": exact.lower_bound,
        "upper": exact.upper_bound,
        "eigengap_at_index": exact.eigengap_at_index,
        "intersection_dim": conditions.intersection_dim,
        "nullity_a": conditions.nullity_A,
        "flags": {
            "smoother_ok": conditions.smoother_ok,
            "equiv_cond_ok": conditions.equiv_cond_ok,
            "suff_cond_ok": conditions.suff_cond_ok,
            "degenerate_full_rank_coarse": h.s == h.r,
            "delta_guard_ok": None,
        },
        "margins": {
            "smoother_min_eig": conditions.smoother_min_eig,
            "intersection_sv": conditions.intersection_margin,
            "mbar_min_eig": conditions.mbar_min_eig,
        },
        "tolerances": {
            "rank_rel_tol": h.policy.rank_rel_tol,
            "psd_slack": PSD_SLACK,
            "match_tol": h.policy.match_tol,
        },
    })
    if coarse is not None:
        inexact = inexact_linear_analysis(h, coarse)
        report.update({
            "alpha1": inexact.alpha1,
            "alpha2": inexact.alpha2,
            "beta1": inexact.beta1,
            "beta2": inexact.beta2,
            "delta_tg": inexact.delta_tg,
            "lower_itg": inexact.lower_L,
            "upper_itg": inexact.upper_U,
            "factor_itg": inexact.factor_exact_itg,
            "factor_itg_oracle": inexact.factor_oracle,
        })
        report["flags"]["delta_guard_ok"] = inexact.delta_guard_ok
    if epsilon is not None:
        report["epsilon"] = float(epsilon)
        report["epsilon_bound"] = epsilon_bound
    if meta:
        report.update(meta)
    return report


def report_json(report: dict) -> str:
    """Deterministic JSON rendering: sorted keys, two-space indent."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_csv(reports) -> str:
    """One header plus one row per report, columns in the frozen order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for report in reports:
        row = []
        for col in CSV_COLUMNS:
            if col in FLAG_COLUMNS:
                value = report["flags"][col]
                row.append("" if value is None else int(value))
            else:
                value = report.get(col)
                row.append("" if value is None else value)
        writer.writerow(row)
    return buf.getvalue()
