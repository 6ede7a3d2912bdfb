"""Convergence analysis for two-grid iterations on SPSD systems.

Everything here reduces to eigenvalues of explicitly symmetric matrices:
nonsymmetric products whose spectra are needed are replaced by a similar
symmetric form first (documented per operation), so no nonsymmetric
eigensolver is ever run. Ascending eigenvalue indexing is used throughout,
with 1-based spectral positions translated to 0-based array indices at the
point of use. One report builds each conjugated form and each spectrum once
and shares it between every quantity that reads it.

Main entry points:

* check_conditions: contraction flags and the null-space intersection test
  that is necessary and sufficient for a convergence factor below one.
* exact_factor: the convergence factor of the exact two-grid iteration
  through three independent routes (index identity, quadratic-form
  reformulation, brute-force seminorm oracle).
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
from functools import cached_property

import numpy as np

from .errors import CoarseScalingError, RangeMismatchError, ShapeError
from .linalg import (
    SpsdOperator,
    spectrum_psd,
    spectrum_rank,
    spsd_certify,
    stacked_nullity,
    sym_part,
    symmetric_rank,
)
from .model import TwoGridHierarchy


def _factor_from(value: float) -> float:
    """sqrt(1 - value) clamped against rounding outside [0, 1]."""
    return float(np.sqrt(min(max(float(1.0 - value), 0.0), 1.0)))


class _Spectra:
    """The conjugated forms and spectra of one hierarchy, each built once.

    One instance serves one public call, or one whole convergence_report, and
    is dropped with it: it is never stored on the hierarchy, so a rebuilt
    hierarchy never keeps the previous one's arrays alive. Each cached value
    is the expression a standalone call evaluates, so sharing it between the
    quantities of a report changes no digit.
    """

    def __init__(self, h: TwoGridHierarchy):
        self.h = h

    # -- forms and spectra ------------------------------------------------

    @cached_property
    def pre_smoother(self) -> np.ndarray:
        """I - A^{1/2} M A^{1/2}; its transpose is the post-smoothing twin."""
        ah = self.h.A.sqrt
        return np.eye(self.h.n) - ah @ self.h.M @ ah

    @cached_property
    def mtilde_form(self) -> np.ndarray:
        """A^{1/2} Mtilde A^{1/2}."""
        ah = self.h.A.sqrt
        return sym_part(ah @ self.h.Mtilde @ ah)

    @cached_property
    def mbar_form(self) -> np.ndarray:
        """A^{1/2} Mbar A^{1/2}; the Mtilde form itself when Mbar equals Mtilde."""
        if np.array_equal(self.h.Mbar, self.h.Mtilde):
            return self.mtilde_form
        ah = self.h.A.sqrt
        return sym_part(ah @ self.h.Mbar @ ah)

    @cached_property
    def mtilde_spectrum(self) -> np.ndarray:
        """Spectrum of the Mtilde form.

        When Mbar equals Mtilde the two forms are the same bytes, so this is
        the hierarchy's smoother spectrum and costs no eigen-solve.
        """
        if self.mbar_form is self.mtilde_form:
            return self.h.smoother_spectrum
        return np.linalg.eigvalsh(self.mtilde_form)

    @cached_property
    def projected_spectrum(self) -> np.ndarray:
        """Spectrum of (I - Pi) A^{1/2} Mtilde A^{1/2} (I - Pi)."""
        i_pi = np.eye(self.h.n) - self.h.Pi
        return np.linalg.eigvalsh(sym_part(i_pi @ self.mtilde_form @ i_pi))

    # -- spectral quantities ----------------------------------------------

    def smoothing_floor(self) -> float:
        return float(self.mtilde_spectrum[self.h.n - self.h.r])

    @cached_property
    def sigma_tg(self) -> float:
        h = self.h
        if h.s == h.r:
            return 1.0
        idx = h.n - h.r + h.s
        if not (0 <= idx < h.n):
            raise ShapeError(
                f"eigenvalue position {idx + 1} outside spectrum of size {h.n}; "
                "rank thresholds for A and the coarse matrix are inconsistent")
        return float(self.projected_spectrum[idx])

    def sigma_eigengap(self) -> float | None:
        h = self.h
        if h.s == h.r:
            return None
        idx = h.n - h.r + h.s
        w = self.projected_spectrum
        if idx == 0:
            return float(w[0])
        return float(w[idx] - w[idx - 1])

    @cached_property
    def delta_tg(self) -> tuple[float, bool]:
        """One eigen-solve serves both the full-coarse-rank guard and the value."""
        h = self.h
        w = np.linalg.eigvalsh(sym_part(h.Pi @ self.mtilde_form @ h.Pi))
        if spectrum_rank(w, h.policy) != h.s:
            return 0.0, False
        return float(w[h.n - h.s]), True

    def exact_two_sided(self) -> tuple[float, float]:
        h = self.h
        w = self.mtilde_spectrum
        upper = _factor_from(float(w[h.n - h.r]))
        if h.s == h.r:
            return 0.0, upper
        lower = _factor_from(float(w[h.n - h.r + h.s]))
        return lower, upper

    def ftg_matrix(self) -> np.ndarray:
        pre = self.pre_smoother
        return sym_part(self.mbar_form + pre.T @ self.h.Pi @ pre)

    def fitg_matrix(self, bc: SpsdOperator) -> np.ndarray:
        h = self.h
        pre = self.pre_smoother
        ah = h.A.sqrt
        btilde = sym_part(2.0 * bc.pinv - bc.pinv @ h.Ac.matrix @ bc.pinv)
        middle = sym_part(ah @ h.P @ btilde @ h.P.T @ ah)
        return sym_part(self.mbar_form + pre.T @ middle @ pre)

    def seminorm_oracle(self, iteration: str,
                        coarse: SpsdOperator | None) -> float:
        h = self.h
        pre = self.pre_smoother
        i_n = np.eye(h.n)
        if iteration == "tg":
            g = (i_n - h.Pi) @ pre
        elif iteration == "stg":
            g = pre.T @ (i_n - h.Pi) @ pre
        elif iteration == "itg":
            if coarse is None:
                raise ValueError("iteration 'itg' needs the coarse matrix")
            ah = h.A.sqrt
            pi_b = ah @ h.P @ coarse.pinv @ h.P.T @ ah
            g = (i_n - pi_b) @ pre
        else:
            raise ValueError(f"unknown iteration '{iteration}'")
        gv = g @ h.A.range_basis
        w = np.linalg.eigvalsh(sym_part(gv.T @ gv))
        return float(np.sqrt(max(float(w[-1]), 0.0)))

    # -- reports ----------------------------------------------------------

    @cached_property
    def conditions(self) -> ConditionReport:
        h = self.h
        tol = h.policy
        n = h.n

        w_smooth = h.smoother_spectrum
        smoother_min = float(w_smooth[0])
        smoother_ok = spectrum_psd(w_smooth, tol)

        pre_oblique = h.P.T @ (np.eye(n) - h.A.matrix @ h.M) @ h.A.sqrt
        inter_dim, margin = stacked_nullity([self.mbar_form, pre_oblique], tol)
        nullity_a = n - h.r
        equiv_ok = inter_dim == nullity_a

        w_mbar = np.linalg.eigvalsh(h.Mbar)
        mbar_min = float(w_mbar[0])
        mbar_psd = spectrum_psd(w_mbar, tol)
        if h.A.null_basis.shape[1] > 0:
            mbar_null_range, _ = stacked_nullity([h.Mbar, h.A.null_basis.T], tol)
        else:
            mbar_null_range, _ = stacked_nullity([h.Mbar], tol)
        suff_ok = mbar_psd and mbar_null_range == 0

        return ConditionReport(
            smoother_ok=bool(smoother_ok),
            equiv_cond_ok=bool(equiv_ok),
            suff_cond_ok=bool(suff_ok),
            intersection_dim=int(inter_dim),
            nullity_A=int(nullity_a),
            smoother_min_eig=smoother_min,
            intersection_margin=float(margin),
            mbar_min_eig=mbar_min,
            mbar_null_in_range_dim=int(mbar_null_range),
        )

    def exact_factor(self) -> ExactFactorReport:
        h = self.h
        conditions = self.conditions
        sigma = self.sigma_tg
        factor_identity = _factor_from(sigma)

        w_ftg = np.linalg.eigvalsh(self.ftg_matrix())
        factor_ftg = _factor_from(float(w_ftg[h.n - h.r]))

        if h.s == h.r:
            factor_identity = 0.0
            factor_ftg = 0.0

        lower, upper = self.exact_two_sided()
        return ExactFactorReport(
            sigma_tg=sigma,
            factor_identity=factor_identity,
            factor_ftg=factor_ftg,
            factor_oracle=self.seminorm_oracle("tg", None),
            lower_bound=lower,
            upper_bound=upper,
            eigengap_at_index=self.sigma_eigengap(),
            warn_equiv_cond=not conditions.equiv_cond_ok,
        )

    def inexact_linear_analysis(self, bc) -> InexactFactorReport:
        h = self.h
        if not isinstance(bc, SpsdOperator):
            bc = spsd_certify(bc, h.policy)
        alpha1, alpha2 = spectral_equivalence_constants(bc, h.Ac)
        if alpha2 >= 2.0:
            raise CoarseScalingError(
                f"largest generalized eigenvalue of Bc^+ Ac is {alpha2:.6g} >= 2; "
                f"scale Bc by at least {alpha2 / 2.0:.6g} to restore the bound")
        beta1, beta2 = beta_constants(alpha1, alpha2)
        delta, guard_ok = self.delta_tg
        sigma = self.sigma_tg
        floor = self.smoothing_floor()

        w_fitg = np.linalg.eigvalsh(self.fitg_matrix(bc))
        factor_itg = _factor_from(float(w_fitg[h.n - h.r]))
        if h.s == h.r:
            factor_itg = 0.0

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
            factor_oracle=self.seminorm_oracle("itg", bc),
        )

    def general_epsilon_bound(self, eps: float) -> float:
        if not (0.0 <= eps < 1.0):
            raise ValueError(f"eps must lie in [0, 1), got {eps}")
        delta, _ = self.delta_tg
        return upper_bound_inexact(1.0 - eps * eps, self.sigma_tg, delta,
                                   self.smoothing_floor())


def smoothing_floor(h: TwoGridHierarchy) -> float:
    """(n - r + 1)-th smallest eigenvalue of Mtilde A.

    Evaluated on the similar symmetric form A^{1/2} Mtilde A^{1/2}; this is
    the eigenvalue that caps how much the smoother alone can leave behind on
    the range of A.
    """
    return _Spectra(h).smoothing_floor()


def sigma_tg(h: TwoGridHierarchy) -> float:
    """Spectral gap whose complement under the square root is the exact factor.

    Computed as the (n - r + s + 1)-th smallest eigenvalue of the symmetric
    form (I - Pi) A^{1/2} Mtilde A^{1/2} (I - Pi), which shares the spectrum
    of Mtilde A (I - Pi_A). In the degenerate full-coarse-rank case s = r the
    factor is exactly zero, so 1.0 is returned directly instead of indexing
    past the spectrum.
    """
    return _Spectra(h).sigma_tg


def sigma_eigengap(h: TwoGridHierarchy) -> float | None:
    """Gap below the eigenvalue that defines sigma; None when s = r.

    A tiny gap means the spectral position sits inside a near-degenerate
    cluster and the index-based identity is numerically fragile.
    """
    return _Spectra(h).sigma_eigengap()


def delta_tg(h: TwoGridHierarchy) -> tuple[float, bool]:
    """(n - s + 1)-th smallest eigenvalue of Mtilde A Pi_A, with its guard.

    Evaluated on the symmetric form Pi A^{1/2} Mtilde A^{1/2} Pi. The value
    is only meaningful when that matrix has full coarse rank s (the guard);
    otherwise 0 is returned, which keeps every bound valid. Returns
    (delta, guard_ok).
    """
    return _Spectra(h).delta_tg


def ftg_matrix(h: TwoGridHierarchy) -> np.ndarray:
    """Quadratic-form matrix of the exact iteration on the A^{1/2} side.

    A^{1/2} Mbar A^{1/2} + (I - A^{1/2} M^T A^{1/2}) Pi (I - A^{1/2} M A^{1/2});
    SPSD, and its null space equals the null space of A exactly when the
    intersection condition holds.
    """
    return _Spectra(h).ftg_matrix()


def fitg_matrix(h: TwoGridHierarchy, bc: SpsdOperator) -> np.ndarray:
    """Quadratic-form matrix of the inexact iteration with coarse matrix Bc.

    Uses the symmetrized coarse solve 2 Bc^+ - Bc^+ Ac Bc^+ in place of the
    projector block of the exact form.
    """
    return _Spectra(h).fitg_matrix(bc)


# ---------------------------------------------------------------------------
# condition checks


@dataclass(frozen=True)
class ConditionReport:
    """Flags for the convergence conditions plus their decision margins."""

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
        seminorm, equivalent to A^{1/2} Mbar A^{1/2} being PSD.
    equiv_cond_ok: the null spaces of A^{1/2} Mbar A^{1/2} and of
        P^T (I - A M) A^{1/2} intersect exactly in the null space of A;
        necessary and sufficient for a convergence factor below one.
    suff_cond_ok: Mbar is PSD and its null space meets the range of A only
        at zero; a practical sufficient condition implying equiv_cond_ok.

    Reports and never raises: diagnosing failing setups is a primary use.
    """
    return _Spectra(h).conditions


# ---------------------------------------------------------------------------
# exact analysis


@dataclass(frozen=True)
class ExactFactorReport:
    """The exact convergence factor through three routes plus its bounds.

    factor_identity comes from the spectral position n - r + s + 1,
    factor_ftg from the quadratic-form matrix at position n - r + 1, and
    factor_oracle from the brute-force seminorm maximization restricted to
    the range of A. warn_equiv_cond is set when the intersection condition
    failed, in which case the factor may legitimately reach one.
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
                    coarse: SpsdOperator | None = None) -> float:
    """Worst-case energy-seminorm contraction by direct maximization.

    Builds the A^{1/2}-conjugated error propagator G of the requested
    iteration ("tg", "stg", or "itg" with a coarse matrix), restricts it to
    an orthonormal basis V of the range of A, and returns the largest
    singular value as sqrt(lambda_max(V^T G^T G V)). Independent of every
    index-based identity above; this is the anti-drift reference value.
    """
    return _Spectra(h).seminorm_oracle(iteration, coarse)


def exact_two_sided(h: TwoGridHierarchy) -> tuple[float, float]:
    """Interlacing bounds on the exact factor from the spectrum of Mtilde A.

    sqrt(1 - lambda_{n-r+s+1}) <= factor <= sqrt(1 - lambda_{n-r+1}), both
    evaluated on A^{1/2} Mtilde A^{1/2}. With s = r the lower spectral
    position would fall past the spectrum; the factor is exactly zero there,
    so the lower bound degenerates to 0.
    """
    return _Spectra(h).exact_two_sided()


def exact_factor(h: TwoGridHierarchy) -> ExactFactorReport:
    """Exact convergence factor with cross-checks and two-sided bounds.

    The identity route and the quadratic-form route must agree with the
    oracle to within the match tolerance whenever the intersection condition
    holds; all three are reported so drift is visible. The degenerate case
    s = r yields factor zero without indexing past the spectrum.
    """
    return _Spectra(h).exact_factor()


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
    Checked through the ranks and the joint rank of the stacked null bases.
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
    joint_rank = symmetric_rank(joint.T @ joint, ac.policy)
    if joint_rank != nullity:
        raise RangeMismatchError(
            "approximate coarse matrix has the right rank but a different "
            f"null space (joint nullity rank {joint_rank}, expected {nullity})")


def spectral_equivalence_constants(reference: SpsdOperator,
                                   other: SpsdOperator) -> tuple[float, float]:
    """Best constants (c1, c2) with c1 v'Rv <= v'Ov <= c2 v'Rv on the range.

    Computed on the symmetric form R^{+/2} O R^{+/2}; requires matching
    ranges so the constants are finite and positive. A range mismatch is
    reported with `other` in the Galerkin role and `reference` as the
    approximation: inexact_linear_analysis calls it with (Bc, Ac), so alpha1
    and alpha2 are the extreme nonzero eigenvalues of Bc^+ Ac.
    """
    require_matching_ranges(other, reference)
    w = np.linalg.eigvalsh(sym_part(reference.pinv_sqrt @ other.matrix
                                    @ reference.pinv_sqrt))
    return float(w[reference.n - reference.rank]), float(w[-1])


def inexact_linear_analysis(h: TwoGridHierarchy, bc) -> InexactFactorReport:
    """Full analysis of the iteration whose coarse solve is Bc^+.

    Verifies that Bc shares the range of the Galerkin matrix and that the
    largest generalized eigenvalue alpha2 stays below 2 (otherwise the
    symmetrized coarse solve loses definiteness; the error names the minimal
    rescaling instead of applying it). Reports the equivalence constants,
    the two-sided bounds, the exact inexact-iteration factor through the
    quadratic form, and the independent oracle value.
    """
    return _Spectra(h).inexact_linear_analysis(bc)


def general_epsilon_bound(h: TwoGridHierarchy, eps: float) -> float:
    """Worst-case factor bound for any coarse solver of relative accuracy eps.

    A coarse solve whose output differs from the exact coarse correction by
    at most eps times its coarse energy seminorm yields a per-sweep factor
    of at most U(1 - eps^2). eps = 0 recovers the exact identity.
    """
    return _Spectra(h).general_epsilon_bound(eps)


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


def convergence_report(h: TwoGridHierarchy, coarse: SpsdOperator | None = None,
                       epsilon: float | None = None,
                       meta: dict | None = None) -> dict:
    """Assemble the full report dictionary with the frozen field names.

    Inexact fields are null unless a coarse matrix is given; epsilon fields
    are null unless an accuracy level is given. `meta` supplies the
    provenance strings (problem, smoother, prolongation, coarse, seed).
    """
    spectra = _Spectra(h)
    conditions = spectra.conditions
    exact = spectra.exact_factor()
    report = {
        "problem": None,
        "smoother": None,
        "prolongation": None,
        "coarse": None,
        "seed": None,
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
        "alpha1": None,
        "alpha2": None,
        "beta1": None,
        "beta2": None,
        "delta_tg": None,
        "lower_itg": None,
        "upper_itg": None,
        "factor_itg": None,
        "factor_itg_oracle": None,
        "epsilon": None,
        "epsilon_bound": None,
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
            "psd_slack": h.policy.psd_slack,
            "match_tol": h.policy.match_tol,
        },
    }
    if coarse is not None:
        inexact = spectra.inexact_linear_analysis(coarse)
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
        report["epsilon_bound"] = spectra.general_epsilon_bound(epsilon)
    if meta:
        for key, value in meta.items():
            report[key] = value
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
            if col in ("smoother_ok", "equiv_cond_ok", "suff_cond_ok"):
                value = report["flags"][col]
                row.append("" if value is None else int(value))
            else:
                value = report.get(col)
                row.append("" if value is None else value)
        writer.writerow(row)
    return buf.getvalue()
