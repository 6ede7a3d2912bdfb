"""Built-in problem corpus and the invariant verification suite.

The corpus spans the supported problem classes (1d/2d Neumann Laplacians,
weighted graph Laplacians including a disconnected one, seeded random
rank-deficient SPSD matrices) crossed with the stock smoothers and both
aggregation ratios. The verification suite re-derives every identity and
bound on each case and compares against the brute-force seminorm oracle,
reporting one pass/fail record per check with the measured slack. Its
solver spot checks sweep u_ref alone (the fixed point) and 20 seeded
random starts as one block (the worst single-sweep ratio), so each case
checks the solver's inputs twice, not 21 times.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis, solver
from .linalg import PSD_SLACK, spectrum_rank, spsd_certify, sym_part
from .model import (
    CustomSmoother,
    GaussSeidel,
    GraphLaplacian,
    NeumannLaplacian1D,
    NeumannLaplacian2D,
    ProblemSpec,
    RandomSpsd,
    SmootherSpec,
    WeightedJacobi,
    build_hierarchy,
    generate_problem,
)


@dataclass(frozen=True)
class CorpusCase:
    name: str
    problem: ProblemSpec
    smoother: SmootherSpec
    group: int
    seed: int = 0


TWO_COMPONENT_GRAPH = GraphLaplacian(
    edges=((0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0),
           (4, 5, 1.0), (5, 6, 1.5), (6, 7, 1.0), (7, 8, 0.5), (8, 9, 1.0)),
    n=10)

WHEEL_GRAPH = GraphLaplacian(
    edges=tuple((i, (i + 1) % 8, 1.0) for i in range(8))
    + tuple((8, i, 0.5) for i in range(0, 8, 2)),
    n=9)

PATH_GRAPH_12 = GraphLaplacian(
    edges=tuple((i, i + 1, 1.0 + 0.1 * i) for i in range(11)), n=12)


def builtin_corpus() -> tuple[CorpusCase, ...]:
    """Twenty-one deterministic hierarchies covering the supported classes."""
    cases = [
        CorpusCase("neumann1d:8/jacobi:2/3/agg2", NeumannLaplacian1D(8),
                   WeightedJacobi(2.0 / 3.0), 2),
        CorpusCase("neumann1d:8/gs/agg4", NeumannLaplacian1D(8), GaussSeidel(), 4),
        CorpusCase("neumann1d:16/jacobi:0.5/agg2", NeumannLaplacian1D(16),
                   WeightedJacobi(0.5), 2),
        CorpusCase("neumann1d:16/jacobi:2/3/agg4", NeumannLaplacian1D(16),
                   WeightedJacobi(2.0 / 3.0), 4),
        CorpusCase("neumann1d:32/jacobi:2/3/agg2", NeumannLaplacian1D(32),
                   WeightedJacobi(2.0 / 3.0), 2),
        CorpusCase("neumann1d:32/gs/agg2", NeumannLaplacian1D(32), GaussSeidel(), 2),
        CorpusCase("neumann2d:8x8/jacobi:2/3/agg2", NeumannLaplacian2D(8, 8),
                   WeightedJacobi(2.0 / 3.0), 2),
        CorpusCase("neumann2d:8x8/gs/agg4", NeumannLaplacian2D(8, 8),
                   GaussSeidel(), 4),
        CorpusCase("graph:path12/jacobi:0.5/agg2", PATH_GRAPH_12,
                   WeightedJacobi(0.5), 2),
        CorpusCase("graph:2comp/jacobi:2/3/agg2", TWO_COMPONENT_GRAPH,
                   WeightedJacobi(2.0 / 3.0), 2),
        CorpusCase("graph:wheel/gs/agg4", WHEEL_GRAPH, GaussSeidel(), 4),
    ]
    sizes = (10, 12, 14, 16, 18, 11, 13, 15, 17, 20)
    for i, n in enumerate(sizes):
        rank = max(2, (2 * n) // 3)
        cases.append(CorpusCase(
            f"random:{n}:r{rank}:s{i}/gs/agg2",
            RandomSpsd(n=n, rank=rank, seed=i), GaussSeidel(), 2, seed=i))
    return tuple(cases)


def build_case(case: CorpusCase):
    """Materialize (hierarchy, f, u_ref) for one corpus case."""
    a, p, f, u_ref = generate_problem(case.problem, group=case.group,
                                      seed=case.seed)
    h = build_hierarchy(a, p, case.smoother)
    return h, f, u_ref


# ---------------------------------------------------------------------------
# verification suite


@dataclass(frozen=True)
class CheckResult:
    """One verified invariant: measured value against its limit."""

    check: str
    case: str
    passed: bool
    measured: float
    limit: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = (f"{status} {self.check}[{self.case}] "
                f"measured={self.measured:.3e} limit={self.limit:.3e}")
        if self.detail:
            text += f" ({self.detail})"
        return text


def _case_checks(case: CorpusCase, perturb: float) -> list[CheckResult]:
    h, f, u_ref = build_case(case)
    results = []

    def record(check, measured, limit, detail=""):
        results.append(CheckResult(check=check, case=case.name,
                                   passed=bool(measured <= limit),
                                   measured=float(measured), limit=float(limit),
                                   detail=detail))

    conditions = analysis.check_conditions(h)
    exact = analysis.exact_factor(h)
    factor = exact.factor_identity + perturb

    record("identity_vs_oracle", abs(factor - exact.factor_oracle), 1e-10)
    record("identity_vs_quadratic_form", abs(factor - exact.factor_ftg), 1e-10)
    record("exact_sandwich",
           max(exact.lower_bound - factor, factor - exact.upper_bound), 1e-10)

    oracle_stg = analysis.seminorm_oracle(h, "stg")
    record("squaring_law", abs(oracle_stg - exact.factor_oracle ** 2), 1e-9)

    # the Mtilde form's own spectrum, independent of the smoother spectrum
    # the analysis reads in its place and of the compressions it reads
    b = h.smoother_product
    w = np.linalg.eigvalsh(sym_part(b + b.T - b @ b.T))
    record("spectrum_box", max(-float(w[0]), float(w[-1]) - 1.0), PSD_SLACK)

    record("suff_implies_equiv",
           0.0 if (not conditions.suff_cond_ok or conditions.equiv_cond_ok) else 1.0,
           0.0, detail="logical implication")

    if conditions.equiv_cond_ok:
        w_ftg = np.linalg.eigvalsh(analysis.ftg_matrix(h))
        record("quadratic_form_nullity", abs(h.r - spectrum_rank(w_ftg, h.policy)), 0.0)

    # inexact route with the Galerkin matrix itself and a doubled copy
    rep_same = analysis.inexact_linear_analysis(h, h.Ac)
    record("inexact_collapse",
           max(abs(rep_same.lower_L - rep_same.upper_U),
               abs(rep_same.lower_L - exact.factor_identity)), 1e-12)
    bc = spsd_certify(2.0 * h.Ac.matrix, h.policy)
    rep2 = analysis.inexact_linear_analysis(h, bc)
    record("inexact_sandwich",
           max(rep2.lower_L - rep2.factor_exact_itg,
               rep2.factor_exact_itg - rep2.upper_U), 1e-10)
    w_itg = np.linalg.eigvalsh(analysis.fitg_matrix(h, bc))
    if conditions.equiv_cond_ok:
        record("inexact_nullity", abs(h.r - spectrum_rank(w_itg, h.policy)), 0.0)

    delta, _ = analysis.delta_tg(h)
    record("sigma_delta_consistency",
           analysis.sigma_tg(h) - (1.0 - delta + analysis.smoothing_floor(h)),
           1e-10)

    # solver-side spot checks. u_ref is swept alone: its residual f - A u_ref
    # is exactly 0 only from the matrix-vector product that made f, while a
    # block's matrix product rounds differently.
    u1 = solver.tg_sweep(h, u_ref, f)
    record("fixed_point", solver.a_seminorm(h.A.matrix, u1 - u_ref), 1e-10)
    # one sweep of a block of 20 random starts, each from its own seeded stream
    u0 = np.column_stack([np.random.default_rng(9000 + trial).standard_normal(h.n)
                          for trial in range(20)])
    u1 = solver.tg_sweep(h, u0, f)
    e0 = solver.a_seminorm(h.A.matrix, u_ref[:, None] - u0)
    e1 = solver.a_seminorm(h.A.matrix, u_ref[:, None] - u1)
    moved = e0 > 0.0
    worst = float(np.max(e1[moved] / e0[moved], initial=0.0))
    record("worst_sweep_ratio", worst - exact.factor_identity, 1e-8)
    return results


def _expected_failure_check() -> list[CheckResult]:
    """Zero smoother on a rank-deficient coarse space: divergence is expected.

    The intersection condition must report False and the factor must reach
    one; that outcome counts as a pass of the harness.
    """
    case = CorpusCase("neumann1d:8/zero-smoother", NeumannLaplacian1D(8),
                      CustomSmoother(np.zeros((8, 8))), 2)
    h, _, _ = build_case(case)
    conditions = analysis.check_conditions(h)
    exact = analysis.exact_factor(h)
    ok = (not conditions.equiv_cond_ok) and exact.factor_identity >= 1.0 - 1e-10
    return [CheckResult(
        check="expected_equiv_failure", case=case.name,
        passed=ok, measured=exact.factor_identity, limit=1.0,
        detail="intersection condition reports False, factor reaches 1")]


def _epsilon_bound_check() -> list[CheckResult]:
    """Enforced-accuracy coarse solves never beat the eps bound."""
    case = CorpusCase("neumann1d:8/jacobi:2/3/agg2", NeumannLaplacian1D(8),
                      WeightedJacobi(2.0 / 3.0), 2)
    h, f, u_ref = build_case(case)
    results = []
    for eps in (0.1, 0.5, 0.9):
        bound = analysis.general_epsilon_bound(h, eps)
        worst = 0.0
        for trial in range(10):
            rng = np.random.default_rng(7000 + trial)
            approx = solver.eps_perturbed_coarse(h, eps, rng)
            u0 = rng.standard_normal(h.n)
            u1 = solver.itg_sweep(h, u0, f, solver.GeneralCoarse(approx, eps))
            e0 = solver.a_seminorm(h.A.matrix, u_ref - u0)
            e1 = solver.a_seminorm(h.A.matrix, u_ref - u1)
            worst = max(worst, e1 / e0)
        results.append(CheckResult(
            check=f"epsilon_bound:{eps}", case=case.name,
            passed=worst <= bound + 1e-8, measured=worst, limit=bound + 1e-8))
    return results


def run_verification(perturb_identity: float = 0.0,
                     cases: tuple[CorpusCase, ...] | None = None) -> list[CheckResult]:
    """Run every invariant check on the corpus (or the supplied cases).

    perturb_identity injects a bias into the reported convergence factor
    before the identity comparisons; a nonzero value must make the identity
    checks fail by about that amount, which self-tests the harness.
    """
    results: list[CheckResult] = []
    for case in (cases if cases is not None else builtin_corpus()):
        results.extend(_case_checks(case, perturb_identity))
    results.extend(_expected_failure_check())
    results.extend(_epsilon_bound_check())
    return results
