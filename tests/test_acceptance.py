"""Acceptance suite: one test per criterion, one printed line per criterion.

Criterion 6a checks that the tail of a long solver run matches what the
analysis predicts for it. The paper's identity gives the worst-case
energy-seminorm factor ||E_TG||_A of one sweep, and which rate a tail
approaches depends on the sweep:

- the symmetrized sweep's propagator E_STG = E_TG^* E_TG (adjoint in the A
  inner product) is A-self-adjoint and PSD on range(A), so its tail ratios
  converge to ||E_STG||_A = ||E_TG||_A^2 (the squaring law, criterion 3);
- the one-sided propagator E_TG is not A-self-adjoint, so its tail ratios
  converge to its spectral radius on range(A), which is at most ||E_TG||_A
  and here well below it. The worst-case factor itself is attained only as
  the largest single-sweep ratio (criterion 6b).
"""
import json

import numpy as np
import pytest

from twogrid import analysis
from twogrid.cli import main
from twogrid.corpus import builtin_corpus, build_case
from twogrid.linalg import TolerancePolicy, spsd_certify, sym_part, symmetric_rank
from twogrid.model import (
    CustomSmoother,
    NeumannLaplacian1D,
    WeightedJacobi,
    build_hierarchy,
    generate_problem,
    neumann_laplacian_1d,
)
from twogrid.solver import (GeneralCoarse, a_seminorm, eps_perturbed_coarse,
                            itg_sweep, iterate, tg_sweep)


def _print_result(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def corpus_hierarchies():
    return [(case, *build_case(case)) for case in builtin_corpus()]


@pytest.fixture(scope="module")
def neumann32():
    a, p, f, u_ref = generate_problem(NeumannLaplacian1D(32), group=2, seed=0)
    h = build_hierarchy(a, p, WeightedJacobi(2.0 / 3.0))
    return h, f, u_ref


def test_criterion_1_identity_agreement(corpus_hierarchies):
    assert len(corpus_hierarchies) >= 20
    worst_oracle = worst_ftg = 0.0
    for case, h, f, u_ref in corpus_hierarchies:
        rep = analysis.exact_factor(h)
        worst_oracle = max(worst_oracle, abs(rep.factor_identity - rep.factor_oracle))
        worst_ftg = max(worst_ftg, abs(rep.factor_identity - rep.factor_ftg))
    assert worst_oracle <= 1e-10, f"identity vs oracle drift {worst_oracle:.3e}"
    assert worst_ftg <= 1e-10, f"identity vs quadratic form drift {worst_ftg:.3e}"
    _print_result(1, f"{len(corpus_hierarchies)} hierarchies, max drift "
                  f"oracle={worst_oracle:.2e} form={worst_ftg:.2e}")


def test_criterion_2_exact_sandwich(corpus_hierarchies):
    worst = -np.inf
    for case, h, f, u_ref in corpus_hierarchies:
        rep = analysis.exact_factor(h)
        worst = max(worst, rep.lower_bound - rep.factor_identity,
                    rep.factor_identity - rep.upper_bound)
    assert worst <= 1e-10, f"sandwich violated by {worst:.3e}"
    _print_result(2, f"worst sandwich violation {worst:.2e} (<= 1e-10)")


def test_criterion_3_squaring_law(corpus_hierarchies):
    worst = 0.0
    for case, h, f, u_ref in corpus_hierarchies:
        tg = analysis.seminorm_oracle(h, "tg")
        stg = analysis.seminorm_oracle(h, "stg")
        worst = max(worst, abs(stg - tg ** 2))
    assert worst <= 1e-9, f"squaring law drift {worst:.3e}"
    _print_result(3, f"max |stg - tg^2| = {worst:.2e} (<= 1e-9)")


def test_criterion_4_inexact_sandwich():
    a, p, f, u_ref = generate_problem(NeumannLaplacian1D(8), group=2, seed=0)
    h = build_hierarchy(a, p, WeightedJacobi(2.0 / 3.0))
    exact = analysis.exact_factor(h)
    rng = np.random.default_rng(23)
    vr = h.Ac.range_basis
    k = rng.standard_normal((h.s, h.s))
    bump = vr @ sym_part(k @ k.T) @ vr.T
    candidates = {
        "same": h.Ac.matrix,
        "doubled": 2.0 * h.Ac.matrix,
        "shrunk": 0.6 * h.Ac.matrix,
        "bump1e-2": h.Ac.matrix + 1e-2 * bump,
        "bump1e-1": h.Ac.matrix + 1e-1 * bump,
        "bump1": h.Ac.matrix + bump,
    }
    for name, bc in candidates.items():
        rep = analysis.inexact_linear_analysis(h, bc)
        assert rep.lower_L - 1e-10 <= rep.factor_exact_itg <= rep.upper_U + 1e-10, name
    same = analysis.inexact_linear_analysis(h, h.Ac)
    assert abs(same.lower_L - exact.factor_identity) <= 1e-12
    assert abs(same.upper_U - exact.factor_identity) <= 1e-12
    _print_result(4, f"{len(candidates)} coarse matrices sandwiched; "
                  "exact coarse collapses both bounds")


def test_criterion_5_epsilon_bound():
    a, p, f, u_ref = generate_problem(NeumannLaplacian1D(8), group=2, seed=0)
    h = build_hierarchy(a, p, WeightedJacobi(2.0 / 3.0))
    trials_per_eps = 67
    total = 0
    for eps in (0.1, 0.5, 0.9):
        bound = analysis.general_epsilon_bound(h, eps)
        for trial in range(trials_per_eps):
            rng = np.random.default_rng([trial, int(eps * 10)])
            approx = eps_perturbed_coarse(h, eps, rng)
            u0 = rng.standard_normal(8)
            u1 = itg_sweep(h, u0, f, GeneralCoarse(approx, declared_eps=eps))
            e0 = a_seminorm(h.A.matrix, u_ref - u0)
            e1 = a_seminorm(h.A.matrix, u_ref - u1)
            assert e1 <= (bound + 1e-8) * e0, f"eps={eps} trial={trial}"
            total += 1
    assert total == 201
    _print_result(5, f"{total} enforced-accuracy coarse solves under the bound")


def test_criterion_6a_observed_tail_matches_factor(neumann32):
    # The stg tail must approach factor**2 (its propagator is A-self-adjoint);
    # the tg tail must approach the spectral radius of E_TG on range(A),
    # computed here from the operators, and stay below the worst-case factor.
    h, f, u_ref = neumann32
    factor = analysis.exact_factor(h).factor_identity
    u0 = np.random.default_rng(77).standard_normal(32)

    stg = iterate(h, f, u0, 50, "stg", u_ref=u_ref)
    assert stg.observed_factor is not None
    assert abs(stg.observed_factor - factor ** 2) <= 5e-2, (
        f"stg tail geometric mean {stg.observed_factor:.6f} vs squared "
        f"worst-case factor {factor ** 2:.6f}: the symmetrized propagator is "
        "A-self-adjoint, so its tail rate is its seminorm ||E_TG||_A^2")

    # A^{1/2} E_TG A^{+1/2} = (I - Q)(I - K) on range(A); as I - Q is a
    # projector this has the nonzero spectrum of (I - Q)(I - K)(I - Q),
    # which is symmetric because weighted Jacobi gives M = M^T.
    ah = h.A.sqrt
    eye = np.eye(h.n)
    k = ah @ h.M @ ah
    q = h.Pi
    v = h.A.range_basis
    compressed = v.T @ (eye - q) @ (eye - k) @ (eye - q) @ v
    rho = float(np.max(np.abs(np.linalg.eigvalsh(sym_part(compressed)))))

    tg = iterate(h, f, u0, 50, "tg", u_ref=u_ref)
    assert tg.observed_factor is not None
    assert tg.observed_factor <= factor + 1e-8, (
        f"tg tail geometric mean {tg.observed_factor:.6f} exceeds the "
        f"worst-case factor {factor:.6f}")
    assert abs(tg.observed_factor - rho) <= 5e-2, (
        f"tg tail geometric mean {tg.observed_factor:.6f} vs spectral radius "
        f"{rho:.6f} of the one-sided propagator on range(A)")
    _print_result("6a", f"stg tail {stg.observed_factor:.4f} vs factor^2 "
                  f"{factor ** 2:.4f}; tg tail {tg.observed_factor:.4f} vs "
                  f"spectral radius {rho:.4f} <= factor {factor:.4f}")


def test_criterion_6b_max_single_sweep_ratio(neumann32):
    h, f, u_ref = neumann32
    factor = analysis.exact_factor(h).factor_identity
    worst = 0.0
    for seed in range(100):
        u0 = np.random.default_rng(seed + 1).standard_normal(32)
        u1 = tg_sweep(h, u0, f)
        e0 = a_seminorm(h.A.matrix, u_ref - u0)
        e1 = a_seminorm(h.A.matrix, u_ref - u1)
        worst = max(worst, e1 / e0)
    assert worst <= factor + 1e-8
    _print_result("6b", f"max single-sweep ratio {worst:.6f} <= factor "
                  f"{factor:.6f} + 1e-8")


def test_criterion_7_condition_logic(corpus_hierarchies):
    spd_cases = 0
    for case, h, f, u_ref in corpus_hierarchies:
        conditions = analysis.check_conditions(h)
        if conditions.mbar_min_eig > 0.0:
            spd_cases += 1
            assert conditions.equiv_cond_ok, case.name
    assert spd_cases >= 20
    a, p, f, u_ref = generate_problem(NeumannLaplacian1D(8), group=2, seed=0)
    h0 = build_hierarchy(a, p, CustomSmoother(np.zeros((8, 8))))
    assert h0.s < h0.r
    conditions = analysis.check_conditions(h0)
    assert not conditions.equiv_cond_ok
    assert analysis.exact_factor(h0).factor_identity >= 1.0 - 1e-10
    _print_result(7, f"{spd_cases} SPD-smoother cases convergent; zero smoother "
                  "reports the failure and factor 1")


def test_criterion_8_null_space_discipline(corpus_hierarchies):
    checked = 0
    for case, h, f, u_ref in corpus_hierarchies:
        if not analysis.check_conditions(h).equiv_cond_ok:
            continue
        nullity_exact = h.n - symmetric_rank(analysis.ftg_matrix(h), h.policy)
        bc = spsd_certify(2.0 * h.Ac.matrix, h.policy)
        nullity_inexact = h.n - symmetric_rank(analysis.fitg_matrix(h, bc), h.policy)
        assert nullity_exact == h.n - h.r, case.name
        assert nullity_inexact == h.n - h.r, case.name
        checked += 1
    assert checked >= 20
    # degenerate full-coarse-rank case returns exactly zero
    a = np.diag([2.0, 1.0, 0.0])
    p = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    h = build_hierarchy(a, p, CustomSmoother(0.3 * np.eye(3)))
    rep = analysis.exact_factor(h)
    assert h.s == h.r
    assert rep.factor_identity == 0.0
    assert rep.factor_ftg == 0.0
    _print_result(8, f"{checked} cases with matching quadratic-form nullity; "
                  "full-coarse-rank case returns factor exactly 0")


def test_criterion_9_spectral_equivalence_duality():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed + 50)
        nc, s = 8, 5
        tol = TolerancePolicy.for_dimension(nc)
        basis = np.linalg.qr(rng.standard_normal((nc, s)))[0]
        ka = rng.standard_normal((s, s))
        kb = rng.standard_normal((s, s))
        ac = spsd_certify(basis @ sym_part(ka @ ka.T + 0.2 * np.eye(s)) @ basis.T, tol)
        bc = spsd_certify(basis @ sym_part(kb @ kb.T + 0.2 * np.eye(s)) @ basis.T, tol)
        c1, c2 = analysis.spectral_equivalence_constants(ac, bc)
        d1, d2 = analysis.spectral_equivalence_constants(
            spsd_certify(ac.pinv, tol), spsd_certify(bc.pinv, tol))
        worst = max(worst, abs(c1 - 1.0 / d2), abs(c2 - 1.0 / d1))
    assert worst <= 1e-10, f"duality drift {worst:.3e}"
    _print_result(9, f"10 random pairs, max reciprocal drift {worst:.2e}")


def test_criterion_10_determinism(tmp_path):
    argv = ["analyze", "--problem", "neumann1d:16", "--smoother",
            "jacobi:0.6666666666666666", "--prolongation", "aggregate:4",
            "--coarse", "scale:2.0", "--seed", "3"]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(argv + ["--output", str(first)]) == 0
    assert main(argv + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    _print_result(10, "repeated analyze runs byte-identical")
