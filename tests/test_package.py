"""Tests for the package's public namespace."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import twogrid

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_resolves():
    missing = [name for name in twogrid.__all__ if not hasattr(twogrid, name)]
    assert missing == []
    assert len(set(twogrid.__all__)) == len(twogrid.__all__)


def loaded_scipy_sparse(script: str) -> str:
    """The scipy.sparse modules loaded after running `script`, as printed."""
    script = textwrap.dedent(script) + textwrap.dedent("""
        import sys
        print(sorted(m for m in sys.modules if m.startswith("scipy.sparse")))
    """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_dense_work_never_imports_scipy_sparse():
    # scipy.sparse is loaded only for an operator the sweep applies in CSR;
    # set-up, analysis and the corpus (n <= 64, every sweep dense) need none
    assert loaded_scipy_sparse("""
        from twogrid import (NeumannLaplacian1D, WeightedJacobi, build_hierarchy,
                             convergence_report, generate_problem)
        from twogrid.corpus import run_verification
        a, p, _, _ = generate_problem(NeumannLaplacian1D(16), group=2, seed=0)
        h = build_hierarchy(a, p, WeightedJacobi(2.0 / 3.0))
        convergence_report(h, coarse=2.0 * h.Ac.matrix, epsilon=0.3)
        assert all(r.passed for r in run_verification())
    """) == "[]"


def test_band_solve_never_imports_scipy_sparse_linalg():
    # a large Gauss-Seidel solve applies A and P in CSR and M as a LAPACK
    # band solve; scipy.sparse.linalg is never loaded
    loaded = loaded_scipy_sparse("""
        from twogrid import (GaussSeidel, NeumannLaplacian2D, build_hierarchy,
                             generate_problem, iterate)
        from twogrid.model import LowerBandSolve
        a, p, f, u_ref = generate_problem(NeumannLaplacian2D(16, 16), group=4, seed=0)
        h = build_hierarchy(a, p, GaussSeidel())
        iterate(h, f, 0.0 * f, 3, "stg", u_ref=u_ref)
        assert type(h.M) is type(h.M.T) is LowerBandSolve
    """)
    assert "'scipy.sparse'" in loaded
    assert "scipy.sparse.linalg" not in loaded


def test_reports_below_the_end_gate_never_import_scipy_sparse_linalg():
    # a corpus case and a 12 x 12 grid (A held in CSR, r = 143 below
    # END_MIN_ORDER) read every spectrum end by a dense solve: no ARPACK
    loaded = loaded_scipy_sparse("""
        from twogrid import (GaussSeidel, NeumannLaplacian2D, build_hierarchy,
                             convergence_report, generate_problem)
        from twogrid import corpus
        case = corpus.builtin_corpus()[-1]
        h, _, _ = corpus.build_case(case)
        convergence_report(h, coarse=2.0 * h.Ac.matrix, epsilon=0.3)
        a, p, _, _ = generate_problem(NeumannLaplacian2D(12, 12), group=4, seed=0)
        h = build_hierarchy(a, p, GaussSeidel())
        convergence_report(h, coarse=2.0 * h.Ac.matrix, epsilon=0.3)
    """)
    assert "'scipy.sparse'" in loaded
    assert "scipy.sparse.linalg" not in loaded
