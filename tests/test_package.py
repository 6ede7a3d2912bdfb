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


def test_dense_work_never_imports_scipy_sparse():
    # scipy.sparse is loaded only for an operator the sweep applies in CSR;
    # set-up, analysis and the corpus (n <= 64, every sweep dense) need none
    script = textwrap.dedent("""
        import sys
        from twogrid import (NeumannLaplacian1D, WeightedJacobi, build_hierarchy,
                             convergence_report, generate_problem)
        from twogrid.corpus import run_verification
        a, p, _, _ = generate_problem(NeumannLaplacian1D(16), group=2, seed=0)
        h = build_hierarchy(a, p, WeightedJacobi(2.0 / 3.0))
        convergence_report(h, coarse=2.0 * h.Ac.matrix, epsilon=0.3)
        assert all(r.passed for r in run_verification())
        print(sorted(m for m in sys.modules if m.startswith("scipy.sparse")))
    """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
