"""Print sha256 digests of the package's user-visible outputs as one JSON object.

Run against the tree under test, from any directory:

    PYTHONPATH=<tree>/src python3 tools/parity.py

A change meant to keep every number prints the same object as its parent, so
the two outputs are compared with `diff`. Covered: the `twogrid verify`
lines; `analyze` JSON and CSV and `solve` trace CSV and summary JSON for
four problems (one with full coarse rank), each with the exact, `scale:2`
and `eps:0.3` coarse solves, plus an `stg` solve; an `itg` solve with the
exact coarse solve (`Bc = Ac`) on neumann1d:32; the `generate` files; the
`analyze` JSON of three custom smoothers read from files the tool writes
(the zero smoother, whose condition fails with exit 2, and the positive
definite 1e-7 and 1e-10 * Jacobi 2/3, where a smoother form written as
1 - sigma^2 of the pre-smoother would lose its digits); the report JSON of
each of the 21 corpus cases (Bc = 2 Ac, eps 0.3); the report of the
analyze-2d benchmark workload at seed 0; and the `analyze` JSON, one
exact `solve` and one `stg` solve on neumann2d:16x16 with Gauss-Seidel and
aggregation by 4, large and sparse enough that A is certified by its
graph-Laplacian structure and that the sweep applies A, P and P^T in CSR.
In every Gauss-Seidel command M and M^T are band solves on tril(A), at
every size. Each digest also covers the exit code and the stdout and stderr
text of its command. BLAS runs on one thread, so the bytes do not depend on the
thread count of the host.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

# Before numpy loads, so that OpenBLAS starts with this thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The CLI reads these to override the tolerance policy.
for _var in ("RANK_REL_TOL", "MATCH_TOL"):
    os.environ.pop(_var, None)

import numpy as np  # noqa: E402

from twogrid import analysis, cli, corpus, linalg, mmio, model  # noqa: E402

PROBLEMS = (
    ("neumann2d:8x8", "jacobi"),
    ("neumann1d:32", "gs"),
    ("random:20:13:4", "gs"),
    ("random:6:2:0", "gs"),  # full coarse rank: s == r
)
COARSE = ("exact", "scale:2", "eps:0.3")
JACOBI_16 = np.diag((2.0 / 3.0) / np.diag(model.neumann_laplacian_1d(16)))
CUSTOM = (
    ("neumann1d:8", "zero", np.zeros((8, 8))),
    ("neumann1d:16", "1e-7*jacobi:2/3", 1e-7 * JACOBI_16),
    ("neumann1d:16", "1e-10*jacobi:2/3", 1e-10 * JACOBI_16),
)
ANALYZE_2D = ["analyze", "--problem", "neumann2d:24x24",
              "--smoother", "jacobi:0.6666666666666666",
              "--prolongation", "aggregate:2", "--coarse", "scale:2",
              "--epsilon", "0.3", "--seed", "0"]
ITG_EXACT = ["solve", "--problem", "neumann1d:32", "--smoother", "gs",
             "--variant", "itg", "--coarse", "exact"]
SPARSE_SETUP = ["--problem", "neumann2d:16x16", "--smoother", "gs",
                "--prolongation", "aggregate:4", "--coarse", "exact"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], outputs: list[str]) -> str:
    """Digest of one in-process CLI call: exit code, stdout, stderr, output files."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    parts = [f"exit {code}\n".encode(), out.getvalue().encode(),
             err.getvalue().encode()]
    for name in outputs:
        parts.append(f"== {name}\n".encode())
        parts.append(Path(name).read_bytes())
    return sha256(b"".join(parts))


def digests() -> dict[str, str]:
    result = {"verify": run(["verify"], [])}
    for problem, smoother in PROBLEMS:
        setup = ["--problem", problem, "--smoother", smoother]
        for coarse in COARSE:
            key = f"{problem} {smoother} {coarse}"
            result[f"analyze json {key}"] = run(
                ["analyze", *setup, "--coarse", coarse, "--output", "r.json"],
                ["r.json"])
            result[f"analyze csv {key}"] = run(
                ["analyze", *setup, "--coarse", coarse, "--format", "csv",
                 "--output", "r.csv"], ["r.csv"])
            result[f"solve {key}"] = run(
                ["solve", *setup, "--coarse", coarse, "--output", "t"],
                ["t.csv", "t.json"])
        result[f"solve stg {problem} {smoother}"] = run(
            ["solve", *setup, "--variant", "stg", "--output", "t"],
            ["t.csv", "t.json"])
        files = [f"gen/{name}" for name in
                 ("A.mtx", "P.mtx", "f.mtx", "u_ref.mtx", "problem.cfg")]
        result[f"generate {problem} {smoother}"] = run(
            ["generate", *setup, "--output-dir", "gen"], files)
    result["solve itg neumann1d:32 gs exact"] = run(
        [*ITG_EXACT, "--output", "t"], ["t.csv", "t.json"])
    for i, (problem, label, matrix) in enumerate(CUSTOM):
        path = f"m{i}.mtx"
        mmio.write_matrix(path, matrix)
        result[f"analyze json {problem} custom {label}"] = run(
            ["analyze", "--problem", problem, "--smoother", f"custom:{path}",
             "--output", "r.json"], ["r.json"])
    for case in corpus.builtin_corpus():
        h, _, _ = corpus.build_case(case)
        bc = linalg.spsd_certify(2.0 * h.Ac.matrix, h.policy)
        text = analysis.report_json(
            analysis.convergence_report(h, coarse=bc, epsilon=0.3))
        result[f"corpus {case.name}"] = sha256(text.encode("ascii"))
    result["analyze-2d seed 0"] = run([*ANALYZE_2D, "--output", "r.json"],
                                      ["r.json"])
    result["analyze json neumann2d:16x16 gs aggregate:4 exact"] = run(
        ["analyze", *SPARSE_SETUP, "--output", "r.json"], ["r.json"])
    result["solve neumann2d:16x16 gs aggregate:4 exact"] = run(
        ["solve", *SPARSE_SETUP, "--output", "t"], ["t.csv", "t.json"])
    result["solve stg neumann2d:16x16 gs aggregate:4"] = run(
        ["solve", *SPARSE_SETUP, "--variant", "stg", "--output", "t"],
        ["t.csv", "t.json"])
    return result


def main() -> None:
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # Relative output paths keep the directory name out of problem.cfg.
        os.chdir(tmp)
        try:
            result = digests()
        finally:
            os.chdir(start)
    print(json.dumps(result, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
