"""Print sha256 digests of the package's user-visible outputs as one JSON object.

Run against the tree under test, from any directory:

    PYTHONPATH=<tree>/src python3 tools/parity.py

A change meant to keep every number prints the same object as its parent, so
the two outputs are compared with `diff`. Covered: the `twogrid verify`
lines; `analyze` JSON and CSV and `solve` trace CSV and summary JSON for
four problems (one with full coarse rank), each with the exact, `scale:2`
and `eps:0.3` coarse solves, plus an `stg` solve; an `itg` solve with the
exact coarse solve (`Bc = Ac`) on neumann1d:32; the `generate` files; the
`analyze` JSON of four custom smoothers read from files the tool writes
(the zero smoother, whose condition fails with exit 2; the positive
definite 1e-7 and 1e-10 * Jacobi 2/3, where a smoother form written as
1 - sigma^2 of the pre-smoother would lose its digits; and the nonsymmetric
1e-10 * Gauss-Seidel, the dense inverse of tril(A), whose Mtilde differs
from its Mbar, so that sigma_tg and delta_tg read compressions of a form
the smoother form does not hold, at the same risk); the report JSON of
each of the 21 corpus cases (Bc = 2 Ac, eps 0.3); the report of the
analyze-2d benchmark workload at seed 0; and the `analyze` JSON, one
exact `solve`, one `stg` solve and the `generate` files on neumann2d:16x16
with Gauss-Seidel and aggregation by 4, large and sparse enough that A and
P are held in CSR from the start, A is certified by its graph-Laplacian
structure and the sweep applies A, P and P^T in CSR;
and the `analyze` JSON and one exact `solve` on `graph:edges.txt`, an edge
file the tool writes: 2- and 3-column lines, one edge listed twice (the
second time reversed) and two components; the `analyze --config` JSON and
one `solve --config` of a `generate neumann2d:8x8 jacobi` round trip
through a relative directory; the `analyze` JSON of neumann2d:12x12 with
Jacobi, whose M is held in CSR and whose Mbar, of order 144, is solved in
full; and four commands that fail with one error line: a `graph:` file
with a non-finite weight and one whose weighted degree overflows (each
named by FILE:LINE), `--coarse scale:nan` and `--smoother jacobi:inf`;
and one exact `solve` on each of two inputs above the 2^14-entry gate that
are held and swept dense: a custom block Jacobi M on neumann2d:16x16 (0.5
times the inverse of each 2 x 2 diagonal block of A) and a `file:`
coordinate matrix, that Laplacian plus 0.01 I, which is no Laplacian and so
is certified by eigh; and the `analyze` JSON of that custom M, whose dense
Mbar of order 256 is read by Lanczos. In every Gauss-Seidel command M and
M^T are band solves on tril(A), at every size. One digest is not of a
command: the bytes of one `tg` and one `stg` sweep of a block of three
seeded start vectors on neumann2d:16x16 with Gauss-Seidel and aggregation
by 4, the solver's block kernel on CSR A and P and band-solve M.
Each digest also covers the exit code and the stdout and stderr text of its
command. BLAS runs on one thread, so the bytes do not depend on the thread
count of the host.
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

from twogrid import analysis, cli, corpus, linalg, mmio, model, solver  # noqa: E402

PROBLEMS = (
    ("neumann2d:8x8", "jacobi"),
    ("neumann1d:32", "gs"),
    ("random:20:13:4", "gs"),
    ("random:6:2:0", "gs"),  # full coarse rank: s == r
)
COARSE = ("exact", "scale:2", "eps:0.3")
LAPLACIAN_16 = model.neumann_laplacian_1d(16)
JACOBI_16 = np.diag((2.0 / 3.0) / np.diag(LAPLACIAN_16))
GAUSS_SEIDEL_16 = np.linalg.inv(np.tril(LAPLACIAN_16))
CUSTOM = (
    ("neumann1d:8", "zero", np.zeros((8, 8))),
    ("neumann1d:16", "1e-7*jacobi:2/3", 1e-7 * JACOBI_16),
    ("neumann1d:16", "1e-10*jacobi:2/3", 1e-10 * JACOBI_16),
    ("neumann1d:16", "1e-10*gs", 1e-10 * GAUSS_SEIDEL_16),
)
ANALYZE_2D = ["analyze", "--problem", "neumann2d:24x24",
              "--smoother", "jacobi:0.6666666666666666",
              "--prolongation", "aggregate:2", "--coarse", "scale:2",
              "--epsilon", "0.3", "--seed", "0"]
ITG_EXACT = ["solve", "--problem", "neumann1d:32", "--smoother", "gs",
             "--variant", "itg", "--coarse", "exact"]
SPARSE_SETUP = ["--problem", "neumann2d:16x16", "--smoother", "gs",
                "--prolongation", "aggregate:4", "--coarse", "exact"]
GENERATED = [f"gen/{name}" for name in
             ("A.mtx", "P.mtx", "f.mtx", "u_ref.mtx", "problem.cfg")]
# A weighted path 0 - ... - 4, with edge 0 - 1 listed twice, and a triangle.
EDGE_FILE = """# u v [weight]
0 1 2.0
1 2
2 3 0.5
3 4
1 0 1.5
5 6
6 7 3.0
7 5
"""
GRAPH_SETUP = ["--problem", "graph:edges.txt", "--smoother", "gs",
               "--coarse", "exact"]
# The third edge has a non-finite weight; it is on line 4.
BAD_EDGE_FILE = "# u v [weight]\n0 1\n1 2 2.0\n2 3 nan\n"
# The degree of node 1 overflows; its first edge is on line 1.
OVERFLOW_EDGE_FILE = "0 1 1e308\n1 2 1e308\n"
ERRORS = {
    "graph:bad-edges.txt": ["--problem", "graph:bad-edges.txt"],
    "graph:overflow-edges.txt": ["--problem", "graph:overflow-edges.txt"],
    "--coarse scale:nan": ["--problem", "neumann1d:8", "--coarse", "scale:nan"],
    "--smoother jacobi:inf": ["--problem", "neumann1d:8", "--smoother", "jacobi:inf"],
}


def write_large_dense_inputs() -> None:
    """block-jacobi.mtx and shifted.mtx, the two inputs held dense above the gate."""
    a = model.neumann_laplacian_2d(16, 16).toarray()
    m = np.zeros_like(a)
    for k in range(0, a.shape[0], 2):
        m[k:k + 2, k:k + 2] = 0.5 * np.linalg.inv(a[k:k + 2, k:k + 2])
    mmio.write_matrix("block-jacobi.mtx", m, "coordinate")
    mmio.write_matrix("shifted.mtx", a + 0.01 * np.eye(a.shape[0]), "coordinate",
                      "symmetric")


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


def block_sweeps() -> str:
    """Digest of a tg and an stg sweep of one 3-column block of start vectors."""
    a, p, f, _ = model.generate_problem(model.NeumannLaplacian2D(16, 16), group=4)
    h = model.build_hierarchy(a, p, model.GaussSeidel())
    u0 = np.random.default_rng(0).standard_normal((h.n, 3))
    return sha256(solver.tg_sweep(h, u0, f).tobytes()
                  + solver.stg_sweep(h, u0, f).tobytes())


def corpus_reports():
    """(case name, report) of each of the 21 corpus cases, Bc = 2 Ac and eps 0.3:
    the one builder of the corpus reports this tool and fieldmoves.py read."""
    for case in corpus.builtin_corpus():
        h, _, _ = corpus.build_case(case)
        bc = linalg.spsd_certify(2.0 * h.Ac.matrix, h.policy)
        yield case.name, analysis.convergence_report(h, coarse=bc, epsilon=0.3)


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
        result[f"generate {problem} {smoother}"] = run(
            ["generate", *setup, "--output-dir", "gen"], GENERATED)
    result["solve itg neumann1d:32 gs exact"] = run(
        [*ITG_EXACT, "--output", "t"], ["t.csv", "t.json"])
    for i, (problem, label, matrix) in enumerate(CUSTOM):
        path = f"m{i}.mtx"
        mmio.write_matrix(path, matrix)
        result[f"analyze json {problem} custom {label}"] = run(
            ["analyze", "--problem", problem, "--smoother", f"custom:{path}",
             "--output", "r.json"], ["r.json"])
    for name, report in corpus_reports():
        text = analysis.report_json(report)
        result[f"corpus {name}"] = sha256(text.encode("ascii"))
    result["analyze-2d seed 0"] = run([*ANALYZE_2D, "--output", "r.json"],
                                      ["r.json"])
    result["analyze json neumann2d:16x16 gs aggregate:4 exact"] = run(
        ["analyze", *SPARSE_SETUP, "--output", "r.json"], ["r.json"])
    result["solve neumann2d:16x16 gs aggregate:4 exact"] = run(
        ["solve", *SPARSE_SETUP, "--output", "t"], ["t.csv", "t.json"])
    result["solve stg neumann2d:16x16 gs aggregate:4"] = run(
        ["solve", *SPARSE_SETUP, "--variant", "stg", "--output", "t"],
        ["t.csv", "t.json"])
    result["generate neumann2d:16x16 gs aggregate:4"] = run(
        ["generate", *SPARSE_SETUP[:-2], "--output-dir", "gen"], GENERATED)
    result["block sweeps tg stg neumann2d:16x16 gs aggregate:4"] = block_sweeps()
    Path("edges.txt").write_text(EDGE_FILE, encoding="ascii")
    result["analyze json graph:edges.txt gs exact"] = run(
        ["analyze", *GRAPH_SETUP, "--output", "r.json"], ["r.json"])
    result["solve graph:edges.txt gs exact"] = run(
        ["solve", *GRAPH_SETUP, "--output", "t"], ["t.csv", "t.json"])
    run(["generate", "--problem", "neumann2d:8x8", "--smoother", "jacobi",
         "--output-dir", "roundtrip"], [])
    result["analyze json --config roundtrip/problem.cfg"] = run(
        ["analyze", "--config", "roundtrip/problem.cfg", "--output", "r.json"],
        ["r.json"])
    result["solve --config roundtrip/problem.cfg"] = run(
        ["solve", "--config", "roundtrip/problem.cfg", "--output", "t"],
        ["t.csv", "t.json"])
    result["analyze json neumann2d:12x12 jacobi"] = run(
        ["analyze", "--problem", "neumann2d:12x12", "--smoother", "jacobi",
         "--output", "r.json"], ["r.json"])
    Path("bad-edges.txt").write_text(BAD_EDGE_FILE, encoding="ascii")
    Path("overflow-edges.txt").write_text(OVERFLOW_EDGE_FILE, encoding="ascii")
    for label, setup in ERRORS.items():
        result[f"error analyze {label}"] = run(["analyze", *setup], [])
    write_large_dense_inputs()
    block_jacobi = ["--problem", "neumann2d:16x16", "--smoother",
                    "custom:block-jacobi.mtx"]
    result["analyze json neumann2d:16x16 custom 0.5*block-jacobi:2"] = run(
        ["analyze", *block_jacobi, "--output", "r.json"], ["r.json"])
    result["solve neumann2d:16x16 custom 0.5*block-jacobi:2"] = run(
        ["solve", *block_jacobi, "--output", "t"], ["t.csv", "t.json"])
    result["solve file:shifted.mtx jacobi"] = run(
        ["solve", "--problem", "file:shifted.mtx", "--output", "t"],
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
