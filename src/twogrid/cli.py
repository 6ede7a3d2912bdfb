"""Command-line front end.

Subcommands:

* analyze: build a hierarchy, run the convergence analysis, and write the
  report as JSON (or a CSV row). Exit code 2 flags a failed convergence
  condition (the report is still written); other errors, usage errors
  included, exit 1.
* solve: run sweeps and write the iteration trace (CSV) plus a JSON summary.
* verify: run the invariant suite on the built-in corpus, one line per
  check; exit 0 only if everything passes.
* generate: write a problem (A, P, f, u_ref) to MatrixMarket files plus a
  flat config so the run can be reproduced from disk.

Problem, smoother, prolongation, and coarse-solver specifications use the
compact colon syntax shown in --help. The environment variables
RANK_REL_TOL and MATCH_TOL override the tolerance policy.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, corpus, mmio, solver
from .errors import TwoGridError
from .linalg import TolerancePolicy, spsd_certify
from .model import (
    CustomSmoother,
    FromFile,
    GaussSeidel,
    GraphLaplacian,
    NeumannLaplacian1D,
    NeumannLaplacian2D,
    RandomSpsd,
    WeightedJacobi,
    aggregation_prolongation,
    build_hierarchy,
    problem_matrix,
)


class UsageError(TwoGridError, ValueError):
    """Malformed command-line specification."""


class _Parser(argparse.ArgumentParser):
    """Argparse errors raise UsageError (exit 1): exit 2 means a failed condition."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# spec string parsers


def parse_problem(text: str):
    kind, _, rest = text.partition(":")
    try:
        if kind == "neumann1d":
            return NeumannLaplacian1D(int(rest))
        if kind == "neumann2d":
            nx, _, ny = rest.partition("x")
            return NeumannLaplacian2D(int(nx), int(ny))
        if kind == "random":
            parts = rest.split(":")
            if len(parts) == 2:
                return RandomSpsd(int(parts[0]), int(parts[1]), seed=0)
            if len(parts) == 3:
                return RandomSpsd(int(parts[0]), int(parts[1]), int(parts[2]))
            raise ValueError("random needs N:RANK[:SEED]")
        if kind == "graph":
            return GraphLaplacian(edges=_read_edge_list(rest))
        if kind == "file":
            if not rest:
                raise ValueError("file needs a path")
            return FromFile(rest)
    except (ValueError, OSError) as exc:
        raise UsageError(f"bad problem spec '{text}': {exc}") from exc
    raise UsageError(
        f"unknown problem kind '{kind}' (expected neumann1d:N, neumann2d:NXxNY, "
        "random:N:RANK[:SEED], graph:EDGEFILE, or file:PATH.mtx)")


def _read_edge_list(path: str):
    if not path:
        raise ValueError("graph needs an edge-list file path")
    edges = []
    with open(path, "r", encoding="ascii") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}:{lineno}: expected 'u v [weight]'")
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
            edges.append((u, v, w))
    return tuple(edges)


def parse_smoother(text: str):
    kind, _, rest = text.partition(":")
    if kind == "jacobi":
        try:
            return WeightedJacobi(float(rest)) if rest else WeightedJacobi()
        except ValueError as exc:
            raise UsageError(f"bad Jacobi weight '{rest}'") from exc
    if kind in ("gs", "gauss-seidel"):
        return GaussSeidel()
    if kind == "custom":
        if not rest:
            raise UsageError("custom smoother needs a matrix file path")
        return CustomSmoother(mmio.read_matrix(rest))
    raise UsageError(
        f"unknown smoother '{text}' (expected jacobi[:omega], gs, or custom:PATH.mtx)")


def build_prolongation(text: str, n: int) -> np.ndarray:
    kind, _, rest = text.partition(":")
    if kind == "aggregate":
        try:
            return aggregation_prolongation(n, int(rest) if rest else 2)
        except ValueError as exc:
            raise UsageError(f"bad aggregation spec '{text}': {exc}") from exc
    return mmio.read_matrix(text)


def parse_coarse(text: str):
    """Returns (mode, value): ("exact", None), ("bc", path), ("scale", c), ("eps", e)."""
    kind, _, rest = text.partition(":")
    if kind == "exact":
        return "exact", None
    if kind == "bc":
        if not rest:
            raise UsageError("coarse spec bc needs a matrix file path")
        return "bc", rest
    if kind == "scale":
        try:
            return "scale", float(rest)
        except ValueError as exc:
            raise UsageError(f"bad coarse scale '{rest}'") from exc
    if kind == "eps":
        try:
            return "eps", float(rest)
        except ValueError as exc:
            raise UsageError(f"bad coarse accuracy '{rest}'") from exc
    raise UsageError(
        f"unknown coarse spec '{text}' (expected exact, bc:PATH.mtx, scale:C, or eps:E)")


def policy_from_env(n: int) -> TolerancePolicy:
    base = TolerancePolicy.for_dimension(n)
    rank_rel = os.environ.get("RANK_REL_TOL")
    match = os.environ.get("MATCH_TOL")
    return TolerancePolicy(
        rank_rel_tol=float(rank_rel) if rank_rel else base.rank_rel_tol,
        psd_slack=base.psd_slack,
        match_tol=float(match) if match else base.match_tol)


def load_config(path: str) -> dict:
    """Flat key=value file; '#' starts a comment."""
    values = {}
    with open(path, "r", encoding="ascii") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            values[key.strip()] = value.strip()
    return values


# ---------------------------------------------------------------------------
# shared setup


_DEFAULTS = {
    "smoother": "jacobi:0.6666666666666666",
    "prolongation": "aggregate:2",
    "coarse": "exact",
    "sweeps": 20,
    "seed": 0,
}


def _finalize_args(args) -> None:
    """Fill unset options from the config file, then from the defaults."""
    if getattr(args, "config", None):
        file_values = load_config(args.config)
        converters = {"sweeps": int, "seed": int, "epsilon": float}
        for key, value in file_values.items():
            if not hasattr(args, key):
                raise UsageError(f"unknown config key '{key}'")
            if getattr(args, key) is None:
                setattr(args, key, converters.get(key, str)(value))
    for key, default in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, default)
    if getattr(args, "problem", None) is None:
        raise UsageError("--problem is required (or put it in the config file)")


def _build_problem(args):
    """(A, P, f, u_ref) with A certified under the environment's policy."""
    matrix = problem_matrix(parse_problem(args.problem))
    n = matrix.shape[0]
    a = spsd_certify(matrix, policy_from_env(n))
    p = build_prolongation(args.prolongation, n)
    u_ref = np.random.default_rng(args.seed).standard_normal(n)
    return a, p, a.matrix @ u_ref, u_ref


def _coarse_matrix(mode, value, h):
    """Certified Bc for the bc:PATH and scale:C coarse specs, else None."""
    if mode == "bc":
        return spsd_certify(mmio.read_matrix(value), h.policy)
    if mode == "scale":
        return spsd_certify(value * h.Ac.matrix, h.policy)
    return None


def _meta(args) -> dict:
    return {
        "problem": args.problem,
        "smoother": args.smoother,
        "prolongation": args.prolongation,
        "coarse": getattr(args, "coarse", "exact"),
        "seed": args.seed,
    }


def _write_text(path, text: str) -> None:
    if path:
        with open(path, "w", encoding="ascii", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    _finalize_args(args)
    a, p, _, _ = _build_problem(args)
    h = build_hierarchy(a, p, parse_smoother(args.smoother))
    mode, value = parse_coarse(args.coarse)
    epsilon = args.epsilon
    if mode == "eps" and epsilon is None:
        epsilon = value

    report = analysis.convergence_report(h, coarse=_coarse_matrix(mode, value, h),
                                         epsilon=epsilon, meta=_meta(args))
    if args.format == "csv":
        _write_text(args.output, analysis.report_csv([report]))
    else:
        _write_text(args.output, analysis.report_json(report))
    return 0 if report["flags"]["equiv_cond_ok"] else 2


def cmd_solve(args) -> int:
    _finalize_args(args)
    a, p, f, u_ref = _build_problem(args)
    h = build_hierarchy(a, p, parse_smoother(args.smoother))
    mode, value = parse_coarse(args.coarse)
    bc = _coarse_matrix(mode, value, h)
    coarse_spec = None
    if bc is not None:
        coarse_spec = solver.LinearSpsdCoarse(bc)
    elif mode == "eps":
        approx = solver.eps_perturbed_coarse(h, value,
                                             np.random.default_rng([args.seed, 2]))
        coarse_spec = solver.GeneralCoarse(approx, declared_eps=value)
    variant = args.variant
    if variant == "auto":
        variant = "tg" if mode == "exact" else "itg"
    if variant != "itg" and coarse_spec is not None:
        raise UsageError(
            f"variant '{variant}' always uses the exact coarse solve; "
            "drop --coarse or use --variant itg")
    if coarse_spec is None:
        coarse_spec = solver.ExactCoarse()

    u0 = np.random.default_rng([args.seed, 1]).standard_normal(h.n)
    trace = solver.iterate(h, f, u0, args.sweeps, variant, coarse=coarse_spec,
                           u_ref=u_ref)
    meta = _meta(args)
    meta["variant"] = variant
    if args.output:
        base = Path(args.output)
        solver.write_trace_csv(trace, base.with_suffix(".csv"))
        solver.write_trace_summary(trace, base.with_suffix(".json"), meta=meta)
    else:
        sys.stdout.write(json.dumps(solver.trace_summary(trace, meta),
                                    sort_keys=True, indent=2) + "\n")
    return 0


def cmd_verify(args) -> int:
    results = corpus.run_verification(perturb_identity=args.perturb_identity)
    lines = [r.line() for r in results]
    failures = sum(not r.passed for r in results)
    lines.append(f"{'FAIL' if failures else 'PASS'} total "
                 f"checks={len(results)} failures={failures}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0 if failures == 0 else 1


def cmd_generate(args) -> int:
    _finalize_args(args)
    a, p, f, u_ref = _build_problem(args)

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    mmio.write_matrix(out / "A.mtx", a.matrix, symmetry="symmetric")
    mmio.write_matrix(out / "P.mtx", p, layout="coordinate")
    mmio.write_vector(out / "f.mtx", f)
    mmio.write_vector(out / "u_ref.mtx", u_ref)
    config = (f"problem = file:{out / 'A.mtx'}\n"
              f"prolongation = {out / 'P.mtx'}\n"
              f"smoother = {args.smoother}\n"
              f"seed = {args.seed}\n")
    (out / "problem.cfg").write_text(config, encoding="ascii")
    sys.stdout.write(f"wrote A.mtx P.mtx f.mtx u_ref.mtx problem.cfg to {out}\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_setup_arguments(sub, with_coarse=True):
    sub.add_argument("--problem", help="neumann1d:N | neumann2d:NXxNY | "
                     "random:N:RANK[:SEED] | graph:EDGEFILE | file:PATH.mtx")
    sub.add_argument("--smoother", help="jacobi[:omega] | gs | custom:PATH.mtx")
    sub.add_argument("--prolongation", help="aggregate:K | PATH.mtx")
    if with_coarse:
        sub.add_argument("--coarse", help="exact | bc:PATH.mtx | scale:C | eps:E")
    sub.add_argument("--seed", type=int, help="seed for u_ref and run randomness")
    sub.add_argument("--config", help="flat key=value config file; flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twogrid",
        description="Two-grid solvers and convergence analysis for symmetric "
                    "positive semidefinite systems.")
    subs = parser.add_subparsers(dest="command", required=True)

    analyze = subs.add_parser("analyze", help="convergence analysis report")
    _add_setup_arguments(analyze)
    analyze.add_argument("--epsilon", type=float,
                         help="general coarse-solver accuracy for the bound")
    analyze.add_argument("--output", help="report path (default: stdout)")
    analyze.add_argument("--format", choices=("json", "csv"), default="json")
    analyze.set_defaults(func=cmd_analyze)

    solve = subs.add_parser("solve", help="run sweeps and write the trace")
    _add_setup_arguments(solve)
    solve.add_argument("--sweeps", type=int, help="number of sweeps")
    solve.add_argument("--variant", choices=("auto", "tg", "stg", "itg"),
                       default="auto")
    solve.add_argument("--output", help="basename for .csv trace and .json summary")
    solve.set_defaults(func=cmd_solve)

    verify = subs.add_parser("verify", help="run the built-in invariant suite")
    verify.add_argument("--perturb-identity", type=float, default=0.0,
                        help="inject a bias to self-test the harness")
    verify.add_argument("--output", help="report path (default: stdout)")
    verify.set_defaults(func=cmd_verify)

    generate = subs.add_parser("generate", help="write a problem to files")
    _add_setup_arguments(generate, with_coarse=False)
    generate.add_argument("--output-dir", required=True)
    generate.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (TwoGridError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
