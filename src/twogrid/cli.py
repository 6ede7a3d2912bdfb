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
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, corpus, mmio, solver
from .errors import EdgeError, TwoGridError
from .linalg import TolerancePolicy, spsd_certify
from .mmio import content_lines
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
    build_smoother,
    check_prolongation,
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
                return RandomSpsd(int(parts[0]), int(parts[1]), seed(parts[2]))
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
    """The edges of an edge-list file, one per content line, in file order."""
    if not path:
        raise ValueError("graph needs an edge-list file path")
    edges = []
    for lineno, line in content_lines(path, "#"):
        parts = line.split()
        try:
            if len(parts) not in (2, 3):
                raise ValueError("expected 'u v [weight]'")
            edges.append((int(parts[0]), int(parts[1]), *map(float, parts[2:])))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return tuple(edges)


def seed(text: str) -> int:
    """A seed: a non-negative integer, for --seed, its config key and random:."""
    value = int(text)
    if value < 0:
        raise ValueError(f"seed must be non-negative, got {value}")
    return value


def parse_smoother(text: str):
    kind, _, rest = text.partition(":")
    if kind == "jacobi":
        try:
            return WeightedJacobi(float(rest)) if rest else WeightedJacobi()
        except ValueError as exc:
            raise UsageError(f"bad Jacobi weight '{rest}'") from exc
    if text in ("gs", "gauss-seidel"):
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


def parse_coarse(text: str, h):
    """(Bc, eps) of a --coarse spec on hierarchy h: (None, None) for exact,
    (certified Bc, None) for bc:PATH and scale:C (an invalid Bc, an overflowed
    scale:C among them, is reported under the spec), and (None, E) for eps:E."""
    kind, _, rest = text.partition(":")
    if text == "exact":
        return None, None
    if kind == "eps":
        try:
            return None, float(rest)
        except ValueError as exc:
            raise UsageError(f"bad coarse accuracy '{rest}'") from exc
    if kind == "bc":
        if not rest:
            raise UsageError("coarse spec bc needs a matrix file path")
        matrix = mmio.read_matrix(rest)
    elif kind == "scale":
        try:
            scale = float(rest)
            if not math.isfinite(scale):
                raise ValueError(rest)
        except ValueError as exc:
            raise UsageError(f"bad coarse scale '{rest}'") from exc
        with np.errstate(over="ignore"):  # an overflow is named under the spec below
            matrix = scale * h.Ac.matrix
    else:
        raise UsageError(f"unknown coarse spec '{text}' "
                         "(expected exact, bc:PATH.mtx, scale:C, or eps:E)")
    try:
        return spsd_certify(matrix, h.policy), None
    except ValueError as exc:  # NotSpsdError, ShapeError or a non-finite entry
        raise type(exc)(f"coarse matrix '{text}' is invalid: {exc}") from exc


def policy_from_env(n: int) -> TolerancePolicy:
    policy = TolerancePolicy.for_dimension(n)
    for var in ("RANK_REL_TOL", "MATCH_TOL"):  # each overrides its lower-case field
        if text := os.environ.get(var):
            try:
                policy = dataclasses.replace(policy, **{var.lower(): float(text)})
            except ValueError as exc:
                raise UsageError(f"environment variable {var}: {exc}") from None
    return policy


def load_config(path: str) -> dict:
    """Flat key=value file; '#' starts a comment."""
    values = {}
    for lineno, line in content_lines(path, "#"):
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
    "format": "json",
    "variant": "auto",
}

# The allowed values of each choice option, for its flag and its config key.
_CHOICES = {
    "format": ("json", "csv"),
    "variant": ("auto", "tg", "stg", "itg"),
}

# The type of each non-string option, for its flag and its config key.
_TYPES = {"sweeps": int, "seed": seed, "epsilon": float}


def _finalize_args(args) -> None:
    """Fill unset options from the config file, then from the defaults.

    Config keys are the subcommand's own option names, and each value is
    checked like the matching flag's.
    """
    if getattr(args, "config", None):
        options = vars(args).keys() - {"command", "func", "config"}
        for key, value in load_config(args.config).items():
            if key not in options:
                raise UsageError(f"unknown config key '{key}'")
            if key in _CHOICES and value not in _CHOICES[key]:
                raise UsageError(
                    f"config key '{key}': invalid choice '{value}' "
                    f"(choose from {', '.join(_CHOICES[key])})")
            convert = _TYPES.get(key, str)
            try:
                value = convert(value)
            except ValueError:
                raise UsageError(f"config key '{key}': invalid {convert.__name__} "
                                 f"value '{value}'") from None
            if getattr(args, key) is None:
                setattr(args, key, value)
    for key, default in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, default)
    if getattr(args, "problem", None) is None:
        raise UsageError("--problem is required (or put it in the config file)")


def _build_problem(args):
    """(A, P, f, u_ref) with A certified under the environment's policy."""
    try:
        matrix = problem_matrix(parse_problem(args.problem))
    except EdgeError as exc:  # a graph: file, named by FILE:LINE at an invalid edge
        where = args.problem.partition(":")[2]
        if exc.index is not None:
            where += f":{content_lines(where, '#')[exc.index][0]}"
        raise UsageError(f"{where}: {exc}") from exc
    n = matrix.shape[0]
    a = spsd_certify(matrix, policy_from_env(n))
    p = build_prolongation(args.prolongation, n)
    u_ref = np.random.default_rng(args.seed).standard_normal(n)
    return a, p, a.matrix @ u_ref, u_ref


def _setup(args):
    """(h, f, u_ref) of an analyze or solve run."""
    _finalize_args(args)
    a, p, f, u_ref = _build_problem(args)
    return build_hierarchy(a, p, parse_smoother(args.smoother)), f, u_ref


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
    h, _, _ = _setup(args)
    bc, eps = parse_coarse(args.coarse, h)
    if eps is not None and args.epsilon is not None:
        raise UsageError(f"coarse spec '{args.coarse}' and epsilon {args.epsilon} "
                         "both give the coarse accuracy; give one of them")
    report = analysis.convergence_report(
        h, coarse=bc, epsilon=eps if args.epsilon is None else args.epsilon,
        meta=_meta(args))
    if args.format == "csv":
        _write_text(args.output, analysis.report_csv([report]))
    else:
        _write_text(args.output, analysis.report_json(report))
    return 0 if report["flags"]["equiv_cond_ok"] else 2


def cmd_solve(args) -> int:
    h, f, u_ref = _setup(args)
    coarse, eps = parse_coarse(args.coarse, h)
    if eps is not None:
        approx = solver.eps_perturbed_coarse(h, eps,
                                             np.random.default_rng([args.seed, 2]))
        coarse = solver.GeneralCoarse(approx, declared_eps=eps)
    variant = args.variant
    if variant == "auto":
        variant = "tg" if coarse is None else "itg"
    if variant == "itg" and coarse is None:
        coarse = h.Ac

    u0 = np.random.default_rng([args.seed, 1]).standard_normal(h.n)
    trace = solver.iterate(h, f, u0, args.sweeps, variant, coarse=coarse,
                           u_ref=u_ref)
    meta = {**_meta(args), "variant": variant}
    path = None
    if args.output:
        path = Path(args.output).with_suffix(".json")
        solver.write_trace_csv(trace, path.with_suffix(".csv"))
    _write_text(path, analysis.report_json(solver.trace_summary(trace, meta)))
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
    # analyze's checks that precede the hierarchy, so that no config is written
    # that analyze refuses; a Jacobi weight above its limit needs the
    # hierarchy's spectrum and is left to analyze
    build_smoother(parse_smoother(args.smoother), a)
    check_prolongation(p, a.n)

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    mmio.write_matrix(out / "A.mtx", a.matrix, "coordinate", "symmetric")
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
    sub.add_argument("--seed", type=_TYPES["seed"],
                     help="seed for u_ref and run randomness")
    sub.add_argument("--config", help="flat key=value config file; flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twogrid",
        description="Two-grid solvers and convergence analysis for symmetric "
                    "positive semidefinite systems.")
    subs = parser.add_subparsers(dest="command", required=True)

    analyze = subs.add_parser("analyze", help="convergence analysis report")
    _add_setup_arguments(analyze)
    analyze.add_argument("--epsilon", type=_TYPES["epsilon"],
                         help="general coarse-solver accuracy for the bound")
    analyze.add_argument("--output", help="report path (default: stdout)")
    analyze.add_argument("--format", choices=_CHOICES["format"])
    analyze.set_defaults(func=cmd_analyze)

    solve = subs.add_parser("solve", help="run sweeps and write the trace")
    _add_setup_arguments(solve)
    solve.add_argument("--sweeps", type=_TYPES["sweeps"], help="number of sweeps")
    solve.add_argument("--variant", choices=_CHOICES["variant"])
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
