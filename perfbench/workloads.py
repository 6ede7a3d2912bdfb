"""The benchmark's workloads: inputs, the timed operation, and its checks.

Every workload calls twogrid through module attributes (`model.build_hierarchy`,
not a name imported into this file), so the recorder's rebinding sees each
call. A workload supplies:

* setup(): spec to ready state, timed as `setup_s`;
* inputs(state, k): the untimed inputs of operation k, derived from the seed;
* operation(state, inputs): the timed call, timed as `op_s`;
* check(state, inputs, output): a list of failure messages (empty when the
  output is correct), plus observations for the per-layer metrics.

Workloads run in a closed loop with one caller: operation k+1 starts when
operation k and its check have finished.
"""
from __future__ import annotations

import dataclasses
import hashlib
import tempfile
from pathlib import Path

import numpy as np

from twogrid import analysis, cli, corpus, linalg, model, solver

# Energy-error reduction every solve must reach.
SOLVE_TOL = 1e-10


def hierarchy_arrays(obj, seen: set | None = None) -> dict[str, int]:
    """nbytes of every array a hierarchy (a dataclass tree) holds, by field path.

    Lazily cached arrays are not dataclass fields and are not counted.
    """
    seen = set() if seen is None else seen
    sizes: dict[str, int] = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, np.ndarray):
            if id(value) not in seen:
                seen.add(id(value))
                sizes[field.name] = int(value.nbytes)
        elif dataclasses.is_dataclass(value):
            for key, size in hierarchy_arrays(value, seen).items():
                sizes[f"{field.name}.{key}"] = size
    return sizes


def sweep_arrays(h) -> dict[str, int]:
    """Bytes of operator arrays one exact sweep reads (computed, not measured).

    One itg_sweep with the exact coarse solve reads the null basis of A (the
    consistency check), A twice, M once, P twice (restriction and
    prolongation) and the Galerkin pseudoinverse once.
    """
    item = 8
    return {
        "A.null_basis": h.n * (h.n - h.r) * item,
        "A.matrix x2": 2 * h.A.matrix.nbytes,
        "M": h.M.nbytes,
        "P x2": 2 * h.P.nbytes,
        "Ac.pinv": h.Ac.pinv.nbytes,
    }


def route_gap(identity: float, ftg: float, oracle: float) -> float:
    return max(abs(identity - ftg), abs(identity - oracle), abs(ftg - oracle))


class Workload:
    """Base: one setup per run, no per-operation inputs, no extra steps."""

    name = ""
    # Set-ups per run, spread evenly over it (when not one per operation).
    setup_reps = 1
    # True when every operation rebuilds its state (and times that set-up).
    setup_per_op = False
    # Whether the operation runs two-grid sweeps at all.
    runs_sweeps = True

    def __init__(self, seed: int):
        self.seed = seed
        self.observations: dict[str, list] = {}

    def observe(self, key: str, value) -> None:
        self.observations.setdefault(key, []).append(value)

    def setup(self):
        raise NotImplementedError

    def inputs(self, state, k: int):
        return None

    def operation(self, state, inputs):
        raise NotImplementedError

    def check(self, state, inputs, output) -> list[str]:
        raise NotImplementedError

    def extra(self, state, workdir: Path) -> list[str] | None:
        """An untimed operation after the loop; returns failures, or None if absent."""
        return None

    def probe(self, state, recorder) -> None:
        """Traced-only calls that feed per-layer metrics."""

    def hierarchies(self, state) -> list:
        raise NotImplementedError


class AnalyzeWorkload(Workload):
    """neumann2d:24x24, jacobi 2/3, aggregate:2, Bc = 2 Ac, eps 0.3.

    Each operation rebuilds the hierarchy, as a user makes one report per
    hierarchy, so no cache on a hierarchy carries over between operations.
    """

    name = "analyze-2d"
    setup_per_op = True
    runs_sweeps = False
    omega = 2.0 / 3.0
    group = 2
    coarse_scale = 2.0
    epsilon = 0.3

    def __init__(self, seed: int, grid: int = 24):
        super().__init__(seed)
        self.spec = model.NeumannLaplacian2D(grid, grid)
        # The provenance the CLI echoes for the same run.
        self.meta = {
            "problem": f"neumann2d:{grid}x{grid}",
            "smoother": f"jacobi:{self.omega!r}",
            "prolongation": f"aggregate:{self.group}",
            "coarse": f"scale:{self.coarse_scale:g}",
            "seed": seed,
        }
        self.last_json: str | None = None

    def setup(self):
        a, p, _, _ = model.generate_problem(self.spec, group=self.group,
                                            seed=self.seed)
        h = model.build_hierarchy(a, p, model.WeightedJacobi(self.omega))
        bc = linalg.spsd_certify(self.coarse_scale * h.Ac.matrix, h.policy)
        return h, bc

    def operation(self, state, inputs):
        h, bc = state
        report = analysis.convergence_report(h, coarse=bc, epsilon=self.epsilon,
                                             meta=self.meta)
        return report, analysis.report_json(report)

    def check(self, state, inputs, output) -> list[str]:
        h, _ = state
        report, text = output
        tol = h.policy.match_tol
        failures = []
        identity, ftg, oracle = (report["factor_identity"], report["factor_ftg"],
                                 report["factor_oracle"])
        gap = route_gap(identity, ftg, oracle)
        self.observe("route_gap", gap)
        if gap > tol:
            failures.append(f"routes disagree by {gap:.3e} > {tol:.1e}")
        if not report["lower"] - tol <= identity <= report["upper"] + tol:
            failures.append("exact factor outside [lower, upper]")
        itg = report["factor_itg"]
        if not report["lower_itg"] - tol <= itg <= report["upper_itg"] + tol:
            failures.append("inexact factor outside [lower_itg, upper_itg]")
        if abs(itg - report["factor_itg_oracle"]) > tol:
            failures.append("factor_itg differs from factor_itg_oracle")
        digest = hashlib.sha256(text.encode("ascii")).hexdigest()
        self.observe("report_sha256", digest)
        if self.last_json is not None and text != self.last_json:
            failures.append("report JSON differs between identical operations")
        self.last_json = text
        return failures

    def cli_argv(self, output: Path) -> list[str]:
        return ["analyze", "--problem", self.meta["problem"],
                "--smoother", self.meta["smoother"],
                "--prolongation", self.meta["prolongation"],
                "--coarse", self.meta["coarse"],
                "--epsilon", repr(self.epsilon),
                "--seed", str(self.seed), "--output", str(output)]

    def extra(self, state, workdir: Path) -> list[str]:
        """CLI parity: `twogrid analyze` in-process must give the same bytes."""
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            path = Path(tmp) / "report.json"
            code = cli.main(self.cli_argv(path))
            text = path.read_text(encoding="ascii") if path.exists() else None
        if code != 0:
            return [f"cli analyze exited with {code}"]
        if text != self.last_json:
            return ["cli analyze JSON differs from report_json(convergence_report)"]
        return []

    def hierarchies(self, state) -> list:
        return [state[0]]


class SolveWorkload(Workload):
    """neumann2d:32x32, Gauss-Seidel, aggregate:4, exact coarse solve.

    Many right-hand sides per hierarchy: operation k draws u_ref and u0
    from (seed, k) and solves A u = A u_ref with `sweeps` exact two-grid
    sweeps. The hierarchy is built `setup_reps` times per run for setup_s;
    operations use the latest one.
    """

    name = "solve-2d"
    setup_reps = 3
    group = 4
    # Sweeps per solve. The solver reaches SOLVE_TOL after about 85 sweeps
    # (observed factor about 0.80); 120 leaves a margin of 0.80**35 = 4e-4.
    sweeps = 120
    probe_sweeps = 1200

    def __init__(self, seed: int, grid: int = 32):
        super().__init__(seed)
        self.spec = model.NeumannLaplacian2D(grid, grid)

    def setup(self):
        a, p, _, _ = model.generate_problem(self.spec, group=self.group,
                                            seed=self.seed)
        return model.build_hierarchy(a, p, model.GaussSeidel())

    def inputs(self, h, k: int):
        rng = np.random.default_rng([self.seed, k])
        u_ref = rng.standard_normal(h.n)
        u0 = rng.standard_normal(h.n)
        return u_ref, u0, h.A.matrix @ u_ref

    def operation(self, h, inputs):
        u_ref, u0, f = inputs
        return solver.iterate(h, f, u0, self.sweeps, variant="tg", u_ref=u_ref)

    def check(self, h, inputs, trace) -> list[str]:
        errors = trace.errors_A
        target = SOLVE_TOL * errors[0]
        reached = next((k for k, e in enumerate(errors) if e <= target), None)
        if reached is None:
            return [f"energy error {errors[-1] / errors[0]:.3e} of its initial "
                    f"value after {self.sweeps} sweeps, needs {SOLVE_TOL:.0e}"]
        self.observe("sweeps_to_tol", reached)
        return []

    def probe(self, h, recorder) -> None:
        """Direct tg_sweep calls, enough for a 99th percentile with 12 beyond it."""
        _, u, f = self.inputs(h, 0)
        with recorder.span("probe"):
            for _ in range(self.probe_sweeps):
                u = solver.tg_sweep(h, u, f)

    def hierarchies(self, h) -> list:
        return [h]


class VerifyWorkload(Workload):
    """The built-in 21-case corpus under `corpus.run_verification`.

    The seed redraws each case's reference solution (and so its right-hand
    side); the 21 matrices, smoothers and prolongations stay as built in.
    """

    name = "verify-corpus"
    # run_verification builds its own hierarchies; the set-up before each
    # operation times that building on its own.
    setup_per_op = True

    def __init__(self, seed: int, cases: tuple | None = None):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        base = corpus.builtin_corpus() if cases is None else cases
        self.cases = tuple(
            dataclasses.replace(case, seed=int(rng.integers(2 ** 31)))
            for case in base)

    def setup(self):
        return [corpus.build_case(case)[0] for case in self.cases]

    def operation(self, state, inputs):
        return corpus.run_verification(cases=self.cases)

    def check(self, state, inputs, results) -> list[str]:
        failed = [r for r in results if not r.passed]
        self.observe("checks", len(results))
        self.observe("checks_failed", len(failed))
        self.observe("route_gap", max(
            (r.measured for r in results
             if r.check in ("identity_vs_oracle", "identity_vs_quadratic_form")),
            default=0.0))
        return [r.line() for r in failed]

    def hierarchies(self, state) -> list:
        return list(state)


WORKLOADS = {w.name: w for w in (AnalyzeWorkload, SolveWorkload, VerifyWorkload)}
