"""Run one workload, untraced or traced, and derive its metrics.

Untraced runs give the end-to-end metrics. Traced runs install the span
recorder around alternate operations (the others stay untraced, so the run
also measures tracing overhead) and give the per-layer metrics.
"""
from __future__ import annotations

import math
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path

from recorder import END, NAME, PARENT, ROOT, START, Recorder
from workloads import Workload, hierarchy_arrays, sweep_arrays

END_TO_END_UNITS = {
    "op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# Analysis functions reported with self time and calls per operation.
ANALYSIS_FUNCTIONS = (
    "convergence_report", "check_conditions", "exact_factor", "sigma_tg",
    "sigma_eigengap", "smoothing_floor", "exact_two_sided", "delta_tg",
    "ftg_matrix", "fitg_matrix", "seminorm_oracle", "inexact_linear_analysis",
    "general_epsilon_bound", "report_json",
)

# Per-layer metrics come from traced operations ("op" root spans) and traced
# set-ups ("setup" root spans), each total divided by the number of roots:
# - *_calls: calls per operation; linalg.*_s and analysis.*_s: self time per
#   operation; linalg.setup_* and model.build_hierarchy_s: per set-up.
# - model.generate_problem_s, model.build_smoother_s, corpus.build_case_s:
#   inclusive time per set-up; cli.analyze_s: inclusive time of the
#   in-process `twogrid analyze` (analyze-2d only).
# - solver.sweep_ms, solver.sweep_p99_ms: median and 99th percentile of
#   direct tg_sweep calls; solver.iterate_self_ms_per_sweep: iterate's own
#   time (error and residual tracking) per sweep.
# - *_computed: from array sizes or operation counts, not measured.
# - trace.overhead_s: median traced minus median untraced operation time.
# A layer that a workload does not exercise reads 0.
PER_LAYER_UNITS = {
    "linalg.eigensolve_calls": "count",
    "linalg.eigensolve_distinct_ratio": "ratio",
    "linalg.eigensolve_gflop_computed": "GFLOP",
    "linalg.eigensolve_self_s": "s",
    "linalg.spsd_certify_s": "s",
    "linalg.stacked_nullity_s": "s",
    "linalg.setup_eigensolve_calls": "count",
    "linalg.setup_eigensolve_gflop_computed": "GFLOP",
    "linalg.setup_eigensolve_self_s": "s",
    "linalg.setup_spsd_certify_s": "s",
    "model.generate_problem_s": "s",
    "model.build_hierarchy_s": "s",
    "model.build_smoother_s": "s",
    "model.hierarchy_mb_computed": "MB",
    **{f"analysis.{fn}_s": "s" for fn in ANALYSIS_FUNCTIONS},
    **{f"analysis.{fn}_calls": "count" for fn in ANALYSIS_FUNCTIONS},
    "analysis.route_gap": "abs",
    "solver.sweep_ms": "ms",
    "solver.sweep_p99_ms": "ms",
    "solver.iterate_self_ms_per_sweep": "ms",
    "solver.check_consistent_calls": "count",
    "solver.check_consistent_s": "s",
    "solver.sweep_mb_computed": "MB",
    "solver.sweeps_to_tol": "count",
    "corpus.build_case_s": "s",
    "corpus.checks": "count",
    "corpus.checks_failed": "count",
    "cli.analyze_s": "s",
    "trace.overhead_s": "s",
}

EIGENSOLVE_SPANS = ("numpy.eigh", "numpy.eigvalsh")


def eigensolve_flops(solver_name: str, n: int) -> int:
    """Flops of a dense symmetric eigen-solve of order n (computed, not measured).

    Golub and Van Loan, Matrix Computations, 4th ed., section 8.3: the
    symmetric QR algorithm takes about 4n^3/3 flops for eigenvalues only and
    about 9n^3 with eigenvectors. Whole numbers, so that sums are exact and
    repeat bit for bit.
    """
    return 9 * n ** 3 if solver_name == "eigh" else 4 * n ** 3 // 3


def tail_percentile(samples: list[float]) -> dict:
    """Sample count, median, and the highest whole percentile with at least
    ten samples beyond it (nearest-rank), or null when there are too few."""
    n = len(samples)
    out = {"samples": n, "median": statistics.median(samples) if n else None,
           "percentile": None, "value": None}
    q = math.floor(100.0 * (1.0 - 10.0 / n)) if n else 0
    if q >= 1:
        rank = math.ceil(q / 100.0 * n)
        out["percentile"] = q
        out["value"] = sorted(samples)[rank - 1]
    return out


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Measurements of one run of one workload."""

    def __init__(self, workload: Workload, seconds: float, trace: bool,
                 workdir: Path):
        self.workload = workload
        self.seconds = seconds
        self.recorder = Recorder() if trace else None
        self.workdir = workdir
        self.setup_times: list[float] = []
        self.op_times: list[float] = []
        self.traced_op_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setups = 0
        self.state = None

    def _call(self, root: str, traced: bool, func, *args):
        """Time func(*args); under the recorder, inside a root span."""
        if traced:
            with self.recorder.installed(), self.recorder.span(root):
                start = time.perf_counter()
                value = func(*args)
                return value, time.perf_counter() - start
        start = time.perf_counter()
        value = func(*args)
        return value, time.perf_counter() - start

    def _setup(self, traced: bool) -> None:
        self.state, elapsed = self._call("setup", traced, self.workload.setup)
        self.setups += 1
        if not traced:
            self.setup_times.append(elapsed)

    def _operation(self, k: int, traced: bool, setup: bool) -> None:
        w = self.workload
        self.attempted += 1
        try:
            if setup:
                self._setup(traced)
            inputs = w.inputs(self.state, k)
            output, elapsed = self._call("op", traced, w.operation,
                                         self.state, inputs)
            (self.traced_op_times if traced else self.op_times).append(elapsed)
            problems = w.check(self.state, inputs, output)
        except Exception as exc:  # a raising operation is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        self._record(f"op {k}", problems)

    def _record(self, label: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in problems)

    def execute(self) -> None:
        w = self.workload
        tracing = self.recorder is not None
        start = time.perf_counter()
        k = 0
        # Traced runs alternate traced and untraced operations, starting
        # traced; they need at least one of each for the overhead figure.
        while k < (2 if tracing else 1) or time.perf_counter() - start < self.seconds:
            # Set-ups spread over the run, so that their median, like the
            # operations', samples the whole run rather than its first seconds.
            elapsed = time.perf_counter() - start
            setup = w.setup_per_op or (
                self.setups < w.setup_reps
                and elapsed >= self.setups * self.seconds / w.setup_reps)
            self._operation(k, tracing and k % 2 == 0, setup)
            k += 1
        extra, _ = self._call("extra", tracing, w.extra, self.state, self.workdir)
        if extra is not None:
            self.attempted += 1
            self._record("extra", extra)
        if tracing:
            with self.recorder.installed():
                w.probe(self.state, self.recorder)

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        return {
            "op_s": statistics.median(self.op_times),
            "setup_s": statistics.median(self.setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "success_rate": 1.0 - self.failed / self.attempted,
        }

    def per_layer(self) -> dict[str, float]:
        rec = self.recorder
        w = self.workload
        spans = rec.spans
        selfs = rec.self_times()
        kind = [spans[s[ROOT]][NAME] for s in spans]
        hierarchies = w.hierarchies(self.state)
        roots = defaultdict(int)
        for s in spans:
            if s[PARENT] < 0:
                roots[s[NAME]] += 1
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for i, s in enumerate(spans):
            key = (kind[i], s[NAME])
            calls[key] += 1
            self_s[key] += selfs[i]
            total_s[key] += s[END] - s[START]

        def per(root, table, names):
            names = (names,) if isinstance(names, str) else names
            count = roots[root]
            return sum(table[(root, n)] for n in names) / count if count else 0.0

        gflop = defaultdict(int)
        digests = defaultdict(set)
        for idx, name, n, digest in rec.eigensolves:
            gflop[(kind[idx], "eigensolve")] += eigensolve_flops(name, n)
            digests[spans[idx][ROOT]].add(digest)
        op_roots = [i for i, s in enumerate(spans)
                    if s[PARENT] < 0 and s[NAME] == "op"]
        op_calls = sum(calls[("op", n)] for n in EIGENSOLVE_SPANS)
        distinct = sum(len(digests[i]) for i in op_roots)

        m = {
            "linalg.eigensolve_calls": per("op", calls, EIGENSOLVE_SPANS),
            "linalg.eigensolve_distinct_ratio": distinct / op_calls if op_calls else 0.0,
            "linalg.eigensolve_gflop_computed": per("op", gflop, "eigensolve") / 1e9,
            "linalg.eigensolve_self_s": per("op", self_s, EIGENSOLVE_SPANS),
            "linalg.spsd_certify_s": per("op", self_s, "linalg.spsd_certify"),
            "linalg.stacked_nullity_s": per("op", self_s, "linalg.stacked_nullity"),
            "linalg.setup_eigensolve_calls": per("setup", calls, EIGENSOLVE_SPANS),
            "linalg.setup_eigensolve_gflop_computed":
                per("setup", gflop, "eigensolve") / 1e9,
            "linalg.setup_eigensolve_self_s": per("setup", self_s, EIGENSOLVE_SPANS),
            "linalg.setup_spsd_certify_s": per("setup", self_s, "linalg.spsd_certify"),
            "model.generate_problem_s": per("setup", total_s, "model.generate_problem"),
            "model.build_hierarchy_s": per("setup", self_s, "model.build_hierarchy"),
            "model.build_smoother_s": per("setup", total_s, "model.build_smoother"),
            "model.hierarchy_mb_computed":
                sum(sum(hierarchy_arrays(h).values()) for h in hierarchies) / 2 ** 20,
        }
        for fn in ANALYSIS_FUNCTIONS:
            m[f"analysis.{fn}_s"] = per("op", self_s, f"analysis.{fn}")
            m[f"analysis.{fn}_calls"] = per("op", calls, f"analysis.{fn}")
        m["analysis.route_gap"] = max(w.observations.get("route_gap", [0.0]))

        sweeps = [s[END] - s[START] for s in spans if s[NAME] == "solver.tg_sweep"]
        iterate_sweeps = sum(1 for s in spans if s[NAME] == "solver.itg_sweep"
                             and s[PARENT] >= 0
                             and spans[s[PARENT]][NAME] == "solver.iterate")
        m.update({
            "solver.sweep_ms": 1e3 * statistics.median(sweeps) if sweeps else 0.0,
            "solver.sweep_p99_ms":
                1e3 * statistics.quantiles(sweeps, n=100)[98] if len(sweeps) > 1 else 0.0,
            "solver.iterate_self_ms_per_sweep":
                1e3 * self_s[("op", "solver.iterate")] / iterate_sweeps
                if iterate_sweeps else 0.0,
            "solver.check_consistent_calls": per("op", calls, "solver.check_consistent"),
            "solver.check_consistent_s": per("op", self_s, "solver.check_consistent"),
            "solver.sweep_mb_computed":
                statistics.mean(sum(sweep_arrays(h).values()) for h in hierarchies)
                / 2 ** 20 if w.runs_sweeps else 0.0,
            # Operations draw different inputs; the first one's are fixed by the seed.
            "solver.sweeps_to_tol": w.observations.get("sweeps_to_tol", [0])[0],
            "corpus.build_case_s": per("setup", total_s, "corpus.build_case"),
            "corpus.checks": max(w.observations.get("checks", [0])),
            "corpus.checks_failed": max(w.observations.get("checks_failed", [0])),
            "cli.analyze_s": per("extra", total_s, "cli.main"),
            "trace.overhead_s":
                statistics.median(self.traced_op_times) - statistics.median(self.op_times),
        })
        return m

    def details(self) -> dict:
        """Everything beyond the metric values, for the result file."""
        w = self.workload
        out = {
            "timings": {"op_s": tail_percentile(self.op_times),
                        "setup_s": tail_percentile(self.setup_times)},
            "error_rate": self.failed / self.attempted,
            "failures": self.failures[:20],
            "memory_bytes_computed": {
                "note": "array sizes, not measured traffic",
                "hierarchy": [hierarchy_arrays(h) for h in w.hierarchies(self.state)],
                "sweep": [sweep_arrays(h) for h in w.hierarchies(self.state)],
            },
        }
        if "report_sha256" in w.observations:
            out["report_sha256"] = sorted(set(w.observations["report_sha256"]))
        if self.recorder is not None:
            out["timings"]["traced_op_s"] = tail_percentile(self.traced_op_times)
            out["spans"] = len(self.recorder.spans)
        return out
