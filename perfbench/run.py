"""Benchmark of the twogrid package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. Workloads:

* analyze-2d: convergence_report + report_json on neumann2d:24x24, Jacobi
  2/3, pairwise aggregation, Bc = 2 Ac, eps 0.3; set-up rebuilt per report.
  One in-process `twogrid analyze` on the same spec must give the same bytes.
* solve-2d: 120 exact two-grid sweeps per right-hand side on neumann2d:32x32,
  Gauss-Seidel, aggregation by 4; three set-ups per run, many solves.
* verify-corpus: corpus.run_verification on the 21 built-in cases, after
  building their hierarchies with corpus.build_case.

With --trace 0 the last stdout line carries the end-to-end metrics: op_s
(median time of the workload's operation), setup_s (median time from spec
to ready state), peak_rss_mb and success_rate. With --trace 1 it carries the
per-layer metrics from a run with the span recorder installed on alternate
operations. The line before it, and perfbench/out/, hold the details:
sample counts, tail percentiles, environment, report digest and spans.

BLAS runs on one thread in this process only (single-threaded baseline;
steadier on a shared host). Exits non-zero without a result when the
package source is missing.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = {var: "1" for var in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="twogrid benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Before numpy loads, so that OpenBLAS starts with this thread count.
    os.environ.update(BLAS_THREADS)
    if not (ROOT / "src" / "twogrid" / "__init__.py").is_file():
        sys.stderr.write(f"error: no twogrid package under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import measure
    from environment import environment
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload '{args.workload}' "
                         f"(expected one of {', '.join(WORKLOADS)})\n")
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    run = measure.Run(workload, args.seconds, bool(args.trace), OUT)
    run.execute()

    if args.trace:
        values, units = run.per_layer(), measure.PER_LAYER_UNITS
    else:
        values, units = run.end_to_end(), measure.END_TO_END_UNITS
    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "environment": environment(ROOT, BLAS_THREADS), **run.details()}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        with gzip.open(OUT / f"{stem}-spans.jsonl.gz", "wt", encoding="ascii",
                       compresslevel=1) as handle:
            for span in run.recorder.spans:
                handle.write(json.dumps(span) + "\n")

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
