"""Name the report fields that move between two source trees, and by how much.

    python3 tools/fieldmoves.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a `twogrid` package (a
checkout's `src`). In each tree, one subprocess builds the report of the
analyze-2d benchmark workload (`twogrid analyze` on neumann2d:24x24, Jacobi
2/3, aggregation by 2, Bc = 2 Ac, eps 0.3, seed 0) and the report of each of
the 21 corpus cases (Bc = 2 Ac, eps 0.3), and prints them as JSON. The two
sets are compared field by field, nested fields as `margins.intersection_sv`.
Each numeric field that moved is printed with its largest relative move
|new - old| / max(|old|, |new|) and its largest absolute move, each with the
case where it happens; any other changed value is printed as it reads in
both trees. BLAS runs on one thread, so the numbers do not depend on the
thread count of the host.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Before numpy loads, so that OpenBLAS starts with this thread count.
BLAS_THREADS = {var: "1" for var in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def build_reports() -> dict[str, dict]:
    """The 22 reports of the tree on sys.path, by case name."""
    # the argv of the analyze-2d workload, and the corpus reports
    from parity import ANALYZE_2D, corpus_reports

    from twogrid import cli

    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.json"
        code = cli.main([*ANALYZE_2D, "--output", str(path)])
        if code != 0:
            raise SystemExit(f"analyze-2d exited with {code}")
        reports["analyze-2d seed 0"] = json.loads(path.read_text(encoding="ascii"))
    for name, report in corpus_reports():
        reports[f"corpus {name}"] = report
    return reports


def reports_of(src: str) -> dict[str, dict]:
    """build_reports run in a subprocess on the tree `src`."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), **BLAS_THREADS)
    for var in ("RANK_REL_TOL", "MATCH_TOL"):  # the CLI's policy overrides
        env.pop(var, None)
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--dump"],
                          env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"building the reports of {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def flat(report: dict, prefix: str = "") -> dict:
    """The report's fields with nested ones as `outer.inner`."""
    out = {}
    for key, value in report.items():
        if isinstance(value, dict):
            out.update(flat(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def moves(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    """One line per moved field, and one per case that only one tree has."""
    lines = [f"case {case}: only in {'OLD' if case in old else 'NEW'}"
             for case in sorted(old.keys() ^ new.keys())]
    numeric: dict[str, list] = {}  # field -> [rel, rel case, abs, abs case]
    other: dict[str, str] = {}
    for case in sorted(old.keys() & new.keys()):
        a, b = flat(old[case]), flat(new[case])
        for field in sorted(a.keys() | b.keys()):
            x, y = a.get(field), b.get(field)
            if x == y:
                continue
            if is_number(x) and is_number(y):
                gap = abs(y - x)
                rel = gap / max(abs(x), abs(y))
                worst = numeric.setdefault(field, [0.0, "", 0.0, ""])
                if rel > worst[0]:
                    worst[:2] = rel, case
                if gap > worst[2]:
                    worst[2:] = gap, case
            else:
                other.setdefault(field, f"{field}: {x!r} -> {y!r} ({case})")
    for field, (rel, rel_case, gap, gap_case) in sorted(numeric.items()):
        lines.append(f"{field}: relative {rel:.2g} ({rel_case}), "
                     f"absolute {gap:.2g} ({gap_case})")
    lines.extend(line for _, line in sorted(other.items()))
    return lines


def main(argv: list[str]) -> int:
    if argv == ["--dump"]:
        print(json.dumps(build_reports()))
        return 0
    if len(argv) != 2:
        sys.stderr.write(f"usage: {Path(__file__).name} OLD_SRC NEW_SRC\n")
        return 2
    old, new = (reports_of(src) for src in argv)
    lines = moves(old, new)
    print("\n".join(lines) if lines else "no field moved")
    print(f"{len(old.keys() & new.keys())} reports compared, "
          f"{len(lines)} moved fields or unmatched cases")
    return 0


if __name__ == "__main__":
    os.environ.update(BLAS_THREADS)
    sys.exit(main(sys.argv[1:]))
