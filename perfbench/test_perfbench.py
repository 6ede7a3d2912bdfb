"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import recorder  # noqa: E402
import workloads  # noqa: E402
from twogrid import corpus, linalg  # noqa: E402


def tiny(name: str, seed: int = 3) -> workloads.Workload:
    if name == "analyze-2d":
        return workloads.AnalyzeWorkload(seed, grid=4)
    if name == "solve-2d":
        return workloads.SolveWorkload(seed, grid=6)
    return workloads.VerifyWorkload(seed, cases=corpus.builtin_corpus()[:2])


def run(name: str, trace: bool, tmp_path: Path, seed: int = 3) -> measure.Run:
    r = measure.Run(tiny(name, seed), 0.05, trace, tmp_path)
    r.execute()
    return r


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    spec = declared()
    assert name in {w["name"] for w in spec["workloads"]}

    plain = run(name, False, tmp_path)
    assert plain.failed == 0, plain.failures
    e2e = plain.end_to_end()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END_UNITS
    assert set(e2e) == set(measure.END_TO_END_UNITS)
    assert all(math.isfinite(v) and v > 0 for v in e2e.values()), e2e

    traced = run(name, True, tmp_path)
    assert traced.failed == 0, traced.failures
    layers = traced.per_layer()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.PER_LAYER_UNITS
    assert set(layers) == set(measure.PER_LAYER_UNITS)
    assert all(math.isfinite(v) for v in layers.values()), layers


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_spans_nest_and_self_times_are_nonnegative(name, tmp_path):
    rec = run(name, True, tmp_path).recorder
    spans = rec.spans
    assert spans
    for i, span in enumerate(spans):
        assert span[recorder.START] <= span[recorder.END]
        parent = span[recorder.PARENT]
        if parent < 0:
            assert span[recorder.ROOT] == i
            continue
        assert parent < i
        outer = spans[parent]
        assert outer[recorder.START] <= span[recorder.START]
        assert span[recorder.END] <= outer[recorder.END]
        assert span[recorder.ROOT] == outer[recorder.ROOT]
    assert min(rec.self_times()) >= -1e-12


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_traced_runs_give_the_same_counts(name, tmp_path):
    first = run(name, True, tmp_path).per_layer()
    second = run(name, True, tmp_path).per_layer()
    counts = [k for k, unit in measure.PER_LAYER_UNITS.items()
              if unit not in ("s", "ms")]
    differ = {k: (first[k], second[k]) for k in counts if first[k] != second[k]}
    assert not differ


def test_self_time_excludes_children():
    rec = recorder.Recorder()
    inner = rec.wrap("inner", lambda: time.sleep(0.01))

    def body():
        inner()
        inner()
        time.sleep(0.01)

    with rec.span("op"):
        rec.wrap("outer", body)()
    names = [s[recorder.NAME] for s in rec.spans]
    assert names == ["op", "outer", "inner", "inner"]
    assert [s[recorder.PARENT] for s in rec.spans] == [-1, 0, 1, 1]
    assert [s[recorder.ROOT] for s in rec.spans] == [0, 0, 0, 0]
    selfs = rec.self_times()
    outer = rec.spans[1]
    children = sum(s[recorder.END] - s[recorder.START] for s in rec.spans[2:])
    assert selfs[1] == pytest.approx(outer[recorder.END] - outer[recorder.START] - children)
    assert min(selfs) >= 0.0 and selfs[1] >= 0.009


def test_eigensolve_digests_tell_repeated_inputs_apart():
    a = np.diag([1.0, 2.0, 3.0])
    original = np.linalg.eigvalsh
    rec = recorder.Recorder()
    with rec.installed(), rec.span("op"):
        np.linalg.eigvalsh(a)
        np.linalg.eigvalsh(a.copy())
        np.linalg.eigh(2.0 * a)
    assert np.linalg.eigvalsh is original
    assert [(name, n) for _, name, n, _ in rec.eigensolves] == [
        ("eigvalsh", 3), ("eigvalsh", 3), ("eigh", 3)]
    assert len({digest for *_, digest in rec.eigensolves}) == 2


def test_recorder_rebinds_every_binding_and_restores_it():
    original = linalg.spsd_certify
    bindings = [(module, attr) for name, module in list(sys.modules.items())
                if name.startswith("twogrid")
                for attr, value in vars(module).items() if value is original]
    assert len(bindings) > 1  # defined in linalg, imported by other modules
    rec = recorder.Recorder()
    with rec.installed():
        wrapped = {getattr(module, attr) for module, attr in bindings}
        assert len(wrapped) == 1 and original not in wrapped
        with rec.span("op"):
            linalg.spsd_certify(np.eye(3), linalg.TolerancePolicy.for_dimension(3))
    assert all(getattr(module, attr) is original for module, attr in bindings)
    assert [s[recorder.NAME] for s in rec.spans][:2] == ["op", "linalg.spsd_certify"]


def test_analyze_check_catches_a_wrong_report(tmp_path):
    w = tiny("analyze-2d")
    state = w.setup()
    report, text = w.operation(state, None)
    assert w.check(state, None, (report, text)) == []
    bad = dict(report, factor_ftg=report["factor_ftg"] + 1e-6)
    assert any("routes disagree" in f for f in w.check(state, None, (bad, text)))
    bad = dict(report, factor_itg=report["upper_itg"] + 1e-6)
    assert w.check(state, None, (bad, text))


def test_cli_parity_fails_on_different_bytes(tmp_path):
    w = tiny("analyze-2d")
    state = w.setup()
    w.check(state, None, w.operation(state, None))
    assert w.extra(state, tmp_path) == []
    w.last_json = w.last_json.replace('"seed"', '"seed "')
    assert w.extra(state, tmp_path)


def test_solve_check_needs_the_tolerance(tmp_path):
    w = tiny("solve-2d")
    h = w.setup()
    inputs = w.inputs(h, 0)
    assert w.check(h, inputs, w.operation(h, inputs)) == []
    w.sweeps = 2
    assert w.check(h, inputs, w.operation(h, inputs))


def test_seed_fixes_the_inputs():
    a = tiny("solve-2d", seed=5)
    h = a.setup()
    same = [x.tolist() for x in a.inputs(h, 7)]
    assert same == [x.tolist() for x in tiny("solve-2d", seed=5).inputs(h, 7)]
    assert same != [x.tolist() for x in tiny("solve-2d", seed=6).inputs(h, 7)]
    assert tiny("verify-corpus", 5).cases == tiny("verify-corpus", 5).cases
    assert tiny("verify-corpus", 5).cases != tiny("verify-corpus", 6).cases


def test_tail_percentile_keeps_ten_samples_beyond():
    assert measure.tail_percentile([1.0] * 5)["percentile"] is None
    stats = measure.tail_percentile([float(i) for i in range(1, 101)])
    assert stats["percentile"] == 90 and stats["value"] == 90.0
    assert stats["samples"] == 100


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *declared()["command"][1:], "--workload", "analyze-2d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
