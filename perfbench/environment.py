"""The environment a result was measured in, recorded next to the metrics."""
from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np
import scipy


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="ascii", errors="replace").strip()
    except OSError:
        return None


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    loose = _read(root / ".git" / ref)
    if loose:
        return loose
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def cpu_model() -> str | None:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def last_level_cache() -> str | None:
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    return _read(caches[-1] / "size") if caches else None


def blas_build() -> dict:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {}


def environment(root: Path, thread_vars: dict[str, str]) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "last_level_cache": last_level_cache(),
        "blas_threads_set": thread_vars,
        "git_commit": git_commit(root),
        "bytes_note": ("*_mb_computed metrics are sums of array sizes, not "
                       "measured memory traffic; every array here fits in the "
                       "last-level cache listed above"),
    }
