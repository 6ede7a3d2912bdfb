"""In-memory span recorder for the twogrid benchmark.

The recorder wraps functions by rebinding module attributes, so the program
under test is not edited. Each call of a wrapped function becomes one span
(name, start, end, parent, root) kept in a list; the list is written out
once the run ends. A span's self time is its duration minus the durations of
its direct children, which tile a sub-interval of it because the benchmark
runs in a single thread.
"""
from __future__ import annotations

import functools
import hashlib
import sys
import time
import types
from contextlib import contextmanager

import numpy as np

# Field positions of a span record.
NAME, START, END, PARENT, ROOT = range(5)

# Names of the eigen-solver entry points the program calls.
EIGENSOLVERS = ("eigh", "eigvalsh")

# Input validation and symmetrization helpers, called thousands of times per
# corpus run at O(n^2) cost each. They stay unwrapped to keep tracing cheap;
# their time counts toward the caller's self time.
UNTRACED = frozenset({"as_matrix", "as_vector", "sym_part", "a_seminorm"})


class Recorder:
    """Collects spans and eigen-solve inputs while it is installed."""

    def __init__(self):
        self.spans: list[list] = []
        # (span index, solver name, matrix order, digest of the input bytes)
        self.eigensolves: list[tuple[int, str, int, str]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        root = self.spans[parent][ROOT] if parent >= 0 else idx
        self.spans.append([name, time.perf_counter(), None, parent, root])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span (a root span at top level)."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def wrap_eigensolver(self, name: str, func):
        """Wrap a numpy eigen-solver, recording its order and an input digest.

        Hashing the input runs in its own `trace.hash` span so that it is
        charged to tracing, not to the caller's or the solver's self time.
        """
        @functools.wraps(func)
        def traced(a, *args, **kwargs):
            with self.span("trace.hash"):
                arr = np.ascontiguousarray(a)
                digest = hashlib.sha1(arr.view(np.uint8).reshape(-1))
                digest.update(repr((arr.shape, arr.dtype.str)).encode())
            idx = self._open(f"numpy.{name}")
            try:
                return func(a, *args, **kwargs)
            finally:
                self._close(idx)
                self.eigensolves.append(
                    (idx, name, int(arr.shape[-1]), digest.hexdigest()))
        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public twogrid functions in every namespace that binds them.

        A function imported with `from .linalg import spsd_certify` is bound
        in the importing module too, so each binding is replaced with the
        same wrapper; calls through any module then land in one span name.
        Also wraps numpy's symmetric eigen-solvers and the triangular solve
        that builds the Gauss-Seidel smoother.
        """
        if self._patches:
            raise RuntimeError("recorder is already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "twogrid" or name.startswith("twogrid."))
                   and isinstance(m, types.ModuleType)]
        wrappers: dict[object, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or attr in UNTRACED
                        or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith("twogrid.")):
                    continue
                if value not in wrappers:
                    layer = value.__module__.rsplit(".", 1)[-1]
                    wrappers[value] = self.wrap(f"{layer}.{value.__name__}", value)
                self._patch(module, attr, wrappers[value])
        for name in EIGENSOLVERS:
            self._patch(np.linalg, name,
                        self.wrap_eigensolver(name, getattr(np.linalg, name)))
        model = sys.modules["twogrid.model"]
        self._patch(model, "solve_triangular",
                    self.wrap("scipy.solve_triangular", model.solve_triangular))

    def uninstall(self) -> None:
        """Restore every binding replaced by install, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- derived quantities ----------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the summed durations of direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [span[END] - span[START] - child[i]
                for i, span in enumerate(self.spans)]
