"""MatrixMarket reader and writer for dense real matrices, plus a vector writer.

Supports the coordinate and array formats with general or symmetric storage
(1-based indices). Symmetric storage is honored on read and expanded to a
full dense array. Values are written with 17 significant digits so float64
content round-trips exactly.
"""
from __future__ import annotations

import numpy as np

from .errors import MatrixMarketError
from .linalg import as_matrix

_HEADER_PREFIX = "%%matrixmarket"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def read_matrix(path) -> np.ndarray:
    """Read a real matrix from a MatrixMarket file as a dense float64 array."""
    with open(path, "r", encoding="ascii") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise MatrixMarketError(f"{path}: empty file")

    header = lines[0].strip().lower().split()
    if len(header) != 5 or header[0] != _HEADER_PREFIX or header[1] != "matrix":
        raise MatrixMarketError(f"{path}:1: not a MatrixMarket matrix header")
    _, _, layout, field, symmetry = header
    if layout not in ("coordinate", "array"):
        raise MatrixMarketError(f"{path}:1: unsupported format '{layout}'")
    if field not in ("real", "integer"):
        raise MatrixMarketError(f"{path}:1: unsupported field '{field}' (real expected)")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(f"{path}:1: unsupported symmetry '{symmetry}'")

    # strip comments and blanks, remembering original line numbers
    body = [(i + 1, ln.strip()) for i, ln in enumerate(lines[1:], start=1)
            if ln.strip() and not ln.strip().startswith("%")]
    if not body:
        raise MatrixMarketError(f"{path}: missing size line")
    size_lineno, size_line = body[0]
    entries = body[1:]

    if layout == "coordinate":
        parts = size_line.split()
        if len(parts) != 3:
            raise MatrixMarketError(
                f"{path}:{size_lineno}: coordinate size line needs 'rows cols nnz'")
        try:
            rows, cols, nnz = (int(p) for p in parts)
        except ValueError as exc:
            raise MatrixMarketError(f"{path}:{size_lineno}: bad size line") from exc
        if rows < 1 or cols < 1 or nnz < 0:
            raise MatrixMarketError(f"{path}:{size_lineno}: nonpositive dimensions")
        if len(entries) != nnz:
            raise MatrixMarketError(
                f"{path}: expected {nnz} entries, found {len(entries)}")
        out = np.zeros((rows, cols))
        for lineno, ln in entries:
            parts = ln.split()
            if len(parts) != 3:
                raise MatrixMarketError(
                    f"{path}:{lineno}: coordinate entry needs 'row col value'")
            try:
                i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise MatrixMarketError(f"{path}:{lineno}: bad entry") from exc
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise MatrixMarketError(
                    f"{path}:{lineno}: index ({i}, {j}) outside {rows} x {cols}")
            out[i - 1, j - 1] += v
            if symmetry == "symmetric" and i != j:
                out[j - 1, i - 1] += v
        if not np.isfinite(out).all():
            raise MatrixMarketError(f"{path}: non-finite values")
        return out

    parts = size_line.split()
    if len(parts) != 2:
        raise MatrixMarketError(f"{path}:{size_lineno}: array size line needs 'rows cols'")
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise MatrixMarketError(f"{path}:{size_lineno}: bad size line") from exc
    if rows < 1 or cols < 1:
        raise MatrixMarketError(f"{path}:{size_lineno}: nonpositive dimensions")
    if symmetry == "symmetric" and rows != cols:
        raise MatrixMarketError(f"{path}:{size_lineno}: symmetric array must be square")
    expected = rows * cols if symmetry == "general" else rows * (rows + 1) // 2
    if len(entries) != expected:
        raise MatrixMarketError(
            f"{path}: expected {expected} values, found {len(entries)}")
    values = []
    for lineno, ln in entries:
        try:
            values.append(float(ln.split()[0]))
        except (ValueError, IndexError) as exc:
            raise MatrixMarketError(f"{path}:{lineno}: bad value") from exc
    out = np.zeros((rows, cols))
    k = 0
    if symmetry == "general":
        # array storage is column-major
        for j in range(cols):
            for i in range(rows):
                out[i, j] = values[k]
                k += 1
    else:
        # lower triangle stored column by column
        for j in range(cols):
            for i in range(j, rows):
                out[i, j] = values[k]
                out[j, i] = values[k]
                k += 1
    if not np.isfinite(out).all():
        raise MatrixMarketError(f"{path}: non-finite values")
    return out


def write_matrix(path, m, layout: str = "array", symmetry: str = "general") -> None:
    """Write a dense matrix in MatrixMarket form (array or coordinate layout)."""
    m = as_matrix(m, "matrix")
    if layout not in ("array", "coordinate"):
        raise ValueError(f"unsupported layout '{layout}'")
    if symmetry not in ("general", "symmetric"):
        raise ValueError(f"unsupported symmetry '{symmetry}'")
    rows, cols = m.shape
    if symmetry == "symmetric":
        if rows != cols:
            raise ValueError("symmetric storage requires a square matrix")
        if np.max(np.abs(m - m.T)) != 0.0:
            raise ValueError("symmetric storage requires exactly symmetric entries")

    out = [f"%%MatrixMarket matrix {layout} real {symmetry}"]
    if layout == "array":
        out.append(f"{rows} {cols}")
        if symmetry == "general":
            for j in range(cols):
                for i in range(rows):
                    out.append(_fmt(m[i, j]))
        else:
            for j in range(cols):
                for i in range(j, rows):
                    out.append(_fmt(m[i, j]))
    else:
        if symmetry == "general":
            idx = [(i, j) for j in range(cols) for i in range(rows) if m[i, j] != 0.0]
        else:
            idx = [(i, j) for j in range(cols) for i in range(j, rows) if m[i, j] != 0.0]
        out.append(f"{rows} {cols} {len(idx)}")
        for i, j in idx:
            out.append(f"{i + 1} {j + 1} {_fmt(m[i, j])}")
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write("\n".join(out) + "\n")


def write_vector(path, v) -> None:
    """Write a vector as an n x 1 MatrixMarket array."""
    arr = np.asarray(v, dtype=np.float64).reshape(-1, 1)
    write_matrix(path, arr, layout="array", symmetry="general")
