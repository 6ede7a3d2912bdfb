"""MatrixMarket reader and writer for real matrices, plus a vector writer.

Supports the coordinate and array formats with general or symmetric storage
(1-based indices). Symmetric storage is honored on read and expanded to the
full matrix; its size line must declare a square shape. An array file is
read dense; a coordinate file is summed by linalg.assemble, the one place
that chooses between a dense array and a csr.CsrArray with no dense form.
The coordinate layout is written from linalg.entries of either form, a CSR
matrix with no dense form; the array layout from the dense form.
Values are written with 17 significant digits so float64 content
round-trips exactly.
"""
from __future__ import annotations

import numpy as np

from .errors import MatrixMarketError
from .linalg import as_matrix, assemble, dense, entries, is_sparse

_HEADER_PREFIX = "%%matrixmarket"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _stored(rows: int, cols: int, symmetry: str) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of the entries a file stores, in order: by columns, i >= j if symmetric."""
    j, i = (np.triu_indices(rows) if symmetry == "symmetric"
            else np.indices((cols, rows)).reshape(2, -1))
    return i, j


def content_lines(path, comment: str) -> list[tuple[int, str]]:
    """(line number, stripped text) of each line of an ASCII file with text before
    `comment`, which runs to the end of its line: the package's one text reader."""
    with open(path, "r", encoding="ascii") as handle:
        return [(lineno, text) for lineno, line in enumerate(handle, start=1)
                if (text := line.partition(comment)[0].strip())]


def read_matrix(path) -> np.ndarray:
    """Read a real matrix from a MatrixMarket file as a float64 array.

    A coordinate file is summed by linalg.assemble, each entry its terms in
    file order: a large one is a csr.CsrArray with the bytes of csr_array of
    the dense matrix, which is never formed. Every other file gives a dense
    ndarray.
    """
    with open(path, "r", encoding="ascii") as handle:
        first = handle.readline()
    if not first:
        raise MatrixMarketError(f"{path}: empty file")

    header = first.strip().lower().split()
    if len(header) != 5 or header[0] != _HEADER_PREFIX or header[1] != "matrix":
        raise MatrixMarketError(f"{path}:1: not a MatrixMarket matrix header")
    _, _, layout, field, symmetry = header
    if layout not in ("coordinate", "array"):
        raise MatrixMarketError(f"{path}:1: unsupported format '{layout}'")
    if field not in ("real", "integer"):
        raise MatrixMarketError(f"{path}:1: unsupported field '{field}' (real expected)")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(f"{path}:1: unsupported symmetry '{symmetry}'")

    body = content_lines(path, "%")  # the header line is a comment too
    if not body:
        raise MatrixMarketError(f"{path}: missing size line")
    size_lineno, size_line = body[0]
    entries = body[1:]

    fields = "rows cols nnz" if layout == "coordinate" else "rows cols"
    parts = size_line.split()
    if len(parts) != len(fields.split()):
        raise MatrixMarketError(
            f"{path}:{size_lineno}: {layout} size line needs '{fields}'")
    try:
        rows, cols, *nnz = (int(p) for p in parts)
    except ValueError as exc:
        raise MatrixMarketError(f"{path}:{size_lineno}: bad size line") from exc
    if rows < 1 or cols < 1 or min(nnz, default=0) < 0:
        raise MatrixMarketError(f"{path}:{size_lineno}: nonpositive dimensions")
    if symmetry == "symmetric" and rows != cols:
        raise MatrixMarketError(
            f"{path}:{size_lineno}: symmetric {layout} must be square")

    if layout == "coordinate":
        if len(entries) != nnz[0]:
            raise MatrixMarketError(
                f"{path}: expected {nnz[0]} entries, found {len(entries)}")
        keys, terms = [], []
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
            keys.append((i - 1) * cols + j - 1)
            terms.append(v)
            if symmetry == "symmetric" and i != j:
                keys.append((j - 1) * cols + i - 1)
                terms.append(v)
        out = assemble(np.array(keys, dtype=np.int64), np.array(terms),
                       (rows, cols))
    else:
        # counted before anything of the declared size is allocated
        expected = rows * cols if symmetry == "general" else rows * (rows + 1) // 2
        if len(entries) != expected:
            raise MatrixMarketError(
                f"{path}: expected {expected} values, found {len(entries)}")
        values = []
        for lineno, ln in entries:
            try:
                values.append(float(ln.split()[0]))
            except ValueError as exc:
                raise MatrixMarketError(f"{path}:{lineno}: bad value") from exc
        i, j = _stored(rows, cols, symmetry)
        out = np.zeros((rows, cols))
        out[i, j] = values
        if symmetry == "symmetric":
            out[j, i] = values
    if not np.isfinite(out.data if is_sparse(out) else out).all():
        raise MatrixMarketError(f"{path}: non-finite values")
    return out


def write_matrix(path, m, layout: str = "array", symmetry: str = "general") -> None:
    """Write a dense or CSR matrix in MatrixMarket form (array or coordinate layout).

    Either layout stores its entries by columns. The coordinate layout reads
    them off linalg.entries of m^T, for a CSR matrix its stored entries
    (O(nnz), the dense form's bytes); the array layout writes the dense form.
    """
    if layout not in ("array", "coordinate"):
        raise ValueError(f"unsupported layout '{layout}'")
    if symmetry not in ("general", "symmetric"):
        raise ValueError(f"unsupported symmetry '{symmetry}'")
    if is_sparse(m) and layout == "coordinate":
        from .csr import as_csr
        m = as_csr(m)
    else:
        m = as_matrix(dense(m), "matrix")
    rows, cols = m.shape
    if symmetry == "symmetric":
        if rows != cols:
            raise ValueError("symmetric storage requires a square matrix")
        if abs(m - m.T).max() != 0.0:
            raise ValueError("symmetric storage requires exactly symmetric entries")

    out = [f"%%MatrixMarket matrix {layout} real {symmetry}"]
    if layout == "array":
        out.append(f"{rows} {cols}")
        out.extend(map(_fmt, m[_stored(rows, cols, symmetry)]))
    else:
        j, i, values = entries(m.T)  # by columns of m
        if symmetry == "symmetric":
            kept = i >= j
            i, j, values = i[kept], j[kept], values[kept]
        out.append(f"{rows} {cols} {i.size}")
        out.extend(f"{a + 1} {b + 1} {_fmt(v)}" for a, b, v in zip(i, j, values))
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write("\n".join(out) + "\n")


def write_vector(path, v) -> None:
    """Write a vector as an n x 1 MatrixMarket array."""
    arr = np.asarray(v, dtype=np.float64).reshape(-1, 1)
    write_matrix(path, arr, layout="array", symmetry="general")
