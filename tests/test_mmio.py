"""MatrixMarket round-trip and parse-error tests."""
import numpy as np
import pytest

from scipy.sparse import csr_array

from twogrid.csr import CsrArray
from twogrid.errors import MatrixMarketError
from twogrid.linalg import SPARSE_MIN_ENTRIES
from twogrid.mmio import content_lines, read_matrix, write_matrix, write_vector


@pytest.mark.parametrize("layout", ["array", "coordinate"])
def test_general_round_trip_exact(tmp_path, layout):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 3))
    m[2, 1] = 0.0
    path = tmp_path / "m.mtx"
    write_matrix(path, m, layout=layout)
    back = read_matrix(path)
    assert np.array_equal(back, m)


@pytest.mark.parametrize("layout", ["array", "coordinate"])
def test_symmetric_round_trip_exact(tmp_path, layout):
    rng = np.random.default_rng(1)
    s = rng.standard_normal((6, 6))
    s = s + s.T
    path = tmp_path / "s.mtx"
    write_matrix(path, s, layout=layout, symmetry="symmetric")
    back = read_matrix(path)
    assert np.array_equal(back, s)


def test_symmetric_storage_expanded_on_read(tmp_path):
    path = tmp_path / "lower.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "% comment line\n"
        "2 2 2\n"
        "1 1 2\n"
        "2 1 -1\n")
    back = read_matrix(path)
    assert np.array_equal(back, np.array([[2.0, -1.0], [-1.0, 0.0]]))


def test_array_storage_order_on_read(tmp_path):
    # by columns; a symmetric array stores the lower triangle
    path = tmp_path / "a.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 3\n1\n2\n3\n4\n5\n6\n")
    assert np.array_equal(read_matrix(path), [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
    path.write_text("%%MatrixMarket matrix array real symmetric\n3 3\n1\n2\n3\n4\n5\n6\n")
    assert np.array_equal(read_matrix(path),
                          [[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])


def test_vector_round_trip(tmp_path):
    v = np.array([1.5, -2.25, 0.0, 3.0])
    path = tmp_path / "v.mtx"
    write_vector(path, v)
    back = read_matrix(path)
    assert back.shape == (4, 1)
    assert np.array_equal(back.reshape(-1), v)


def test_read_integer_field(tmp_path):
    path = tmp_path / "int.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate integer general\n"
        "2 2 1\n"
        "1 2 7\n")
    assert np.array_equal(read_matrix(path), np.array([[0.0, 7.0], [0.0, 0.0]]))


@pytest.mark.parametrize("content,fragment", [
    ("", "empty"),
    ("%%MatrixMarket matrix coordinate complex general\n1 1 0\n", "field"),
    ("%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 0\n", "symmetry"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", "outside"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", "entries"),
    ("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n", "values"),
    ("not a header\n", "header"),
])
def test_parse_errors_have_context(tmp_path, content, fragment):
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(MatrixMarketError, match=fragment):
        read_matrix(path)


@pytest.mark.parametrize("layout,body", [
    # refused at the size line: each coordinate entry's mirror lies outside
    # the declared shape
    ("coordinate", "3 2 1\n3 1 5.0\n"),
    ("coordinate", "2 3 1\n2 1 5.0\n"),
    ("coordinate", "2 3 1\n1 3 5.0\n"),
    ("array", "3 2\n1.0\n5.0\n5.0\n0.0\n0.0\n0.0\n"),
    ("array", "2 3\n1.0\n5.0\n0.0\n"),
])
def test_symmetric_storage_must_be_square(tmp_path, layout, body):
    path = tmp_path / "rect.mtx"
    path.write_text(f"%%MatrixMarket matrix {layout} real symmetric\n% a comment\n{body}")
    with pytest.raises(MatrixMarketError,
                       match=rf"rect\.mtx:3: symmetric {layout} must be square"):
        read_matrix(path)


@pytest.mark.parametrize("comment", ["%", "#"])
def test_content_lines(tmp_path, comment):
    path = tmp_path / "text.txt"
    path.write_text(f"{comment} header\n\n  a b  \nc {comment} note\n   \n"
                    f"{comment}{comment}\nd{comment}e\n", encoding="ascii")
    assert content_lines(path, comment) == [(3, "a b"), (4, "c"), (7, "d")]


def test_inline_comment_after_matrix_data(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 1 % rows cols nnz\n"
                    "1 2 7.5 % the only entry\n")
    assert np.array_equal(read_matrix(path), np.array([[0.0, 7.5], [0.0, 0.0]]))


def coordinate_file(path, rows, cols, symmetry, entries):
    path.write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n"
                    f"{rows} {cols} {len(entries)}\n"
                    + "".join(f"{i} {j} {v!r}\n" for i, j, v in entries))


def summed(rows, cols, symmetry, entries):
    """The matrix that adding each entry in file order builds."""
    out = np.zeros((rows, cols))
    for a, b, v in entries:
        out[a - 1, b - 1] += v
        if symmetry == "symmetric" and a != b:
            out[b - 1, a - 1] += v
    return out


@pytest.mark.parametrize("symmetry", ["general", "symmetric"])
def test_large_coordinate_file_is_read_into_csr(tmp_path, symmetry):
    # from SPARSE_MIN_ENTRIES entries on, a coordinate file is summed into
    # CSR with the bytes csr_array gives the matrix that adding each entry
    # in file order builds; repeated entries, both triangles of a symmetric
    # file and entries that cancel included
    rng = np.random.default_rng(7)
    n = 128
    assert n * n == SPARSE_MIN_ENTRIES
    i, j = rng.integers(1, 21, size=(2, 400))
    values = rng.standard_normal(400) * 10.0 ** rng.integers(-8, 8, size=400)
    entries = [*zip(i.tolist(), j.tolist(), values.tolist()),
               (n, 1, 0.5), (n, 1, -0.5), (3, 3, 0.0)]
    path = tmp_path / "big.mtx"
    coordinate_file(path, n, n, symmetry, entries)
    ref = summed(n, n, symmetry, entries)
    back = read_matrix(path)
    assert type(back) is CsrArray
    assert back.toarray().tobytes() == ref.tobytes()
    expected = csr_array(ref)
    for name in ("data", "indices", "indptr"):
        mine, theirs = getattr(back, name), getattr(expected, name)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
    # written back in coordinate layout, the CSR and the dense form give one file
    write_matrix(tmp_path / "csr.mtx", back, "coordinate", symmetry)
    write_matrix(tmp_path / "dense.mtx", ref, "coordinate", symmetry)
    assert (tmp_path / "csr.mtx").read_bytes() == (tmp_path / "dense.mtx").read_bytes()
    # one entry fewer (127 x 129 = 16383) stays dense, with the same sums
    coordinate_file(path, n - 1, n + 1, symmetry="general", entries=entries[:-3])
    small = read_matrix(path)
    assert type(small) is np.ndarray
    assert small.tobytes() == summed(n - 1, n + 1, "general", entries[:-3]).tobytes()


@pytest.mark.parametrize("line,fragment", [
    ("2 5 x", "big.mtx:5: bad entry"),
    ("2 200 1.0", r"big.mtx:5: index \(2, 200\) outside 128 x 128"),
    ("2 5", "big.mtx:5: coordinate entry needs"),
    ("2 5 inf", "big.mtx: non-finite values"),
])
def test_large_coordinate_file_keeps_its_errors(tmp_path, line, fragment):
    path = tmp_path / "big.mtx"
    coordinate_file(path, 128, 128, "general", [(1, 1, 1.0), (2, 2, 2.0), (3, 3, 3.0)])
    lines = path.read_text().splitlines()
    lines[4] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MatrixMarketError, match=fragment):
        read_matrix(path)
