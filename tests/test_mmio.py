"""MatrixMarket round-trip and parse-error tests."""
import numpy as np
import pytest

from twogrid.errors import MatrixMarketError
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
