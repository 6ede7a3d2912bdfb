"""Guard-rail tests for tolerance policies and rank-consistency errors."""
import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import twogrid
from twogrid.errors import ShapeError
from twogrid.analysis import sigma_tg
from twogrid.linalg import TolerancePolicy, spsd_certify
from twogrid.model import (
    TwoGridHierarchy,
    WeightedJacobi,
    aggregation_prolongation,
    build_hierarchy,
    build_smoother,
    neumann_laplacian_1d,
    random_spsd,
)


class TestTolerancePolicy:
    @pytest.mark.parametrize("field,value", [
        ("rank_rel_tol", 0.0), ("rank_rel_tol", 1.0), ("match_tol", 2.0),
    ])
    def test_out_of_range_rejected(self, field, value):
        kwargs = {"rank_rel_tol": 1e-12, "match_tol": 1e-10}
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            TolerancePolicy(**kwargs)

    def test_two_fields(self):
        # the PSD slack is the constant linalg.PSD_SLACK, not a setting
        assert [f.name for f in dataclasses.fields(TolerancePolicy)] == [
            "rank_rel_tol", "match_tol"]

    def test_for_dimension_scales_with_n(self):
        small = TolerancePolicy.for_dimension(8)
        large = TolerancePolicy.for_dimension(64)
        assert large.rank_rel_tol == pytest.approx(8 * small.rank_rel_tol)

    def test_policy_threads_to_coarse_operator(self):
        h = build_hierarchy(neumann_laplacian_1d(8),
                            aggregation_prolongation(8, 2), WeightedJacobi(0.5))
        assert h.Ac.policy is h.A.policy


def test_inconsistent_ranks_rejected_by_analysis():
    # a hierarchy forged with a coarse rank above the fine rank must be
    # caught by the spectral-position guard instead of mis-indexing
    a = spsd_certify(random_spsd(6, 1, 0), TolerancePolicy.for_dimension(6))
    p = aggregation_prolongation(6, 2)
    m = build_smoother(WeightedJacobi(0.25), a)
    forged = TwoGridHierarchy(A=a, M=m, P=p,
                              Ac=spsd_certify(np.eye(3), a.policy))
    assert (forged.r, forged.s) == (1, 3)
    with pytest.raises(ShapeError, match="inconsistent"):
        sigma_tg(forged)


@pytest.mark.parametrize("rule,owners", [
    ("SPARSE_MIN_ENTRIES", {"assemble", "spsd_certify"}),  # dense or CSR
    ("END_MIN_ORDER", {"spectrum_end"}),  # a full solve or Lanczos
], ids=["SPARSE_MIN_ENTRIES", "END_MIN_ORDER"])
def test_only_linalg_reads_the_size_rule(rule, owners):
    # each size rule is read in linalg alone, and there only by its owners
    readers = {}
    for path in sorted(Path(twogrid.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name == rule and not (
                    isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)):
                owner = next((f.name for f in functions if node in ast.walk(f)), None)
                readers.setdefault(path.name, set()).add(owner)
    assert readers == {"linalg.py": owners}


def callers(name: str) -> set[tuple[str, str | None]]:
    """(file, outermost enclosing function) of each call in the package of a
    function bound as `name` or read as attribute `name` (np.linalg.eigh)."""
    found = set()
    for path in sorted(Path(twogrid.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = (func.id if isinstance(func, ast.Name)
                      else func.attr if isinstance(func, ast.Attribute) else None)
            if called == name:
                owner = next((f.name for f in functions if node in ast.walk(f)), None)
                found.add((path.name, owner))
    return found


def test_only_the_eigh_certificate_solves_an_operator_spectrum():
    # eigh runs in linalg._eigh alone, and _eigh runs only in spsd_certify:
    # no operator solves its spectrum on read, and a structurally certified
    # one holds none
    assert callers("eigh") == {("linalg.py", "_eigh")}
    assert callers("_eigh") == {("linalg.py", "spsd_certify")}
    op = spsd_certify(neumann_laplacian_1d(128), TolerancePolicy.for_dimension(128))
    assert op.components is not None and op.eig is None


def test_model_solves_no_form_spectrum():
    # the r x r forms on range(A) and their spectra are built in analysis:
    # model runs no SVD and no eigvalsh, and reads a spectrum only through
    # mbar_ends' spectrum_end calls
    assert not {path for path, _ in callers("svd") | callers("eigvalsh")
                if path == "model.py"}
    assert {owner for path, owner in callers("spectrum_end")
            if path == "model.py"} == {"mbar_ends"}


def model_tree() -> ast.Module:
    return ast.parse((Path(twogrid.__file__).parent / "model.py").read_text(encoding="utf-8"))


def test_mbar_ends_solves_nothing_but_spectrum_end():
    # both paths of mbar_ends, Gauss-Seidel's X X^T and a matrix M's Mbar,
    # read their ends through linalg.spectrum_end, the one order rule
    method = next(node for node in ast.walk(model_tree())
                  if isinstance(node, ast.FunctionDef) and node.name == "mbar_ends")
    called = {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
              for node in ast.walk(method) if isinstance(node, ast.Call)
              and isinstance(node.func, (ast.Name, ast.Attribute))}
    solvers = {name for name in called
               if "eig" in name or "svd" in name or name.startswith("spectrum")}
    assert solvers == {"spectrum_end"}


def test_only_the_band_solve_is_an_operator_class():
    # every other smoother is a matrix: an ndarray or a CsrArray
    owners = {node.name for node in ast.walk(model_tree())
              if isinstance(node, ast.ClassDef)
              and any(isinstance(item, ast.FunctionDef) and item.name == "__matmul__"
                      for item in node.body)}
    assert owners == {"LowerBandSolve"}
