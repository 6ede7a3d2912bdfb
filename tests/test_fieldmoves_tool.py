"""Tests of tools/fieldmoves.py, which names the report fields two trees move."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "fieldmoves.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("fieldmoves", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_tree_against_itself_moves_nothing(tmp_path):
    src = str(ROOT / "src")
    done = subprocess.run([sys.executable, str(TOOL), src, src], cwd=tmp_path,
                          env=dict(os.environ), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "no field moved", "22 reports compared, 0 moved fields or unmatched cases"]


def test_moves_name_the_largest_move_and_its_case():
    tool = load_tool()
    old = {"a": {"x": 1.0, "flags": {"ok": True}, "n": 4, "name": "p"},
           "b": {"x": 0.001, "flags": {"ok": True}, "n": 4, "name": "p"},
           "c": {}}
    new = {"a": {"x": 1.0 + 4e-15, "flags": {"ok": False}, "n": 4, "name": "p"},
           "b": {"x": 0.001 + 1e-15, "flags": {"ok": True}, "n": 4, "name": "p"}}
    assert tool.moves(old, new) == [
        "case c: only in OLD",
        "x: relative 1e-12 (b), absolute 4e-15 (a)",
        "flags.ok: True -> False (a)",
    ]
