"""Smoke test of tools/parity.py, the byte-parity digest printer."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_parity_tool_prints_89_digests(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "parity.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    digests = json.loads(done.stdout)
    assert len(digests) == 89
    assert all(re.fullmatch(r"[0-9a-f]{64}", value) for value in digests.values())
