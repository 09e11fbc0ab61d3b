"""The demos run end to end and print their headline facts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,line", [
    ("gray_graph_walkthrough.py", "|Aut| = 1296 = 4 x 324"),
    ("chiral_instance.py", "matrix group: order 2016, kind = chiral"),
])
def test_demo_runs(script, line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
