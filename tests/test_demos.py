"""The demos run end to end and print their headline facts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(script):
    """The lines the demo prints, once it exits 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("script,line", [
    ("gray_graph_walkthrough.py", "|Aut| = 1296 = 4 x 324"),
    ("chiral_instance.py", "matrix group: order 2016, kind = chiral"),
])
def test_demo_runs(script, line):
    assert line in run_demo(script)


def test_summary_table_demo():
    # Row 5 without its seconds column: facet, vertex figure, |G|, N and
    # the verdict.
    rows = [line.split()[:-1] for line in run_demo("summary_table.py")]
    assert ["(3,", "0)", "(3,", "0)", "2916", "486", "3+"] in rows
