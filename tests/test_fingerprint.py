"""``tools/fingerprint.py``, the check that a change keeps every output,
is itself deterministic: two processes print the same fingerprint."""

import csv
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KEYS = ("universal:3,6:1,1:1,1", "eisenstein:m=3:A=")


def test_two_runs_print_the_same_fingerprint():
    # Two processes at once, each with its own string-hash seed.
    runs = [subprocess.Popen([sys.executable,
                              str(ROOT / "tools" / "fingerprint.py"), *KEYS],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
            for _ in range(2)]
    outputs = [proc.communicate(timeout=600) for proc in runs]
    assert [proc.returncode for proc in runs] == [0, 0], outputs
    (first, _), (second, _) = outputs
    assert first == second
    lines = first.splitlines()
    assert len(lines) == len(KEYS) + 1 + 7  # the keys, table1's 7 rows
    for key, line, order, n in zip(KEYS, lines, ("108", "324"), ("18", "54")):
        fields = line.split(" | ")
        assert fields[0] == f"{key} build=0"
        assert f"group_order: {order}" in fields[1]
        assert fields[2].startswith("graph6=0:")
        assert fields[3].startswith("adj=0:")
        assert fields[4] == "classify=0"
        [row] = csv.reader([fields[5]])
        assert (row[0], row[3], row[-1]) == (key, n, "-")  # seconds masked
    assert lines[len(KEYS)] == "table1=0"
    assert lines[-1] == ('"universal:3,6:3,0:4,0","s=(3,0) t=(4,0)",241920,'
                         '40320,undecided,,-')
