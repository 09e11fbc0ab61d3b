"""A fingerprint of the program's outputs, to show that a change keeps them.

For each key it prints one line: the exit code and the summary of
``medial build KEY`` (seconds left out), the SHA-256 of
``medial build KEY --format graph6`` and of ``--format adj``, and the
``medial classify KEY`` exit code and row.  Then it prints the
``medial table1`` rows.  Seconds are masked throughout, so two trees
whose fingerprints are equal give the same verdicts, group orders, |Aut|
and graphs on these keys.  The default keys are Table 1 rows 1-6 and
seven Eisenstein instances: the Gray graph's m = 3, the regular
m = 2-2w, 3-3w, 6 and 4-4w, and the chiral (1-w)(1+3w) and (1-w)(1+4w).

Run it on two checkouts and compare the output:

    python3 tools/fingerprint.py [--max-vertices N] [KEY ...]

It imports the ``medial`` package from the ``src`` beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from medial import cli, graphsym  # noqa: E402

KEYS = (
    "universal:3,6:1,1:1,1",
    "universal:3,6:1,1:3,0",
    "universal:3,6:2,0:2,0",
    "universal:3,6:2,0:2,2",
    "universal:3,6:3,0:3,0",
    "universal:3,6:3,0:2,2",
    "eisenstein:m=3:A=",
    "eisenstein:m=2-2w:A=",
    "eisenstein:m=(1-w)*(1+3w):A=",
    "eisenstein:m=3-3w:A=",
    "eisenstein:m=6:A=",
    "eisenstein:m=4-4w:A=",
    "eisenstein:m=(1-w)*(1+4w):A=",
)


def run(argv: list[str]) -> tuple[int, str]:
    """The exit code and the standard output of one in-process command;
    its standard error is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def masked_rows(text: str) -> list[str]:
    """The data rows of a csv table, with a seconds column that holds a
    number replaced by ``-``; an overflow row keeps its message there."""
    rows = list(csv.reader(io.StringIO(text)))[1:]
    for row in rows:
        try:
            float(row[-1])
            row[-1] = "-"
        except ValueError:
            pass
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().splitlines()


def fingerprint(key: str, max_vertices: int) -> str:
    code, summary = run(["build", key])
    summary = "; ".join(line for line in summary.splitlines()
                        if not line.startswith("seconds:"))
    digests = []
    for fmt in ("graph6", "adj"):
        fmt_code, text = run(["build", key, "--format", fmt])
        digests.append(f"{fmt}={fmt_code}:"
                       f"{hashlib.sha256(text.encode()).hexdigest()}")
    classify_code, text = run(["classify", key,
                               "--max-vertices", str(max_vertices)])
    return " | ".join([f"{key} build={code}", summary, *digests,
                       f"classify={classify_code}",
                       *masked_rows(text)])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("keys", nargs="*", default=KEYS, metavar="KEY")
    parser.add_argument("--max-vertices", type=int,
                        default=graphsym.DEFAULT_VERTEX_CAP,
                        help="automorphism search cap of classify and"
                             " table1")
    args = parser.parse_args(argv)
    for key in args.keys:
        print(fingerprint(key, args.max_vertices))
    code, text = run(["table1", "--max-vertices", str(args.max_vertices)])
    print(f"table1={code}")
    for row in masked_rows(text):
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
