"""Command-line interface: keys, output formats, exit codes, determinism."""

import csv
import io

import pytest

from medial import graphsym, polytope
from medial.cli import (
    CSV_COLUMNS,
    EXIT_BAD_INPUT,
    EXIT_OK,
    EXIT_OVERFLOW,
    EXIT_VALIDATION,
    main,
    parse_eisenstein_product,
)
from medial.eisenstein import EisensteinInt


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def test_build_universal(capsys):
    code, out, _ = run(capsys, "build", "universal:3,6:1,1:1,1")
    assert code == EXIT_OK
    assert "group_order: 108" in out
    assert "N: 18" in out
    assert "kind: regular" in out
    assert "self_dual: True" in out


def test_build_validates_every_regular_instance(capsys):
    code, out, _ = run(capsys, "build", "eisenstein:m=3-3w:A=")
    assert code == EXIT_OK
    assert "group_order: 8748" in out
    assert "validation: full" in out
    assert "self_dual: False" in out


def test_build_self_dual_universal_row5(capsys):
    code, out, _ = run(capsys, "build", "universal:3,6:3,0:3,0")
    assert code == EXIT_OK
    assert "group_order: 2916" in out
    assert "validation: full" in out
    assert "self_dual: True" in out


def test_build_eisenstein_product_modulus(capsys):
    code, out, _ = run(capsys, "build", "eisenstein:m=(1-w)*(1+3w):A=")
    assert code == EXIT_OK
    assert "kind: chiral" in out
    assert "group_order: 2016" in out
    assert "N: 672" in out


def test_build_validates_chiral_instance(capsys):
    code, out, _ = run(capsys, "build", "eisenstein:m=(1-w)*(1+3w):A=")
    assert code == EXIT_OK
    assert "validation: full" in out
    assert "self_dual" not in out


def test_build_directly_regular_chiral_exits_3(capsys, monkeypatch):
    # A chiral label contradicted by the direct-regularity check is a
    # validation failure.
    monkeypatch.setattr(polytope, "is_directly_regular", lambda r: True)
    code, out, err = run(capsys, "build", "eisenstein:m=(1-w)*(1+3w):A=")
    assert code == EXIT_VALIDATION
    assert "directly regular" in err


def test_parse_eisenstein_product():
    assert parse_eisenstein_product("(1-w)*(1+3w)") == \
        EisensteinInt(1, -1) * EisensteinInt(1, 3)
    assert parse_eisenstein_product("3") == EisensteinInt(3, 0)


def test_build_graph6_export(capsys, tmp_path):
    path = tmp_path / "g.g6"
    code, _, _ = run(capsys, "build", "universal:3,6:1,1:1,1",
                     "--format", "graph6", "--output", str(path))
    assert code == EXIT_OK
    g = graphsym.from_graph6(path.read_text())
    assert g.n == 18


def test_classify_universal_row2(capsys):
    code, out, _ = run(capsys, "classify", "universal:3,6:1,1:3,0")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert rows[0] == CSV_COLUMNS
    key, params, order, n, verdict, aut, _ = rows[1]
    assert (order, n, verdict, aut) == ("324", "54", "ss-(4,3)", "1296")


def test_classify_eisenstein(capsys):
    code, out, _ = run(capsys, "classify", "eisenstein:m=2-2w:A=")
    assert code == EXIT_OK
    row = parse_csv(out)[1]
    assert row[2] == "720" and row[3] == "120"


def test_classify_graph_file(capsys, tmp_path):
    path = tmp_path / "gray.adj"
    path.write_text(graphsym.to_adjacency_text(graphsym.gray_oracle()))
    code, out, _ = run(capsys, "classify", str(path))
    assert code == EXIT_OK
    row = parse_csv(out)[1]
    assert row[4].startswith("ss-(")
    assert row[5] == "1296"


@pytest.mark.slow
def test_classify_row7_with_lifted_cap(capsys):
    # Table 1 row 7, decided once the vertex cap admits its 40320 vertices:
    # about 50 s and 400 MB on 2 cores, so outside the default run.
    code, out, _ = run(capsys, "classify", "universal:3,6:3,0:4,0",
                       "--max-vertices", "50000")
    assert code == EXIT_OK
    _, _, order, n, verdict, aut, _ = parse_csv(out)[1]
    assert (order, n, verdict, aut) == ("241920", "40320", "ss-(3,3)", "241920")


def test_classify_undecided_exit_code(capsys):
    code, out, _ = run(capsys, "classify", "universal:3,6:1,1:1,1",
                       "--max-vertices", "4")
    assert code == EXIT_OVERFLOW
    assert parse_csv(out)[1][4] == "undecided"


def test_md_format(capsys):
    code, out, _ = run(capsys, "classify", "universal:3,6:1,1:1,1",
                       "--format", "md")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "| " + " | ".join(CSV_COLUMNS) + " |"
    assert "| 3+ |" in lines[2].replace("|  |", "| |") or "3+" in lines[2]


def test_bad_key_exit_code(capsys):
    for key in ("bogus:1", "universal:4,4:1,1:1,1", "eisenstein:m=:B=",
                "universal:3,6:1,1"):
        code, _, err = run(capsys, "classify", key)
        assert code == EXIT_BAD_INPUT
        assert "error:" in err


def test_missing_graph_file_exit_code(capsys):
    code, _, _ = run(capsys, "classify", "no-such-file.adj")
    assert code == EXIT_BAD_INPUT


def test_bad_limit_exit_code(capsys):
    code, _, _ = run(capsys, "build", "universal:3,6:1,1:1,1",
                     "--max-cosets", "0")
    assert code == EXIT_BAD_INPUT


def test_overflow_exit_code(capsys):
    code, _, err = run(capsys, "build", "universal:3,6:1,1:3,0",
                       "--max-cosets", "50")
    assert code == EXIT_OVERFLOW
    assert "overflow" in err


def test_table1_overflow_rows_fast(capsys):
    # With a tiny coset cap every row degrades to an overflow marker, which
    # exercises the table plumbing without the heavy computations.
    code, out, _ = run(capsys, "table1", "--max-cosets", "20")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 1 + 6  # extended row skipped by default
    assert all(r[4] == "overflow" for r in rows[1:])


def test_classify_deterministic_apart_from_timing(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "classify", "universal:3,6:2,0:2,0")
        assert code == EXIT_OK
        rows = parse_csv(out)
        outs.append([r[:-1] for r in rows])  # mask the seconds column
    assert outs[0] == outs[1]
    assert outs[0][1][4] == "3+"


def test_config_file_defaults_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "medial.cfg"
    cfg.write_text("# defaults for a small machine\nformat=md\n"
                   "max-vertices=4\n")
    code, out, _ = run(capsys, "classify", "universal:3,6:1,1:1,1",
                       "--config", str(cfg))
    assert code == EXIT_OVERFLOW  # config capped the automorphism search
    assert out.startswith("| key |")
    # An explicit flag beats the config file.
    code, out, _ = run(capsys, "classify", "universal:3,6:1,1:1,1",
                       "--config", str(cfg), "--max-vertices", "100")
    assert code == EXIT_OK
    assert out.startswith("| key |")


def test_bad_config_rejected(capsys, tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("no_such_option=1\n")
    code, _, err = run(capsys, "build", "universal:3,6:1,1:1,1",
                       "--config", str(cfg))
    assert code == EXIT_BAD_INPUT and "bad config line" in err
    code, _, _ = run(capsys, "build", "universal:3,6:1,1:1,1",
                     "--config", str(tmp_path / "missing.cfg"))
    assert code == EXIT_BAD_INPUT


def test_gray_verify(capsys):
    code, out, _ = run(capsys, "gray-verify")
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert "index_report: 1296 / 324 = 4" in out
    assert "witness:" in out
