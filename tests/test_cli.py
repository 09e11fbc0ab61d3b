"""Command-line interface: keys, output formats, exit codes, determinism."""

import csv
import hashlib
import io
import time
import tracemalloc
import types

import numpy as np
import pytest

from medial import cli, graphsym, polytope
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
from medial.fpgroup import coset_enumeration, gen_word
from medial.permgroup import OverflowResult


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
    monkeypatch.setattr(polytope, "is_directly_regular",
                        lambda right, identity: True)
    code, out, err = run(capsys, "build", "eisenstein:m=(1-w)*(1+3w):A=")
    assert code == EXIT_VALIDATION
    assert "directly regular" in err


@pytest.mark.parametrize("st, faces, named, found, expected", [
    ("1,1:2,2", "vertex figures", "{6,3}_(2,2)", 36, 144),
    ("1,1:3,3", "vertex figures", "{6,3}_(3,3)", 108, 324),
    ("2,0:4,0", "vertex figures", "{6,3}_(4,0)", 48, 192),
    ("2,2:1,1", "facets", "{3,6}_(2,2)", 36, 144),
    ("3,3:1,1", "facets", "{3,6}_(3,3)", 108, 324),
    ("4,0:2,0", "facets", "{3,6}_(4,0)", 48, 192),
])
def test_universal_key_whose_map_collapses_exits_3(capsys, st, faces, named,
                                                   found, expected):
    # The relator of the larger map collapses it to the smaller one: |G|
    # over the facets (vertices) is not the order 12 v of the map's group.
    key = f"universal:3,6:{st}"
    assert run(capsys, "build", key) == (
        EXIT_VALIDATION, "",
        f"validation failure: {key}: the {faces} collapse from {named} to"
        f" a map whose group has order {found}, not {expected}\n")


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


def test_graph_file_search_is_not_seeded(capsys, tmp_path, monkeypatch):
    # A graph file has no polytope group behind it, so its search runs
    # unseeded and returns the generators it returned before seeding: the
    # digest of the Gray graph's, read from graph6.
    path = tmp_path / "gray.g6"
    assert run(capsys, "build", "universal:3,6:1,1:3,0", "--format",
               "graph6", "--output", str(path))[0] == EXIT_OK
    searches = []
    search = graphsym.automorphism_group

    def spy(*args, **kwargs):
        searches.append((kwargs.get("known"), search(*args, **kwargs)))
        return searches[-1][1]

    monkeypatch.setattr(graphsym, "automorphism_group", spy)
    code, out, _ = run(capsys, "classify", str(path))
    assert code == EXIT_OK and parse_csv(out)[1][4:6] == ["ss-(4,3)", "1296"]
    [(known, aut)] = searches
    assert known is None and aut.generators.shape == (10, 54)
    assert hashlib.sha256(aut.generators.astype(np.int64).tobytes()) \
        .hexdigest() == ("2051988c98f3f6abc813dbdf5bfa5954"
                         "8053c8da8865b7b043667affdd0da5c1")


@pytest.mark.parametrize("key, verdict, reason", [
    ("universal:3,6:1,1:1,1",
     graphsym.Classification("semisymmetric", n=18, aut_order=108,
                             t_pair=(3, 3)),
     "the polytope is regular and self-dual, but the verdict is ss-(3,3),"
     " not symmetric with t >= 3"),
    ("universal:3,6:2,0:2,0",
     graphsym.Classification("symmetric", n=40, aut_order=240, t=2,
                             sign="+"),
     "the polytope is regular and self-dual, but the verdict is 2+, not"
     " symmetric with t >= 3"),
    ("eisenstein:m=3:A=",
     graphsym.Classification("not-edge-transitive", n=54, aut_order=324),
     "the polytope group is transitive on the edges, but the verdict is"
     " not-edge-transitive"),
])
def test_verdict_that_contradicts_the_polytope_exits_3(capsys, monkeypatch,
                                                       key, verdict, reason):
    monkeypatch.setattr(cli, "classify", lambda *args, **kwargs: verdict)
    code, out, err = run(capsys, "classify", key)
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == f"validation failure: {key}: {reason}\n"


@pytest.mark.slow
def test_classify_row7_with_lifted_cap(capsys, monkeypatch):
    # Table 1 row 7, decided once the vertex cap admits its 40320 vertices:
    # the test takes about 1.5 s, and its pytest process peaks at about
    # 88 MB resident, on 2 cores, so it stays outside the default run.
    # The probe arcs from the two types have the same prefix orbit sizes.
    sizes = []
    prefix_orbit_sizes = graphsym._prefix_orbit_sizes

    def spying(*args):
        sizes.append(prefix_orbit_sizes(*args))
        return sizes[-1]

    monkeypatch.setattr(graphsym, "_prefix_orbit_sizes", spying)
    code, out, _ = run(capsys, "classify", "universal:3,6:3,0:4,0",
                       "--max-vertices", "50000")
    assert code == EXIT_OK
    _, _, order, n, verdict, aut, _ = parse_csv(out)[1]
    assert (order, n, verdict, aut) == ("241920", "40320", "ss-(3,3)", "241920")
    assert sizes == [[1, 20160, 60480, 120960] + [241920] * 6] * 2


def test_classify_undecided_exit_code(capsys):
    code, out, err = run(capsys, "classify", "universal:3,6:1,1:1,1",
                         "--max-vertices", "4")
    assert code == EXIT_OVERFLOW
    assert parse_csv(out)[1][4] == "undecided"
    assert err == "undecided: 18 vertices exceed the cap 4\n"


def test_md_format(capsys):
    code, out, _ = run(capsys, "classify", "universal:3,6:1,1:1,1",
                       "--format", "md")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "| " + " | ".join(CSV_COLUMNS) + " |"
    assert "| 3+ |" in lines[2].replace("|  |", "| |") or "3+" in lines[2]


def test_bad_key_exit_code(capsys):
    for key in ("bogus:1", "universal:4,4:1,1:1,1", "eisenstein:m=:B=",
                "universal:3,6:1,1", "eisenstein:m=3:A=x",
                "eisenstein:m=3:A=3", "eisenstein:m=0:A=",
                "universal:3,6:1,1:1,2"):
        code, _, err = run(capsys, "classify", key)
        assert code == EXIT_BAD_INPUT
        assert "error:" in err
    # A toroidal field with more or fewer than two integers is named as
    # such, not read as a family or a missing argument.
    for key in ("universal:3,6:1,1:1,1,2", "universal:3,6:1:1,1"):
        code, _, err = run(capsys, "classify", key)
        assert code == EXIT_BAD_INPUT
        assert err == (f"error: bad toroidal parameters in {key!r}: each"
                       " field takes exactly two integers, as in 1,1\n")


def test_graph6_past_its_vertex_limit_exits_4(capsys, tmp_path, monkeypatch):
    # graph6 headers hold at most 258047 vertices; a larger graph is bad
    # input for that format, and --output is left as it was.  A stub
    # report stands in for a build of that size.
    big = types.SimpleNamespace(graph=types.SimpleNamespace(n=258048))
    monkeypatch.setattr(cli, "build_instance", lambda spec: big)
    path = tmp_path / "out.g6"
    path.write_text("an earlier run\n")
    code, out, err = run(capsys, "build", "universal:3,6:1,1:1,1",
                         "--format", "graph6", "--output", str(path))
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err == ("error: graph6 holds at most 258047 vertices, this graph"
                   " has 258048; use --format adj\n")
    assert path.read_text() == "an earlier run\n"


@pytest.mark.parametrize("argv, expected", [
    (["build", "x", "--max-cosets", "abc"], EXIT_BAD_INPUT),
    (["build"], EXIT_BAD_INPUT),
    (["frob"], EXIT_BAD_INPUT),
    (["build", "--help"], EXIT_OK),
    (["table1", "--extended"], EXIT_BAD_INPUT),
], ids=["bad-option-value", "no-key", "unknown-command", "help",
        "unknown-option"])
def test_usage_error_exits_4(capsys, argv, expected):
    # Exit 2 means overflow or undecided, so argparse's usage errors exit 4;
    # --help still exits 0.
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == expected
    assert ("error:" in capsys.readouterr().err) == (expected != EXIT_OK)


def test_missing_graph_file_exit_code(capsys, tmp_path):
    code, _, _ = run(capsys, "classify", "no-such-file.adj")
    assert code == EXIT_BAD_INPUT
    # A directory is no graph file either.
    code, _, err = run(capsys, "classify", str(tmp_path))
    assert code == EXIT_BAD_INPUT and err.startswith("error:")


def test_unwritable_output_exit_code(capsys, tmp_path, monkeypatch):
    # Refused before any work is done.
    monkeypatch.setattr(cli, "build_instance", None)
    code, _, err = run(capsys, "build", "universal:3,6:1,1:1,1",
                       "--output", str(tmp_path / "missing" / "build.txt"))
    assert code == EXIT_BAD_INPUT and err.startswith("error:")


@pytest.mark.parametrize("argv, expected", [
    (["build", "bogus:1"], EXIT_BAD_INPUT),
    # Row 2's facet enumeration defines 14 cosets.
    (["build", "universal:3,6:1,1:3,0", "--max-cosets", "5"], EXIT_OVERFLOW),
], ids=["bad-key", "overflow"])
def test_failed_command_keeps_the_output_file(capsys, tmp_path, argv,
                                              expected):
    path = tmp_path / "out.txt"
    path.write_text("an earlier run\n")
    code, out, _ = run(capsys, *argv, "--output", str(path))
    assert code == expected
    assert out == ""
    assert path.read_text() == "an earlier run\n"
    # Probing a new path for writing leaves no file behind.
    code, out, _ = run(capsys, *argv, "--output", str(tmp_path / "new.txt"))
    assert code == expected
    assert out == ""
    assert list(tmp_path.iterdir()) == [path]


def test_output_file_replaced_on_success(capsys, tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("an earlier, longer run\n" * 50)
    code, out, _ = run(capsys, "build", "universal:3,6:1,1:1,1",
                       "--output", str(path))
    assert code == EXIT_OK
    assert out == ""
    text = path.read_text()
    assert text.startswith("key: universal:3,6:1,1:1,1\n")
    assert "N: 18\n" in text and "earlier" not in text


@pytest.mark.parametrize("name, text, reason", [
    ("empty.g6", "", "empty"),
    ("truncated.g6", "A", "body has 0 characters"),
    ("short.g6", "E??", "body has 2 characters"),
    ("header.g6", "~??", "header"),
    ("two-fields.adj", "0: 1 2 3\n", "line 1"),
    ("repeated.adj", "0 1: 1 2 3\n0 1: 1 2 3\n", "line 2"),
])
def test_malformed_graph_file_exit_code(capsys, tmp_path, name, text,
                                        reason):
    path = tmp_path / name
    path.write_text(text)
    code, _, err = run(capsys, "classify", str(path))
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error:") and reason in err


@pytest.mark.parametrize("name, text", [
    ("k4.g6", "C~"), ("none.g6", "?"), ("type-300.adj", "0 300: 1 2 3"),
    ("huge-id.adj", "0 1: 1 2 99999999999999999999"),
])
def test_invalid_graph_file_exit_code(capsys, tmp_path, name, text):
    # Decodable, but K4 is not bipartite, "?" has no vertices, a type
    # label 300 is neither 1 nor 2 (nor an int8) and a neighbour id past
    # int64 is out of range: validation failures, not bad input.
    path = tmp_path / name
    path.write_text(text)
    code, _, err = run(capsys, "classify", str(path))
    assert code == EXIT_VALIDATION
    assert "validation failure" in err


@pytest.mark.parametrize("name, text, message", [
    ("k4.g6", "C~", "edge 1-2 joins two vertices of type 2"),
    ("petersen.g6", "IheA@GUAo", "edge 2-3 joins two vertices of type 1"),
    ("dodecahedron.g6", "ShCHGD@?K?_@?@?C_GGG@??cG?G?GK_?C",
     "edge 2-3 joins two vertices of type 1"),
    ("two-k33.g6", "KFz_????wF?[", "graph is disconnected"),
    ("c6.g6", "EhEG", "vertex 0 has degree 2, not 3"),
])
def test_graph6_validation_messages(capsys, tmp_path, name, text, message):
    # networkx's graph6 of K4, the Petersen graph, the dodecahedron, two
    # copies of K3,3 and the 6-cycle.  A decoded cubic graph is typed by
    # breadth-first levels from each component's least vertex 0, so in
    # the Petersen graph and the dodecahedron vertices 2 and 3, both at
    # distance 2, are the first edge within one type.
    path = tmp_path / name
    path.write_text(text + "\n")
    assert run(capsys, "classify", str(path)) == \
        (EXIT_VALIDATION, "", f"validation failure: {message}\n")


def test_bad_limit_exit_code(capsys):
    # A nan budget would never expire: every comparison with it is false.
    for flag, value in (("--max-cosets", "0"), ("--max-vertices", "-5"),
                        ("--time-budget", "-1"), ("--time-budget", "0"),
                        ("--time-budget", "nan")):
        code, _, err = run(capsys, "build", "universal:3,6:1,1:1,1",
                           flag, value)
        assert code == EXIT_BAD_INPUT, (flag, value)
        assert err.startswith("error:")


def test_overflow_exit_code(capsys):
    # Row 2's facet group has 36 elements, so 20 cosets do not bound it
    # and no facet certificate holds; its 1-face stabilizer has 27 cosets.
    code, _, err = run(capsys, "build", "universal:3,6:1,1:3,0",
                       "--max-cosets", "20")
    assert code == EXIT_OVERFLOW
    assert "overflow" in err


def test_time_budget_bounds_matrix_closure(capsys):
    code, _, err = run(capsys, "build", "eisenstein:m=4-4w:A=",
                       "--time-budget", "0.001")
    assert code == EXIT_OVERFLOW
    assert "time budget exceeded" in err


def test_time_budget_bounds_presentation_route(capsys):
    code, _, err = run(capsys, "build", "universal:3,6:3,0:2,2",
                       "--time-budget", "0.001")
    assert code == EXIT_OVERFLOW
    assert "time budget exceeded" in err


def test_max_elements_bounds_presentation_route(capsys):
    # Row 4 has 720 elements.
    code, _, err = run(capsys, "build", "universal:3,6:2,0:2,2",
                       "--max-elements", "719")
    assert code == EXIT_OVERFLOW
    assert "exceeded 719 elements" in err
    code, out, _ = run(capsys, "build", "universal:3,6:2,0:2,2",
                       "--max-elements", "720")
    assert code == EXIT_OK
    assert "group_order: 720" in out


def test_max_elements_below_the_bound_overflows_at_once(capsys,
                                                       monkeypatch):
    # Row 6: |G| = 41472, 384 cosets of the facet stabilizer.  A cap of
    # 40000 stops the bound enumeration of the facet group, of order 108,
    # at 104 cosets, so no orbit certifies; the base orbit passes the cap,
    # which proves that the group would too, so neither the 1-face
    # stabilizer nor the whole group is enumerated.
    enumerated = []

    def recording(pres, subgens=(), **kwargs):
        enumerated.append((pres.ngens, list(subgens)))
        return coset_enumeration(pres, subgens, **kwargs)

    monkeypatch.setattr(polytope, "coset_enumeration", recording)
    code, _, err = run(capsys, "build", "universal:3,6:3,0:2,2",
                       "--max-elements", "40000")
    assert code == EXIT_OVERFLOW
    assert "exceeded 40000 elements" in err
    assert [subgens for ngens, subgens in enumerated if ngens == 4] == \
        [[gen_word(i) for i in polytope._PARABOLIC[3]]]


def test_ring_tables_past_max_elements_overflow_before_they_are_built(
        capsys):
    # norm(60) = 3600: the ring's product and sum tables would hold
    # 3600^2 entries each, past the default cap of 2 * 10^6 elements.  The
    # check runs before the ring itself is built, whose arrays grow with
    # norm(m), 90000 at m = 300.
    for m in (60, 300):
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "build", f"eisenstein:m={m}:A=")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OVERFLOW
        assert f"ring tables of norm(m)^2 = {m ** 4} entries exceed" \
            " 2000000 elements" in err
        assert peak < 8 * 2**20


def test_table1_overflow_rows_fast(capsys):
    # With a tiny coset cap every row degrades to an overflow marker, which
    # exercises the table plumbing without the heavy computations.  No
    # facet group of a row has 5 elements or fewer, so no facet certificate
    # holds; row 1, the smallest, has 9 cosets of its 1-face stabilizer.
    code, out, _ = run(capsys, "table1", "--max-cosets", "5")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 1 + 7
    assert all(r[4] == "overflow" for r in rows[1:])


def test_time_budget_is_one_deadline_per_instance(capsys, monkeypatch):
    # The budget becomes one time.monotonic() deadline when an instance
    # starts building; each table1 row takes its own.
    calls = []

    def recording(pres, label, deadline=None, **kwargs):
        calls.append((time.monotonic(), deadline))
        raise OverflowResult("stopped")

    monkeypatch.setattr(cli, "handle_from_presentation", recording)
    start = time.monotonic()
    code, out, _ = run(capsys, "table1", "--time-budget", "100")
    assert code == EXIT_OK
    assert [r[4] for r in parse_csv(out)[1:]] == ["overflow"] * 7
    begun = [deadline - 100 for _, deadline in calls]
    called = [start] + [at for at, _ in calls]
    assert all(called[i] <= begun[i] <= called[i + 1]
               for i in range(len(calls)))


def test_table1_coset_cap_rows(capsys):
    # With 1000 cosets rows 1-5 are classified and rows 6 and 7 overflow:
    # their facet enumerations define 1107 and 9867 cosets.
    code, out, _ = run(capsys, "table1", "--max-cosets", "1000")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert rows[0] == CSV_COLUMNS
    assert [r[4] for r in rows[1:]] == \
        ["3+", "ss-(4,3)", "3+", "ss-(3,3)", "3+", "overflow", "overflow"]
    assert [r[5] for r in rows[6:]] == ["", ""]
    assert [r[6] for r in rows[6:]] == ["coset limit 1000 exceeded"] * 2


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
    code, _, err = run(capsys, "build", "universal:3,6:1,1:1,1",
                       "--config", str(tmp_path))
    assert code == EXIT_BAD_INPUT and err.startswith("error:")
    # extended and jobs are no options any more, so no config keys either;
    # fmt is no spelling of format.
    for name, value in (("extended", "true"), ("extended", "false"),
                        ("jobs", "2"), ("fmt", "md")):
        cfg.write_text(f"{name} = {value}\n")
        code, _, err = run(capsys, "build", "universal:3,6:1,1:1,1",
                           "--config", str(cfg))
        assert code == EXIT_BAD_INPUT and "bad config line" in err, name
    for flag in ("--extended", "--jobs"):
        with pytest.raises(SystemExit) as info:
            main(["table1", flag, "2"])
        assert info.value.code == EXIT_BAD_INPUT, flag
        assert "unrecognized arguments" in capsys.readouterr().err
    # A format outside FORMATS is bad input, as a flag or a config line.
    code, _, err = run(capsys, "build", "universal:3,6:1,1:1,1",
                       "--format", "nope")
    assert (code, err) == (EXIT_BAD_INPUT, "error: unknown format 'nope'\n")
    # Every value is parsed and range-checked, also where a flag
    # overrides it.
    for line, flag in (("max_cosets=abc", ["--max-cosets", "100"]),
                       ("format=nope", ["--format", "csv"]),
                       ("time-budget=soon", ["--time-budget", "5"]),
                       ("max_cosets=0", ["--max-cosets", "100"]),
                       ("time_budget=-1", ["--time-budget", "5"])):
        cfg.write_text(line + "\n")
        for flags in ([], flag):
            code, _, err = run(capsys, "build", "universal:3,6:1,1:1,1",
                               "--config", str(cfg), *flags)
            assert code == EXIT_BAD_INPUT and "bad config line" in err, \
                (line, flags)


def test_gray_verify(capsys):
    code, out, _ = run(capsys, "gray-verify")
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert "index_report: 1296 / 324 = 4" in out
    assert "witness:" in out


def test_gray_verify_past_the_vertex_cap_is_undecided(capsys):
    # An undecided classification is no failed check: the checks on Aut
    # are left out, and the command exits 2 as classify does.
    code, out, err = run(capsys, "gray-verify", "--max-vertices", "10")
    assert code == EXIT_OVERFLOW
    assert err == "undecided: 54 vertices exceed the cap 10\n"
    assert "FAIL" not in out and "index_report" not in out
    assert "isomorphic_to_cubelets_columns: ok" in out
    assert "aut_order_1296" not in out and "witness:" in out
