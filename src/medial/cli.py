"""Command-line surface: build polytope instances by key, classify their
medial layer graphs, reproduce the summary table, and run the 54-vertex
cross-validation pipeline.

Keys:
    universal:3,6:<s1>,<s2>:<t1>,<t2>   universal polytope with toroidal
                                        facets {3,6}_(s1,s2) and vertex
                                        figures {6,3}_(t1,t2)
    eisenstein:m=<expr>:A=<gens>        Eisenstein matrix construction;
                                        <expr> is a product of a+bw factors
                                        separated by '*', <gens> extra unit
                                        scalars (empty: A = {1, -1})

Exit codes: 0 success, 2 overflow/undecided, 3 validation failure,
4 bad input (usage errors included).
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
import time
from dataclasses import dataclass, replace

from . import graphsym
from .catalog import TABLE1_ROWS, ToroidalParams, universal_locally_toroidal
from .eisenstein import (
    EisensteinInt,
    ResidueRing,
    ScalarGroup,
    format_eisenstein,
    parse_eisenstein,
)
from .graphsym import (
    BipartiteCubicGraph,
    Classification,
    GraphError,
    InconsistencyError,
    classify,
    gray_oracle,
    is_isomorphic,
)
from .fpgroup import DEFAULT_MAX_COSETS
from .matgroup import (
    DEFAULT_MAX_ELEMENTS,
    ConfigurationError,
    check_ring_size,
    generate_group,
)
from .permgroup import OverflowResult
from .polytope import (
    PolytopeHandle,
    PolytopeValidationError,
    graph_automorphisms,
    handle_from_matrix_group,
    handle_from_presentation,
    medial_layer_graph,
)

EXIT_OK = 0
EXIT_OVERFLOW = 2
EXIT_VALIDATION = 3
EXIT_BAD_INPUT = 4

CSV_COLUMNS = ["key", "params", "group_order", "N", "verdict", "aut_order",
               "seconds"]
FORMATS = ("csv", "md", "dot", "adj", "graph6")


class BadInput(ValueError):
    """Unrecognized key or malformed argument."""


#: Every option but --config, with its value parser and help: the flag
#: is the name with '-' for '_', the config key the name in either
#: spelling, and the JobSpec field the name itself.
OPTIONS = {
    "max_cosets": (int, "cosets defined by each Todd-Coxeter run"),
    "max_elements": (int, "elements of the matrix closure or base orbit"),
    "time_budget": (float, "budget in seconds for building the group:"
                           " Todd-Coxeter and the base orbit, or matrix"
                           " closure"),
    "max_vertices": (int, "automorphism search cap"),
    "format": (str, "one of " + ", ".join(FORMATS)),
    "output": (str, "write to file"),
}


@dataclass
class JobSpec:
    """One command's settings; its defaults are the CLI's defaults."""

    key: str
    max_cosets: int = DEFAULT_MAX_COSETS
    max_elements: int = DEFAULT_MAX_ELEMENTS
    time_budget: float | None = None
    max_vertices: int = graphsym.DEFAULT_VERTEX_CAP
    format: str = "csv"
    output: str | None = None

    def __post_init__(self):
        if min(self.max_cosets, self.max_elements, self.max_vertices) < 1:
            raise BadInput("limits must be positive")
        # Written so that nan, which compares false, is rejected too.
        if self.time_budget is not None and not self.time_budget > 0:
            raise BadInput("time budget must be positive")
        if self.format not in FORMATS:
            raise BadInput(f"unknown format {self.format!r}")


@dataclass
class InstanceReport:
    key: str
    params: str
    handle: PolytopeHandle
    graph: BipartiteCubicGraph
    classification: Classification | None = None
    seconds: float = 0.0


def parse_eisenstein_product(text: str) -> EisensteinInt:
    """A '*'-separated product of a+bw factors, parentheses optional."""
    value = EisensteinInt(1, 0)
    for part in text.split("*"):
        part = part.strip()
        if part.startswith("(") and part.endswith(")"):
            part = part[1:-1]
        value = value * parse_eisenstein(part)
    return value


def build_instance(spec: JobSpec) -> InstanceReport:
    """Build the group and the graph of ``spec.key``.  The time budget
    starts here, as one deadline for every enumeration and closure."""
    start = time.monotonic()
    deadline = None if spec.time_budget is None else start + spec.time_budget
    parts = spec.key.split(":")
    if parts[0] == "universal":
        if len(parts) != 4 or parts[1] != "3,6":
            raise BadInput(f"malformed universal key {spec.key!r}")
        fields = [field.split(",") for field in parts[2:]]
        if any(len(field) != 2 for field in fields):
            raise BadInput(f"bad toroidal parameters in {spec.key!r}: each"
                           " field takes exactly two integers, as in 1,1")
        try:
            s, t = (tuple(map(int, field)) for field in fields)
            pres = universal_locally_toroidal(ToroidalParams(*s),
                                              ToroidalParams(*t))
        except ValueError as exc:  # ChiralFormUnsupported too
            raise BadInput(f"bad toroidal parameters in {spec.key!r}: {exc}")
        handle = handle_from_presentation(
            pres, spec.key, max_cosets=spec.max_cosets,
            max_elements=spec.max_elements, deadline=deadline)
        # A relator may collapse its map to a smaller one: |G| over the
        # facets (vertices) must be the order 12 v of the map's group.
        for faces, rank, named in (
                ("facets", 3, ToroidalParams(*s)),
                ("vertex figures", 0, ToroidalParams(*t, "6,3"))):
            found = handle.group_order // handle.face_counts[rank]
            if found != 12 * named.v:
                raise PolytopeValidationError(
                    f"{spec.key}: the {faces} collapse from {named} to a"
                    f" map whose group has order {found}, not"
                    f" {12 * named.v}")
        params = _universal_params(s, t)
    elif parts[0] == "eisenstein":
        if len(parts) != 3 or not parts[1].startswith("m=") \
                or not parts[2].startswith("A="):
            raise BadInput(f"malformed eisenstein key {spec.key!r}")
        try:
            m = parse_eisenstein_product(parts[1][2:])
            gens = [parse_eisenstein(g) for g in parts[2][2:].split(",") if g]
            check_ring_size(m, spec.max_elements)
            A = ScalarGroup(ResidueRing(m), gens)
        except ValueError as exc:  # a zero modulus, a scalar not a unit
            raise BadInput(f"bad modulus or scalars in {spec.key!r}: {exc}")
        mg = generate_group(m, A, max_elements=spec.max_elements,
                            deadline=deadline)
        handle = handle_from_matrix_group(mg, spec.key)
        scalars = ",".join(format_eisenstein(x) for x in A.members)
        params = f"m={format_eisenstein(m)} A={{{scalars}}}"
    else:
        raise BadInput(f"unknown key kind {parts[0]!r}")
    graph = medial_layer_graph(handle)
    return InstanceReport(spec.key, params, handle, graph,
                          seconds=time.monotonic() - start)


def classify_instance(spec: JobSpec, report: InstanceReport) -> InstanceReport:
    """Classify the graph, its Aut search seeded with the polytope group,
    and check the verdict against the handle: G is transitive on the
    edges, and a self-dual regular polytope gives a symmetric graph with
    t >= 3.  A contradiction raises InconsistencyError."""
    start = time.monotonic()
    handle = report.handle
    c = classify(report.graph, max_vertices=spec.max_vertices,
                 known=graph_automorphisms(handle))
    if c.verdict == "not-edge-transitive":
        raise InconsistencyError(
            f"{report.key}: the polytope group is transitive on the edges,"
            " but the verdict is not-edge-transitive")
    if handle.self_dual and c.verdict != "undecided" \
            and not (c.verdict == "symmetric" and c.t >= 3):
        raise InconsistencyError(
            f"{report.key}: the polytope is regular and self-dual, but the"
            f" verdict is {c.label()}, not symmetric with t >= 3")
    report.classification = c
    report.seconds += time.monotonic() - start
    return report


def _universal_params(s: tuple[int, int], t: tuple[int, int]) -> str:
    """The params column of a universal key."""
    return f"s=({s[0]},{s[1]}) t=({t[0]},{t[1]})"


def _row(key: str, last: str, params: str = "", group_order: str = "",
         n: str = "", c: Classification | None = None) -> list[str]:
    """A row of CSV_COLUMNS.  With no classification it is an overflow
    row, whose last column is the message; an undecided verdict leaves
    aut_order empty."""
    if c is None:
        return [key, params, group_order, n, "overflow", "", last]
    aut_order = str(c.aut_order) if c.verdict != "undecided" else ""
    return [key, params, group_order, n, c.label(), aut_order, last]


def _classified_row(spec: JobSpec) -> tuple[list[str], Classification]:
    """The row of a key or a graph file, and its classification.  A path
    that names a file is a graph file, even if it contains ':'; anything
    else that contains ':' is a key."""
    if ":" in spec.key and not os.path.isfile(spec.key):
        report = classify_instance(spec, build_instance(spec))
        c = report.classification
        return _row(report.key, f"{report.seconds:.1f}", report.params,
                    str(report.handle.group_order), str(report.graph.n),
                    c), c
    graph = _load_graph(spec.key)
    start = time.monotonic()
    c = classify(graph, max_vertices=spec.max_vertices)
    return _row(spec.key, f"{time.monotonic() - start:.1f}",
                n=str(graph.n), c=c), c


def _emit_rows(rows: list[list[str]], fmt: str, out) -> None:
    """A markdown table for ``md``, else csv, the graph formats too."""
    if fmt == "md":
        out.write("| " + " | ".join(CSV_COLUMNS) + " |\n")
        out.write("|" + "|".join(["---"] * len(CSV_COLUMNS)) + "|\n")
        for r in rows:
            out.write("| " + " | ".join(r) + " |\n")
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
        out.write(buf.getvalue())


def _export_graph(graph: BipartiteCubicGraph, fmt: str, out) -> None:
    if fmt == "dot":
        out.write(graphsym.to_dot(graph))
    elif fmt == "adj":
        out.write(graphsym.to_adjacency_text(graph))
    elif fmt == "graph6":
        try:
            text = graphsym.to_graph6(graph)
        except ValueError as exc:  # past graph6's vertex limit
            raise BadInput(f"{exc}; use --format adj") from None
        out.write(text + "\n")


def cmd_build(spec: JobSpec, out) -> int:
    report = build_instance(spec)
    if spec.format in ("dot", "adj", "graph6"):
        _export_graph(report.graph, spec.format, out)
        return EXIT_OK
    out.write(f"key: {report.key}\n")
    out.write(f"params: {report.params}\n")
    out.write(f"kind: {report.handle.kind}\n")
    out.write(f"schlafli: {report.handle.schlafli}\n")
    out.write(f"group_order: {report.handle.group_order}\n")
    out.write(f"N: {report.graph.n}\n")
    out.write("validation: full\n")
    if report.handle.self_dual is not None:
        out.write(f"self_dual: {report.handle.self_dual}\n")
    out.write(f"seconds: {report.seconds:.1f}\n")
    return EXIT_OK


def _load_graph(path: str) -> BipartiteCubicGraph:
    """Read a .g6/.graph6 or adjacency-text file.  Text that does not decode
    is bad input; a decoded graph that fails validation raises GraphError."""
    decode = (graphsym.from_graph6 if path.endswith((".g6", ".graph6"))
              else graphsym.from_adjacency_text)
    try:
        with open(path) as fh:
            return decode(fh.read())
    except GraphError:
        raise
    except ValueError as exc:  # also a file that is not text
        raise BadInput(f"{path}: {exc}") from None
    except OSError as exc:  # missing, a directory, unreadable
        raise BadInput(str(exc)) from None


def cmd_classify(spec: JobSpec, out) -> int:
    """One row; an undecided verdict also prints its reason on stderr."""
    row, c = _classified_row(spec)
    _emit_rows([row], spec.format, out)
    if c.verdict == "undecided":
        print(f"undecided: {c.reason}", file=sys.stderr)
        return EXIT_OVERFLOW
    return EXIT_OK


def _table1_row(spec: JobSpec, params: str) -> list[str]:
    """The row of one Table 1 key, or its overflow row."""
    try:
        return _classified_row(spec)[0]
    except OverflowResult as exc:
        return _row(spec.key, str(exc), params)


def cmd_table1(spec: JobSpec, out) -> int:
    rows = [_table1_row(
        replace(spec, key=f"universal:3,6:{s[0]},{s[1]}:{t[0]},{t[1]}"),
        _universal_params(s, t)) for s, t in TABLE1_ROWS]
    _emit_rows(rows, spec.format, out)
    return EXIT_OK


def cmd_gray_verify(spec: JobSpec, out) -> int:
    """The checks of the 54-vertex identification.  Past --max-vertices
    the classification is undecided: the checks on Aut are left out, and
    the command exits 2 with the reason on stderr, as ``classify`` does."""
    spec.key = "eisenstein:m=3:A="
    report = classify_instance(spec, build_instance(spec))
    graph, handle, c = report.graph, report.handle, report.classification
    decided = c.verdict != "undecided"
    oracle = gray_oracle()
    ok, witness = is_isomorphic(graph, oracle)
    checks = {
        "rotation_group_order_324": handle.group_order == 324,
        "medial_graph_N_54": graph.n == 54,
        "isomorphic_to_cubelets_columns": ok,
    }
    if decided:
        checks.update({
            "aut_order_1296": c.aut_order == 1296,
            "aut_to_polytope_index_4": c.aut_order == 4 * handle.group_order,
            "semisymmetric": c.verdict == "semisymmetric",
        })
    for name, passed in checks.items():
        out.write(f"{name}: {'ok' if passed else 'FAIL'}\n")
    if ok:
        digest = sum(i * v for i, v in enumerate(witness)) % 10**9
        out.write("witness: " + " ".join(str(v) for v in witness[:14])
                  + f" ... (digest {digest})\n")
    if decided:
        out.write(f"index_report: {c.aut_order} / {handle.group_order} ="
                  f" {c.aut_order // handle.group_order}\n")
    if not all(checks.values()):
        return EXIT_VALIDATION
    if not decided:
        print(f"undecided: {c.reason}", file=sys.stderr)
        return EXIT_OVERFLOW
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # bad input; argparse's 2 is overflow
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    # Options left off the command line stay unset, so a config file can
    # supply them and JobSpec the rest.
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    for name, (parse, text) in OPTIONS.items():
        common.add_argument("--" + name.replace("_", "-"), type=parse,
                            help=text)
    common.add_argument("--config",
                        help="key=value file supplying defaults for any flag")
    parser = _Parser(
        prog="medial",
        description="Medial layer graphs of {3,q,3} polytopes: build and"
                    " classify")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("build", parents=[common]).add_argument("key")
    sub.add_parser("classify", parents=[common]).add_argument(
        "key", help="instance key or graph file")
    sub.add_parser("table1", parents=[common])
    sub.add_parser("gray-verify", parents=[common])
    return parser


def _apply_config(args: argparse.Namespace) -> None:
    """Config-file values stand in for any option not given as a flag.
    Every value is parsed and range-checked, also where a flag overrides
    it."""
    with open(args.config) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if not sep or key not in OPTIONS:
                raise BadInput(f"{args.config}:{lineno}: bad config line"
                               f" {line!r}")
            try:
                parsed = OPTIONS[key][0](value.strip())
                JobSpec("", **{key: parsed})  # its range checks
            except ValueError as exc:  # BadInput from JobSpec too
                raise BadInput(f"{args.config}:{lineno}: bad config line"
                               f" {line!r} ({exc})")
            if key not in args:
                setattr(args, key, parsed)


COMMANDS = {"build": cmd_build, "classify": cmd_classify,
            "table1": cmd_table1, "gray-verify": cmd_gray_verify}


def main(argv: list[str] | None = None) -> int:
    """Run one command.  With --output FILE, FILE is written only once the
    command has returned: an error exit leaves FILE as it was, or absent."""
    args = make_parser().parse_args(argv)
    try:
        if "config" in args:
            _apply_config(args)
        spec = JobSpec(key=getattr(args, "key", ""),
                       **{k: getattr(args, k) for k in OPTIONS if k in args})
        if spec.output is not None:  # fails before any work; changes nothing
            existed = os.path.lexists(spec.output)
            open(spec.output, "a").close()
            if not existed:
                os.remove(spec.output)
    except (BadInput, OSError) as exc:  # OSError: the config or output file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    out = sys.stdout if spec.output is None else io.StringIO()
    try:
        code = COMMANDS[args.command](spec, out)
    except BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OverflowResult as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except (PolytopeValidationError, ConfigurationError, GraphError,
            InconsistencyError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if out is not sys.stdout:
        try:
            with open(spec.output, "w") as fh:
                fh.write(out.getvalue())
        except OSError as exc:  # e.g. its directory went away meanwhile
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
