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
from concurrent.futures import ProcessPoolExecutor
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
    automorphism_group,
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


@dataclass
class JobSpec:
    """One command's settings; its defaults are the CLI's defaults."""

    key: str
    max_cosets: int = DEFAULT_MAX_COSETS
    max_elements: int = DEFAULT_MAX_ELEMENTS
    time_budget: float | None = None
    max_vertices: int = graphsym.DEFAULT_VERTEX_CAP
    fmt: str = "csv"
    extended: bool = False
    jobs: int = 1

    def __post_init__(self):
        if min(self.max_cosets, self.max_elements, self.max_vertices,
               self.jobs) < 1:
            raise BadInput("limits must be positive")
        # Written so that nan, which compares false, is rejected too.
        if self.time_budget is not None and not self.time_budget > 0:
            raise BadInput("time budget must be positive")
        if self.fmt not in FORMATS:
            raise BadInput(f"unknown format {self.fmt!r}")


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
        try:
            s = ToroidalParams(*(int(x) for x in parts[2].split(",")))
            t = ToroidalParams(*(int(x) for x in parts[3].split(",")))
            pres = universal_locally_toroidal(s, t)
        except (TypeError, ValueError) as exc:  # ChiralFormUnsupported too
            raise BadInput(f"bad toroidal parameters in {spec.key!r}: {exc}")
        handle = handle_from_presentation(
            pres, spec.key, max_cosets=spec.max_cosets,
            max_elements=spec.max_elements, deadline=deadline)
        params = f"s=({s.s},{s.t}) t=({t.s},{t.t})"
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
    start = time.monotonic()
    aut = automorphism_group(report.graph, max_vertices=spec.max_vertices)
    report.classification = classify(report.graph, aut,
                                     max_vertices=spec.max_vertices)
    report.seconds += time.monotonic() - start
    return report


def _row(report: InstanceReport) -> list[str]:
    c = report.classification
    return [
        report.key,
        report.params,
        str(report.handle.group_order),
        str(report.graph.n),
        c.label() if c else "",
        str(c.aut_order) if c and c.verdict != "undecided" else "",
        f"{report.seconds:.1f}",
    ]


def _emit_rows(rows: list[list[str]], fmt: str, out) -> None:
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
        out.write(graphsym.to_graph6(graph) + "\n")


def cmd_build(spec: JobSpec, out) -> int:
    report = build_instance(spec)
    if spec.fmt in ("dot", "adj", "graph6"):
        _export_graph(report.graph, spec.fmt, out)
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
    if ":" in spec.key:
        report = classify_instance(spec, build_instance(spec))
        rows = [_row(report)]
        verdict = report.classification.verdict
    else:
        graph = _load_graph(spec.key)
        start = time.monotonic()
        c = classify(graph, max_vertices=spec.max_vertices)
        rows = [[spec.key, "", "", str(graph.n), c.label(),
                 str(c.aut_order) if c.verdict != "undecided" else "",
                 f"{time.monotonic() - start:.1f}"]]
        verdict = c.verdict
    _emit_rows(rows, spec.fmt if spec.fmt in ("csv", "md") else "csv", out)
    return EXIT_OVERFLOW if verdict == "undecided" else EXIT_OK


def _table1_row(spec: JobSpec) -> list[str]:
    """The row of one Table 1 key, or its overflow marker."""
    try:
        return _row(classify_instance(spec, build_instance(spec)))
    except OverflowResult as exc:
        s, t = spec.key.split(":")[2:]
        return [spec.key, f"s=({s}) t=({t})", "", "", "overflow", "",
                str(exc)]


def cmd_table1(spec: JobSpec, out) -> int:
    specs = [replace(spec, key=f"universal:3,6:{s[0]},{s[1]}:{t[0]},{t[1]}")
             for s, t in TABLE1_ROWS
             if spec.extended or (s, t) != ((3, 0), (2, 2))]
    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            rows = list(pool.map(_table1_row, specs))
    else:
        rows = [_table1_row(s) for s in specs]
    _emit_rows(rows, spec.fmt if spec.fmt in ("csv", "md") else "csv", out)
    return EXIT_OK


def cmd_gray_verify(spec: JobSpec, out) -> int:
    spec.key = "eisenstein:m=3:A="
    report = classify_instance(spec, build_instance(spec))
    graph, handle = report.graph, report.handle
    oracle = gray_oracle()
    ok, witness = is_isomorphic(graph, oracle)
    checks = {
        "rotation_group_order_324": handle.group_order == 324,
        "medial_graph_N_54": graph.n == 54,
        "isomorphic_to_cubelets_columns": ok,
        "aut_order_1296": report.classification.aut_order == 1296,
        "aut_to_polytope_index_4":
            report.classification.aut_order == 4 * handle.group_order,
        "semisymmetric": report.classification.verdict == "semisymmetric",
    }
    for name, passed in checks.items():
        out.write(f"{name}: {'ok' if passed else 'FAIL'}\n")
    if ok:
        digest = sum(i * v for i, v in enumerate(witness)) % 10**9
        out.write("witness: " + " ".join(str(v) for v in witness[:14])
                  + f" ... (digest {digest})\n")
    out.write(f"index_report: {report.classification.aut_order} /"
              f" {handle.group_order} ="
              f" {report.classification.aut_order // handle.group_order}\n")
    return EXIT_OK if all(checks.values()) else EXIT_VALIDATION


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # bad input; argparse's 2 is overflow
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    # Options left off the command line stay unset, so a config file can
    # fill them in and JobSpec supplies the rest.
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--max-cosets", type=int)
    common.add_argument("--max-elements", type=int)
    common.add_argument("--time-budget", type=float,
                        help="budget in seconds for building the group:"
                             " Todd-Coxeter and the base orbit, or matrix"
                             " closure")
    common.add_argument("--max-vertices", type=int,
                        help="automorphism search cap")
    common.add_argument("--format", dest="fmt", choices=FORMATS)
    common.add_argument("--extended", action="store_true",
                        help="attempt the long-running table row")
    common.add_argument("--jobs", type=int)
    common.add_argument("--output", help="write to file")
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


_CONFIG_KEYS = {
    "max_cosets": int, "max_elements": int, "time_budget": float,
    "max_vertices": int, "fmt": str,
    "extended": {"true": True, "false": False}.__getitem__,
    "jobs": int, "output": str,
}


def _apply_config(args: argparse.Namespace) -> None:
    """Config-file values fill in any option not given as a flag."""
    with open(args.config) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key == "format":
                key = "fmt"
            if not sep or key not in _CONFIG_KEYS:
                raise BadInput(f"{args.config}:{lineno}: bad config line"
                               f" {line!r}")
            if key not in args:
                try:
                    setattr(args, key, _CONFIG_KEYS[key](value.strip()))
                except (KeyError, ValueError) as exc:
                    raise BadInput(f"{args.config}:{lineno}: bad config line"
                                   f" {line!r} ({exc})")


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
                       **{k: getattr(args, k) for k in _CONFIG_KEYS
                          if k in args and k != "output"})
        if "output" in args:  # fails before any work; changes nothing
            existed = os.path.lexists(args.output)
            open(args.output, "a").close()
            if not existed:
                os.remove(args.output)
    except (BadInput, OSError) as exc:  # OSError: the config or output file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    out = io.StringIO() if "output" in args else sys.stdout
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
            with open(args.output, "w") as fh:
                fh.write(out.getvalue())
        except OSError as exc:  # e.g. its directory went away meanwhile
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
