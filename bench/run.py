"""Benchmark of the medial pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process: it sets up, then repeats whole rounds of
timed calls into the program's public entry points until ``--seconds`` are
used, checks every output against facts made apart from the program, and
prints one JSON line with ``correct``, ``attempted``, ``failed`` and the
metrics: ``small_s``, ``large_s``, ``setup_s`` and ``peak_rss_mb`` untraced,
the per-layer figures with ``--trace 1``.  The inputs are fixed keys, so
the seed only names the run's files.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4  # glibc mallopt parameters


def keep_freed_memory() -> None:
    """Serve every allocation from the heap and never give it back, so the
    peak resident set is the heap's high-water mark rather than a product
    of when glibc maps and trims memory."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:  # not glibc
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_MAX, 0)
    mallopt(M_TRIM_THRESHOLD, 2**31 - 1)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The same hash seed in every run: with random str/bytes hashing the
        # allocation layout, and the peak resident set, varied by process.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    keep_freed_memory()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))


def since_process_start() -> float:
    """Seconds since this process started, from /proc/self/stat."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rpartition(")")[2].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


try:
    from medial import cli, graphsym, polytope
except ImportError as exc:
    sys.exit(f"bench: cannot import the medial package from src/: {exc}")
IMPORT_S = since_process_start()

import checks  # noqa: E402  (after the import time is taken)
import tracing  # noqa: E402
from instances import (  # noqa: E402
    CHIRAL_672, CHIRAL_4368, M2_2W, M3, M3_3W, M4_4W, M6, ROW1, ROW2, ROW4,
    ROW5, ROW6, ROW7, UNIVERSAL_SMALL, Instance)

SMALL_LIMIT = 1000  # N below this is "small", at or above it "large"
SETUP_REPEATS = 3
# The machine's speed drifts: imports and workloads alike ran up to 35%
# faster for minutes at a time.  Timings are therefore scaled by the run's
# median duration of reference_loop(), sampled between passes, to the
# REFERENCE_S it takes at the reference speed.
REFERENCE_S = 0.02
REFERENCE_SAMPLES = 10


def reference_loop() -> int:
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


def reference_samples() -> list[float]:
    """Durations of a few runs of reference_loop()."""
    samples = []
    for _ in range(REFERENCE_SAMPLES):
        start = time.perf_counter()
        reference_loop()
        samples.append(time.perf_counter() - start)
    return samples


@dataclass
class CliResult:
    rc: int
    stdout: str
    graph: object  # the medial layer graph the call built, if any


@dataclass
class Op:
    label: str
    n: int  # vertices of the graph it works on; 0 for malformed input
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    expect_rc: int | None = 0  # None for library calls without an exit code


class Session:
    """State shared by the operations of one run."""

    def __init__(self):
        self.graphs: list = []
        self.gray_checked: set[str] = set()

    @contextlib.contextmanager
    def capturing_graphs(self):
        """Keep each medial layer graph the CLI builds, for the checks."""
        original = cli.medial_layer_graph

        def keep(handle):
            graph = polytope.medial_layer_graph(handle)
            self.graphs.append(graph)
            return graph

        cli.medial_layer_graph = keep
        try:
            yield
        finally:
            cli.medial_layer_graph = original

    def call_cli(self, argv: list[str]) -> CliResult:
        self.graphs.clear()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        graph = self.graphs[-1] if self.graphs else None
        self.graphs.clear()
        return CliResult(rc, buf.getvalue(), graph)

    def gray_problems(self, inst: Instance, adj) -> list[str]:
        if not inst.gray or inst.key in self.gray_checked:
            return []
        self.gray_checked.add(inst.key)
        return [] if checks.is_gray_graph(adj) else [
            "54-vertex graph is not isomorphic to the LCF Gray graph"]


def csv_row(text: str) -> dict[str, str]:
    rows = list(csv.reader(io.StringIO(text)))
    return dict(zip(rows[0], rows[-1]))


def key_value_lines(text: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in text.splitlines()
                if ": " in line)


def instance_problems(session: Session, inst: Instance, n: int,
                      group_order: int, graph) -> list[str]:
    """N, |G|, the graph's shape and, once, the Gray identification."""
    want_n, problems = checks.expected_n(inst)
    if n != want_n:
        problems.append(f"N = {n}, expected {want_n}")
    want_g = checks.expected_group_order(inst, want_n)
    if group_order != want_g:
        problems.append(f"|G| = {group_order}, expected {want_g}")
    if graph is None:
        problems.append("no medial layer graph was built")
    else:
        problems += checks.graph_problems(graph.adj, want_n)
        if not problems:
            problems += session.gray_problems(inst, graph.adj)
    return problems


# -- workloads ---------------------------------------------------------------------

def classify_key_op(session: Session, inst: Instance) -> Op:
    def check(out: CliResult) -> list[str]:
        row = csv_row(out.stdout)
        n, g = int(row["N"]), int(row["group_order"])
        return instance_problems(session, inst, n, g, out.graph) + \
            checks.verdict_problems(inst, row["verdict"],
                                    int(row["aut_order"]), n, g)

    return Op(inst.key, checks.expected_n(inst)[0],
              lambda: session.call_cli(["classify", inst.key]), check)


def build_op(session: Session, inst: Instance) -> Op:
    def check(out: CliResult) -> list[str]:
        info = key_value_lines(out.stdout)
        problems = instance_problems(session, inst, int(info["N"]),
                                     int(info["group_order"]), out.graph)
        if info["kind"] != checks.expected_kind(inst):
            problems.append(f"kind {info['kind']}, expected"
                            f" {checks.expected_kind(inst)}")
        return problems

    return Op(inst.key, checks.expected_n(inst)[0],
              lambda: session.call_cli(["build", inst.key]), check)


def file_classify_op(session: Session, inst: Instance, source: CliResult,
                     path: str) -> Op:
    """Classify a file written from ``source``, the output of ``build``;
    the source's N, |G| and graph are checked with the verdict."""
    info = key_value_lines(source.stdout)

    def check(out: CliResult) -> list[str]:
        row = csv_row(out.stdout)
        n, g = int(row["N"]), int(info["group_order"])
        return instance_problems(session, inst, n, g, source.graph) + \
            checks.verdict_problems(inst, row["verdict"],
                                    int(row["aut_order"]), n, g,
                                    ordered=False)

    return Op(os.path.basename(path), source.graph.n,
              lambda: session.call_cli(["classify", path]), check)


def round_trip_op(session: Session, inst: Instance, source: CliResult,
                  fmt: str) -> Op:
    """Export ``source``'s graph and read it back, in memory."""
    graph = source.graph
    info = key_value_lines(source.stdout)

    if fmt == "graph6":
        def run():
            return graphsym.from_graph6(graphsym.to_graph6(graph))
    else:
        def run():
            return graphsym.from_adjacency_text(
                graphsym.to_adjacency_text(graph))

    def check(back) -> list[str]:
        problems = instance_problems(session, inst, back.n,
                                     int(info["group_order"]), graph)
        problems += checks.graph_problems(back.adj, graph.n)
        if not checks.same_edges(back.adj, graph.adj):
            problems.append(f"{fmt} round trip changed the edges")
        if fmt == "adjacency" and not (back.types == graph.types).all():
            problems.append("adjacency round trip changed the types")
        return problems

    return Op(f"{inst.key} {fmt}", graph.n, run, check, expect_rc=None)


def malformed_op(session: Session, path: str) -> Op:
    """Documented outcome: exit 4 (bad input)."""
    return Op(f"malformed {os.path.basename(path)}", 0,
              lambda: session.call_cli(["classify", path]), lambda out: [],
              expect_rc=cli.EXIT_BAD_INPUT)


def warm_up(session: Session) -> None:
    """One call along every traced path, so first-call costs are paid in
    set-up and every layer has spans in every workload."""
    for argv in (["classify", ROW1.key], ["build", M3.key]):
        out = session.call_cli(argv)
        if out.rc != 0:
            raise RuntimeError(f"warm-up {argv} exited {out.rc}")
    graph = out.graph  # the m = 3 graph
    graphsym.from_graph6(graphsym.to_graph6(graph))
    graphsym.from_adjacency_text(graphsym.to_adjacency_text(graph))


def key_ops(make_op: Callable) -> Callable:
    def prepare(session, instances, workdir):
        warm_up(session)
        return [make_op(session, inst) for inst in instances]

    return prepare


def prepare_graph_files(session, instances, workdir):
    """Build each source graph and write the small ones, in alternating
    formats, and three malformed files to disk."""
    warm_up(session)
    ops, small_count = [], 0
    for inst in instances:
        source = session.call_cli(["build", inst.key])
        if source.rc != 0:
            raise RuntimeError(f"set-up build {inst.key} exited {source.rc}")
        graph = source.graph
        if graph.n >= SMALL_LIMIT:
            ops += [round_trip_op(session, inst, source, "graph6"),
                    round_trip_op(session, inst, source, "adjacency")]
            continue
        ext = (".g6", ".adj")[small_count % 2]
        small_count += 1
        path = os.path.join(workdir, f"n{graph.n}{ext}")
        with open(path, "w") as fh:
            fh.write(graphsym.to_graph6(graph) + "\n" if ext == ".g6"
                     else graphsym.to_adjacency_text(graph))
        ops.append(file_classify_op(session, inst, source, path))
    for name, text in (("empty.g6", ""), ("truncated.g6", "A\n"),
                       ("bad-line.adj", "0: 1 2 3\n")):
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        ops.append(malformed_op(session, path))
    return ops


@dataclass(frozen=True)
class Workload:
    instances: tuple[Instance, ...]
    prepare: Callable  # (session, instances, workdir) -> list of Op
    small_passes: int  # small passes per round; each round has one large pass


WORKLOADS = {
    "classify-key": Workload(
        UNIVERSAL_SMALL + (M3, M2_2W, CHIRAL_672, M3_3W),
        key_ops(classify_key_op), small_passes=1),
    "build": Workload(
        UNIVERSAL_SMALL + (M3, M2_2W, CHIRAL_672, M3_3W, ROW6, ROW7, M6,
                           M4_4W, CHIRAL_4368),
        key_ops(build_op), small_passes=4),
    "graph-file": Workload(
        (ROW2, ROW4, ROW5, CHIRAL_672, M3_3W, M6),
        prepare_graph_files, small_passes=1),
}


# -- measurement ----------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # completed operations whose output failed a check


def run_pass(ops: list[Op], tally: Tally, tracer, tag: str) -> float:
    """Time each operation of one pass; return the sum."""
    total = 0.0
    for op in ops:
        if tracer is not None:
            tracer.op = f"{tag}:{op.label}"
        gc.collect()
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a crash is a failed operation, not a stop
            out = exc
        total += time.perf_counter() - start
        tally.attempted += 1
        if isinstance(out, Exception):
            problems = [f"raised {type(out).__name__}: {out}"]
        elif op.expect_rc is not None and out.rc != op.expect_rc:
            problems = [f"exit {out.rc}, expected {op.expect_rc}"]
        else:
            try:
                problems = op.check(out)
            except (KeyError, ValueError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            tally.wrong += bool(problems)
        if problems:
            tally.failed += 1
            print(f"FAILED {op.label}: {'; '.join(problems)}", file=sys.stderr)
    return total


def measure(workload: str, seed: int, seconds: float, trace: bool,
            instances: tuple[Instance, ...] | None = None) -> dict:
    """One run of a workload; returns the result object that is printed."""
    wl = WORKLOADS[workload]
    instances = wl.instances if instances is None else instances
    session = Session()
    tally = Tally()
    tracer = tracing.Tracer() if trace else None
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"graphs-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wall_start = time.perf_counter()
    try:
        with session.capturing_graphs(), \
                (tracer if tracer else contextlib.nullcontext()):
            prepare_s = []
            for _ in range(SETUP_REPEATS):
                gc.collect()
                start = time.perf_counter()
                ops = wl.prepare(session, instances, workdir)
                prepare_s.append(time.perf_counter() - start)
            small = [op for op in ops if op.n < SMALL_LIMIT]
            large = [op for op in ops if op.n >= SMALL_LIMIT]
            times = {"small": [], "large": []}
            references = reference_samples()

            def timed_pass(kind: str, ops: list[Op], tag: str) -> None:
                times[kind].append(run_pass(ops, tally, tracer, tag))
                references.extend(reference_samples())

            start, rounds = time.perf_counter(), 0
            while True:
                for p in range(wl.small_passes):
                    timed_pass("small", small, f"r{rounds}.small{p}")
                if large:
                    timed_pass("large", large, f"r{rounds}.large")
                rounds += 1
                elapsed = time.perf_counter() - start
                if elapsed * (rounds + 1) / rounds > seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall_s = time.perf_counter() - wall_start

    def median(values):
        return statistics.median(values) if values else 0.0

    scale = REFERENCE_S / median(references)
    print(f"unscaled: small {times['small']} s, large {times['large']} s,"
          f" set-up {IMPORT_S:.3f} + {prepare_s} s; reference loop"
          f" {median(references) * 1000:.2f} ms", file=sys.stderr)
    small_s = median(times["small"]) * scale
    large_s = median(times["large"]) * scale
    if not trace:
        metrics = {
            "small_s": (small_s, "s"),
            "large_s": (large_s, "s"),
            "setup_s": ((IMPORT_S + median(prepare_s)) * scale, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
    else:
        metrics = per_layer_metrics(tracer, wall_s, small_s, large_s)
        tracer.write(os.path.join(
            OUT_DIR, f"trace-{workload}-seed{seed}.json"))
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def per_layer_metrics(tracer, wall_s: float, small_s: float,
                      large_s: float) -> dict:
    got = tracer.layer_metrics()
    self_s, calls, totals = got["self_s"], got["calls"], got["totals"]
    metrics = {}
    for layer, names in tracing.TRACED.items():
        for qual in names:
            name = f"{layer}.{qual.rpartition('.')[2]}"
            metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
            metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    defined = totals.get("fpgroup.coset_enumeration.cosets_defined", 0)
    kept = totals.get("fpgroup.coset_enumeration.num_cosets", 0)
    metrics["fpgroup.cosets_defined"] = (defined, "count")
    metrics["fpgroup.cosets_kept_ratio"] = (kept / defined if defined else 0.0,
                                            "ratio")
    metrics["matgroup.elements"] = (
        totals.get("matgroup.generate_group.elements", 0), "count")
    metrics["graphsym.aut_generators"] = (
        totals.get("graphsym.automorphism_group.generators", 0), "count")
    metrics["cli.main.nonzero_exits"] = (
        totals.get("cli.main.nonzero_exit", 0), "count")
    spans = len(tracer.spans)
    metrics["trace.spans"] = (spans, "count")
    metrics["trace.overhead_pct"] = (
        100 * spans * tracing.span_cost_s() / wall_s, "%")
    metrics["trace.small_s"] = (small_s, "s")
    metrics["trace.large_s"] = (large_s, "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    line = json.dumps(result)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
