"""Spans around the program's public functions, for the traced run.

``Tracer`` replaces each listed function of a ``medial`` module, and every
other ``medial`` module's imported reference to it, by a wrapper that
records one span per call: name, start, end, parent span and operation id,
plus the counts the call's result exposes.  Spans stay in memory until
``write`` is called; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field

# layer -> public functions ("Class.method" for methods).  eisenstein has no
# spans of its own: its arithmetic runs inside the matgroup spans.
TRACED = {
    "fpgroup": ("coset_enumeration",),
    "matgroup": ("generate_group", "MatrixGroup.coset_action",
                 "recover_reflection_codes"),
    "polytope": ("handle_from_presentation", "handle_from_matrix_group",
                 "validate_string_cgroup", "self_duality_test",
                 "medial_layer_graph"),
    "graphsym": ("automorphism_group", "classify", "t_arc_count", "validate",
                 "to_graph6", "from_graph6", "to_adjacency_text",
                 "from_adjacency_text"),
    "permgroup": ("PermutationGroup.prefix_stabilizer_orders",
                  "PermutationGroup.transporter",
                  "PermutationGroup.point_orbits"),
    "cli": ("main",),
}


def _counts(name: str, result, error: BaseException | None) -> dict:
    """Counts read from a public result at the span's boundary."""
    if name == "cli.main":
        return {"nonzero_exit": int(error is not None or result != 0)}
    if error is not None:
        return {}
    if name == "fpgroup.coset_enumeration":
        return {"cosets_defined": result.cosets_defined,
                "num_cosets": result.num_cosets}
    if name == "matgroup.generate_group":
        return {"elements": result.order}
    if name == "graphsym.automorphism_group":
        return {"generators": len(result.generators)}
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    op: str
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, 0.0, 0.0, stack[-1] if stack else -1,
                              self.op))
            stack.append(index)
            result, error = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                span = spans[index]
                span.start, span.end = start, end
                span.counts = _counts(name, result, error)

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "medial" or n.startswith("medial.")]
        for layer, names in TRACED.items():
            module = sys.modules[f"medial.{layer}"]
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                span_name = f"{layer}.{attr}"
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(span_name, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(span_name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_metrics(self) -> dict:
        """Self time and calls per span name, and the layers' counts."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        totals: dict[str, int] = {}
        for s, inner in zip(self.spans, child):
            self_s[s.name] = self_s.get(s.name, 0.0) + (s.end - s.start - inner)
            calls[s.name] = calls.get(s.name, 0) + 1
            for k, v in s.counts.items():
                key = f"{s.name}.{k}"
                totals[key] = totals.get(key, 0) + v
        return {"self_s": self_s, "calls": calls, "totals": totals}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def span_cost_s(repeats: int = 20000) -> float:
    """Seconds one span adds to a call, from a wrapped no-op."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("calibration", noop)
    best = float("inf")
    for _ in range(5):
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(repeats):
            wrapped()
        traced = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(repeats):
            noop()
        best = min(best, (traced - (time.perf_counter() - start)) / repeats)
    return max(best, 0.0)
