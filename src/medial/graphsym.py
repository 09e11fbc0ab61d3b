"""Symmetry analysis of bipartite cubic graphs.

Provides validated bipartite cubic graphs, automorphism groups computed by
color refinement with individualization (orbit-stabilizer over a base of
individualized vertices, then one search for a type swap that tries one
root candidate per orbit of the type-preserving group already found: the
automorphism pruning of McKay & Piperno, Practical graph isomorphism II,
J. Symb. Comput. 60 (2014), section 3), non-backtracking t-arc machinery,
and the classification of a graph as

* Symmetric {t, sign}: one vertex orbit, transitive on t-arcs but not on
  (t+1)-arcs; the sign is read off the shunts tau1, tau2 (the unique
  automorphisms advancing a base t-arc onto its two extensions) and the
  arc reverser alpha: conjugating tau1 by alpha gives tau1^-1 for "+" and
  tau2^-1 for "-".
* Semisymmetric {t1, t2}: two vertex orbits but one edge orbit, with the
  per-type maximal arc-transitivity levels.
* NotEdgeTransitive otherwise, or Undecided past the configured caps.

Arc transitivity is read off its definition: the Aut-orbit of one probe
arc is enumerated with ``permgroup.orbit``, the orbit of each prefix
probe[:k] is the set of k-prefixes of that orbit, and the graph is t-arc
transitive when the t-prefix orbit holds all n_j * 3 * 2^(t-1) t-arcs.
Orbit-stabilizer gives the stabilizer tower |Aut_{arc[:k]}| =
|Aut| / |orbit of arc[:k]|.  The shunts and the reverser come from the
same individualization search that computes Aut.  No stabilizer chain is
built.

Symmetric verdicts are cross-checked on the spot: |Aut| = 3 N 2^(t-1), the
pointwise stabilizers of the base arc truncations have orders
[1, 2, ..., 2^(t-1), 3*2^(t-1)], and exactly one sign identity holds.  Every
orbit size must divide the order the search found.

Also here: the 54-vertex cubelets-and-columns incidence graph (27 cells of
the 3x3x3 cube vs. its 27 axis-aligned columns of 3), isomorphism testing
with explicit witness, and adjacency-list / DOT / graph6 exporters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .permgroup import Permutation, PermutationGroup, orbit

MAX_SYMMETRIC_T = 5   # Tutte's bound for cubic symmetric graphs
MAX_SEMI_T = 7        # bound for per-type arc transitivity
DEFAULT_VERTEX_CAP = 10**4


class GraphError(ValueError):
    """Raised when raw input is not a connected bipartite cubic graph."""


class InconsistencyError(RuntimeError):
    """An automorphism-group result contradicts a structural theorem."""


@dataclass(frozen=True)
class BipartiteCubicGraph:
    """A simple connected trivalent graph with a 2-coloring into types 1, 2."""

    types: np.ndarray  # shape (n,), values 1 or 2
    adj: np.ndarray    # shape (n, 3), sorted neighbor ids

    @property
    def n(self) -> int:
        return len(self.types)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(v, int(w)) for v in range(self.n) for w in self.adj[v] if v < w]

    def vertices_of_type(self, t: int) -> np.ndarray:
        return np.flatnonzero(self.types == t)

    def relabeled(self, perm: Sequence[int]) -> "BipartiteCubicGraph":
        """The same graph with vertex v renamed perm[v]."""
        p = np.asarray(perm, dtype=np.int32)
        inv = np.empty_like(p)
        inv[p] = np.arange(self.n, dtype=np.int32)
        types = np.empty_like(self.types)
        types[p] = self.types
        adj = np.sort(p[self.adj[inv]], axis=1)
        return BipartiteCubicGraph(types, adj)


def validate(neighbors: Sequence[Iterable[int]],
             types: Sequence[int]) -> BipartiteCubicGraph:
    """Validate raw adjacency into a BipartiteCubicGraph.

    Checks: degree 3, simple (no loops/multi-edges), symmetric adjacency,
    connected, and edges only between the two type classes (which therefore
    form the bipartition, with equal halves).
    """
    n = len(neighbors)
    if len(types) != n:
        raise GraphError(f"{len(types)} type labels for {n} vertices")
    t = np.asarray(types, dtype=np.int8)
    if not set(np.unique(t)) <= {1, 2}:
        raise GraphError("vertex types must be 1 or 2")
    rows = []
    for v, nbrs in enumerate(neighbors):
        row = sorted(int(x) for x in nbrs)
        if len(row) != 3:
            raise GraphError(f"vertex {v} has degree {len(row)}, not 3")
        if len(set(row)) != 3 or v in row:
            raise GraphError(f"vertex {v} has a loop or repeated edge")
        if any(x < 0 or x >= n for x in row):
            raise GraphError(f"vertex {v} has a neighbor out of range")
        rows.append(row)
    adj = np.asarray(rows, dtype=np.int32)
    for v in range(n):
        for w in adj[v]:
            if v not in adj[w]:
                raise GraphError(f"edge {v}-{w} is not symmetric")
            if t[v] == t[w]:
                raise GraphError(
                    f"edge {v}-{w} joins two vertices of type {t[v]}")
    # Connectivity by BFS.
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = adj[frontier].ravel()
        fresh = nxt[~seen[nxt]]
        seen[fresh] = True
        frontier = list(set(int(x) for x in fresh))
    if not seen.all():
        raise GraphError("graph is disconnected")
    if int((t == 1).sum()) != int((t == 2).sum()):
        raise GraphError("type classes have unequal sizes")
    return BipartiteCubicGraph(t, adj)


# ---------------------------------------------------------------------------
# Color refinement and individualization search
# ---------------------------------------------------------------------------

def _row_ranks(sig: np.ndarray) -> np.ndarray:
    """Rank of each row among the distinct rows in lexicographic order: the
    inverse of ``np.unique(sig, axis=0)``, by one lexsort instead of the
    row-as-void sort that np.unique makes."""
    order = np.lexsort(sig.T[::-1])
    ordered = sig[order]
    new = np.ones(len(sig), dtype=np.int64)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ranks = np.empty(len(sig), dtype=np.int64)
    ranks[order] = np.cumsum(new) - 1
    return ranks


def _refine_joint(adjA: np.ndarray, adjB: np.ndarray,
                  colA: np.ndarray, colB: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray] | None:
    """Stable joint refinement of both colorings in a shared color space.

    Returns None as soon as the per-color counts of the two sides diverge
    (no isomorphism compatible with the colorings can exist).
    """
    nA = len(colA)
    prev = -1
    while True:
        sigA = np.concatenate([colA[:, None], np.sort(colA[adjA], axis=1)], axis=1)
        sigB = np.concatenate([colB[:, None], np.sort(colB[adjB], axis=1)], axis=1)
        inverse = _row_ranks(np.vstack([sigA, sigB]))
        colA, colB = inverse[:nA], inverse[nA:]
        distinct = int(inverse.max()) + 1
        cntA = np.bincount(colA, minlength=distinct)
        cntB = np.bincount(colB, minlength=distinct)
        if not np.array_equal(cntA, cntB):
            return None
        if distinct == prev:
            return colA, colB
        prev = distinct


def _search_mapping(adjA: np.ndarray, adjB: np.ndarray,
                    colA: np.ndarray, colB: np.ndarray,
                    _gens: Sequence[np.ndarray] = ()) -> np.ndarray | None:
    """Color-respecting isomorphism A -> B by individualization-refinement.

    Optional root pruning: ``_gens`` are automorphisms of B that preserve
    colB.  The root target cell is cut to one candidate per ``_gens``-orbit,
    since two candidates in one orbit root equivalent subtrees (McKay &
    Piperno, Practical graph isomorphism II, J. Symb. Comput. 60 (2014),
    section 3).  Below the root the search runs unpruned.
    """
    refined = _refine_joint(adjA, adjB, colA, colB)
    if refined is None:
        return None
    colA, colB = refined
    counts = np.bincount(colA)
    branch = [c for c in np.flatnonzero(counts > 1)]
    if not branch:
        # Discrete: match by color and verify adjacency.
        mapping = np.empty(len(colA), dtype=np.int32)
        mapping[np.argsort(colA, kind="stable")] = np.argsort(colB, kind="stable")
        ok = np.array_equal(np.sort(mapping[adjA], axis=1),
                            adjB[mapping])
        return mapping if ok else None
    c = min(branch, key=lambda c: (counts[c], c))
    fresh = int(max(colA.max(), colB.max())) + 1
    u = int(np.flatnonzero(colA == c)[0])
    colA = colA.copy()
    colA[u] = fresh
    covered: set[int] = set()
    for v in np.flatnonzero(colB == c):
        v = int(v)
        if v in covered:
            continue
        covered |= orbit([v], _gens, _image)
        colB2 = colB.copy()
        colB2[v] = fresh
        found = _search_mapping(adjA, adjB, colA, colB2)
        if found is not None:
            return found
    return None


def _individualized(base: np.ndarray, fixed: Sequence[int]) -> np.ndarray:
    col = base.astype(np.int64).copy()
    start = int(base.max()) + 1
    for i, v in enumerate(fixed):
        col[v] = start + i
    return col


def _image(x: int, g: np.ndarray) -> int:
    return int(g[x])


@dataclass
class AutomorphismResult:
    """Automorphism group of a graph, or an explicit undecided marker."""

    status: str  # "ok" | "undecided"
    order: int = 0
    group: PermutationGroup | None = None
    generators: list[Permutation] = field(default_factory=list)
    vertex_orbits: list[set[int]] = field(default_factory=list)
    reason: str = ""


def automorphism_group(G: BipartiteCubicGraph,
                       max_vertices: int = DEFAULT_VERTEX_CAP) -> AutomorphismResult:
    """Generators and exact order of Aut(G).

    The type-preserving subgroup comes from orbit-stabilizer over
    individualized base vertices; one extra search then looks for a
    type-swapping automorphism (the subgroup has index at most 2).  That
    search tries one root candidate per orbit of the subgroup (McKay &
    Piperno 2014, section 3): to prove that an edge-transitive graph has no
    swap it tries one vertex of the other type, not all N/2.
    """
    if G.n > max_vertices:
        return AutomorphismResult(
            "undecided",
            reason=f"{G.n} vertices exceed the cap {max_vertices}")
    adj = G.adj
    base_colors = G.types.astype(np.int64)
    gens: list[np.ndarray] = []
    order = 1
    fixed: list[int] = []
    while True:
        col = _individualized(base_colors, fixed)
        refined = _refine_joint(adj, adj, col, col)
        assert refined is not None
        col, _ = refined
        counts = np.bincount(col)
        branch = np.flatnonzero(counts > 1)
        if len(branch) == 0:
            break
        c = min((int(x) for x in branch), key=lambda c: (counts[c], c))
        cell = [int(v) for v in np.flatnonzero(col == c)]
        b = cell[0]
        level_gens = [g for g in gens if all(g[f] == f for f in fixed)]
        b_orbit = orbit([b], level_gens, _image)
        colA = _individualized(base_colors, fixed + [b])
        for v in cell[1:]:
            if v in b_orbit:
                continue
            colB = _individualized(base_colors, fixed + [v])
            found = _search_mapping(adj, adj, colA, colB)
            if found is not None:
                gens.append(found)
                level_gens.append(found)
                b_orbit = orbit([b], level_gens, _image)
        order *= len(b_orbit)
        fixed.append(b)
    # Type-swapping coset: search with the type roles exchanged on one side,
    # pruned by the type-preserving group just found, which preserves the
    # swapped colouring too.
    swapped = np.where(G.types == 1, 2, 1).astype(np.int64)
    swap = _search_mapping(adj, adj, base_colors, swapped, gens)
    if swap is not None:
        gens.append(swap)
        order *= 2
    perms = [Permutation(g) for g in gens]
    group = PermutationGroup(perms, degree=G.n)
    orbits = group.point_orbits()
    return AutomorphismResult("ok", order=order, group=group,
                              generators=perms, vertex_orbits=orbits)


# ---------------------------------------------------------------------------
# Arcs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Arc:
    """A non-backtracking walk [v0, ..., vt]."""

    vertices: tuple[int, ...]

    @property
    def t(self) -> int:
        return len(self.vertices) - 1

    @classmethod
    def check(cls, G: BipartiteCubicGraph, vertices: Sequence[int]) -> "Arc":
        vs = tuple(int(v) for v in vertices)
        for i in range(len(vs) - 1):
            if vs[i + 1] not in G.neighbors(vs[i]):
                raise GraphError(f"arc step {vs[i]}->{vs[i+1]} is not an edge")
            if i >= 1 and vs[i + 1] == vs[i - 1]:
                raise GraphError(f"arc backtracks at position {i}")
        return cls(vs)


def base_arc(G: BipartiteCubicGraph, start: int, t: int) -> Arc:
    """Deterministic base t-arc: always step to the smallest allowed vertex."""
    vs = [start]
    for _ in range(t):
        prev = vs[-2] if len(vs) >= 2 else -1
        nxt = min(w for w in G.neighbors(vs[-1]) if w != prev)
        vs.append(nxt)
    return Arc.check(G, vs)


def t_arc_count(G: BipartiteCubicGraph, jtype: int, t: int) -> int:
    """Number of t-arcs starting at type-j vertices: n_j * 3 * 2^(t-1), as a
    non-backtracking walk in a cubic graph has 3 first steps and 2 after."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return int((G.types == jtype).sum()) * 3 * 2 ** (t - 1)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@dataclass
class Classification:
    """Symmetry verdict with its witnesses."""

    verdict: str  # "symmetric" | "semisymmetric" | "not-edge-transitive" | "undecided"
    n: int
    aut_order: int = 0
    vertex_orbit_count: int = 0
    edge_orbit_count: int = 0
    t: int | None = None
    sign: str | None = None           # "+" | "-" for symmetric verdicts
    t_pair: tuple[int, int] | None = None  # (t1, t2) for semisymmetric
    type_order: str = "polytope"      # or "unordered" without provenance
    stabilizer_orders: list[int] = field(default_factory=list)
    reason: str = ""

    def label(self) -> str:
        if self.verdict == "symmetric":
            return f"{self.t}{self.sign}"
        if self.verdict == "semisymmetric":
            return f"ss-({self.t_pair[0]},{self.t_pair[1]})"
        return self.verdict


def _prefix_orbit_sizes(aut: AutomorphismResult,
                        vertices: Sequence[int]) -> list[int]:
    """Sizes of the Aut-orbits of vertices[:k] for k = 0..len(vertices).

    The orbit of a prefix is the set of prefixes of the orbit of the whole
    tuple, so one tuple orbit gives them all.  By orbit-stabilizer each
    size divides |Aut|, and |Aut_{vertices[:k]}| = |Aut| / size; a size
    that does not divide contradicts the order the search found.
    """
    arcs = aut.group.orbit(vertices)
    sizes = [len({a[:k] for a in arcs}) for k in range(len(vertices) + 1)]
    for k, size in enumerate(sizes):
        if aut.order % size:
            raise InconsistencyError(
                f"orbit of {size} {k}-tuples does not divide |Aut| = {aut.order}")
    return sizes


def _max_arc_transitivity(G: BipartiteCubicGraph, aut: AutomorphismResult,
                          jtypes: tuple[int, ...], tmax: int
                          ) -> tuple[int, Arc, list[int]]:
    """Largest t <= tmax with one orbit on the t-arcs that start at vertices
    of the types ``jtypes``, with the probe (tmax+1)-arc from the first
    type's first vertex and its prefix orbit sizes for reuse."""
    start = int(G.vertices_of_type(jtypes[0])[0])
    probe = base_arc(G, start, tmax + 1)
    sizes = _prefix_orbit_sizes(aut, probe.vertices)
    best = 0
    for t in range(1, tmax + 1):
        if sizes[t + 1] != sum(t_arc_count(G, j, t) for j in jtypes):
            break
        best = t
    return best, probe, sizes


def stabilizer_sequence(G: BipartiteCubicGraph, aut: AutomorphismResult,
                        arc: Arc) -> list[int]:
    """Orders |B_0|, ..., |B_t| where B_j fixes the first t-j+1 arc
    vertices pointwise (B_0 the whole arc, B_t only the start vertex)."""
    t = arc.t
    sizes = _prefix_orbit_sizes(aut, arc.vertices)
    return [aut.order // sizes[t + 1 - j] for j in range(t + 1)]


def shunts_and_sign(G: BipartiteCubicGraph, aut: AutomorphismResult,
                    arc: Arc) -> tuple[Permutation, Permutation, Permutation, str]:
    """The two shunts, the reverser, and the sign of a symmetric graph.

    Each is the automorphism carrying the arc onto a target arc, found by
    one isomorphism search between colourings that individualize the two
    arcs.  The base colouring ignores the vertex types, since a shunt
    swaps them; the map is unique when the arc's stabilizer is trivial.
    """
    vs = arc.vertices
    plain = np.zeros(G.n, dtype=np.int64)
    source = _individualized(plain, vs)

    def carry(target: tuple[int, ...]) -> Permutation | None:
        found = _search_mapping(G.adj, G.adj, source,
                                _individualized(plain, target))
        return None if found is None else Permutation(found)

    ys = sorted(w for w in G.neighbors(vs[-1]) if w != vs[-2])
    tau = []
    for y in ys:
        g = carry(vs[1:] + (y,))
        if g is None:
            raise InconsistencyError("shunt does not exist; graph is not"
                                     f" {arc.t}-transitive")
        tau.append(g)
    alpha = carry(tuple(reversed(vs)))
    if alpha is None:
        raise InconsistencyError("arc reverser does not exist")
    ident = Permutation.identity(G.n)
    if alpha * alpha != ident:
        raise InconsistencyError("arc reverser is not an involution")
    conj = alpha * tau[0] * alpha
    hit1 = conj == tau[0].inverse()
    hit2 = conj == tau[1].inverse()
    if hit1 == hit2:
        raise InconsistencyError(
            "sign undefined: conjugated shunt matches"
            f" {'both' if hit1 else 'neither'} inverse shunt")
    return tau[0], tau[1], alpha, "+" if hit1 else "-"


def classify(G: BipartiteCubicGraph,
             aut: AutomorphismResult | None = None,
             max_vertices: int = DEFAULT_VERTEX_CAP,
             type_order: str = "polytope") -> Classification:
    """Full symmetry classification; symmetric verdicts are verified against
    the structural constraints (order formula, stabilizer tower, sign)."""
    if aut is None:
        aut = automorphism_group(G, max_vertices=max_vertices)
    if aut.status != "ok":
        return Classification("undecided", n=G.n, reason=aut.reason,
                              type_order=type_order)
    n = G.n
    orbit_count = len(aut.vertex_orbits)
    result = Classification("not-edge-transitive", n=n, aut_order=aut.order,
                            vertex_orbit_count=orbit_count,
                            type_order=type_order)
    if orbit_count == 1:
        # One vertex orbit: arcs from both types lie in one orbit family,
        # so totals count starts of both types.
        t, probe, sizes = _max_arc_transitivity(G, aut, (1, 2),
                                                MAX_SYMMETRIC_T)
        if t == 0:
            result.verdict = "not-edge-transitive"
            return result
        arc = Arc.check(G, probe.vertices[:t + 1])
        # The tower of the arc, read off the probe's prefix orbits: the arc
        # is a prefix of the probe.
        seq = [aut.order // sizes[t + 1 - j] for j in range(t + 1)]
        expected = [1] + [2 ** j for j in range(1, t)] + [3 * 2 ** (t - 1)]
        if seq != expected:
            raise InconsistencyError(
                f"stabilizer tower {seq} differs from expected {expected}")
        if aut.order != 3 * n * 2 ** (t - 1):
            raise InconsistencyError(
                f"|Aut| = {aut.order} differs from 3N*2^(t-1)"
                f" = {3 * n * 2 ** (t - 1)}")
        _, _, _, sign = shunts_and_sign(G, aut, arc)
        result.verdict = "symmetric"
        result.t = t
        result.sign = sign
        result.stabilizer_orders = seq
        result.edge_orbit_count = 1
        return result
    if orbit_count == 2:
        t1, _, _ = _max_arc_transitivity(G, aut, (1,), MAX_SEMI_T)
        t2, _, _ = _max_arc_transitivity(G, aut, (2,), MAX_SEMI_T)
        if t1 >= 1 and t2 >= 1:
            result.verdict = "semisymmetric"
            result.t_pair = (t1, t2)
            result.edge_orbit_count = 1
            return result
    return result


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------

def is_isomorphic(G: BipartiteCubicGraph, H: BipartiteCubicGraph
                  ) -> tuple[bool, list[int] | None]:
    """Isomorphism test with an explicit vertex bijection witness.

    Both pairings of the type classes are attempted, so type labels do not
    have to agree between the two inputs.
    """
    if G.n != H.n:
        return False, None
    for hcolors in (H.types.astype(np.int64),
                    np.where(H.types == 1, 2, 1).astype(np.int64)):
        mapping = _search_mapping(G.adj, H.adj, G.types.astype(np.int64),
                                  hcolors)
        if mapping is not None:
            return True, [int(x) for x in mapping]
    return False, None


# ---------------------------------------------------------------------------
# The cubelets-and-columns graph
# ---------------------------------------------------------------------------

def gray_oracle() -> BipartiteCubicGraph:
    """Incidence graph of the 27 cells of the 3x3x3 cube (type 2) and its
    27 axis-aligned columns of 3 cells (type 1); independent of the rest of
    the pipeline, for cross-validation.  Types are a convention here, not
    polytope provenance."""
    cubelets = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
    columns = [(axis, a, b) for axis in range(3)
               for a in range(3) for b in range(3)]
    col_index = {c: i for i, c in enumerate(columns)}
    n1 = len(columns)
    neighbors: list[list[int]] = [[] for _ in range(n1 + len(cubelets))]
    for ci, (i, j, k) in enumerate(cubelets):
        v = n1 + ci
        for axis, key in ((0, (j, k)), (1, (i, k)), (2, (i, j))):
            u = col_index[(axis,) + key]
            neighbors[u].append(v)
            neighbors[v].append(u)
    types = [1] * n1 + [2] * len(cubelets)
    return validate(neighbors, types)


# ---------------------------------------------------------------------------
# Import/export
# ---------------------------------------------------------------------------

def to_adjacency_text(G: BipartiteCubicGraph) -> str:
    lines = [f"{v} {int(G.types[v])}: " + " ".join(str(int(w)) for w in G.adj[v])
             for v in range(G.n)]
    return "\n".join(lines) + "\n"


def from_adjacency_text(text: str) -> BipartiteCubicGraph:
    neighbors = {}
    types = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(":")
        vid, vtype = head.split()
        neighbors[int(vid)] = [int(x) for x in rest.split()]
        types[int(vid)] = int(vtype)
    n = len(neighbors)
    if sorted(neighbors) != list(range(n)):
        raise GraphError("vertex ids must be 0..n-1")
    return validate([neighbors[v] for v in range(n)],
                    [types[v] for v in range(n)])


def to_dot(G: BipartiteCubicGraph, name: str = "medial") -> str:
    lines = [f"graph {name} {{"]
    for v in range(G.n):
        shape = "circle" if G.types[v] == 1 else "box"
        lines.append(f"  {v} [shape={shape}];")
    for v, w in G.edges():
        lines.append(f"  {v} -- {w};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_graph6(G: BipartiteCubicGraph) -> str:
    """Standard graph6 encoding (type labels are not representable).

    Edge {i, j} with i < j is bit j(j-1)/2 + i of the upper triangle, read
    column by column in 6-bit groups offset by 63; only the set bits are
    written, so the work is linear in the output size.
    """
    n = G.n
    if n <= 62:
        header = chr(n + 63)
    elif n <= 258047:
        header = chr(126) + "".join(
            chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError("graph too large for this graph6 writer")
    body = bytearray(b"?" * ((n * (n - 1) // 2 + 5) // 6))  # "?" is 0 + 63
    for j in range(n):
        for i in G.adj[j]:
            if i < j:
                k = j * (j - 1) // 2 + int(i)
                body[k // 6] += 32 >> (k % 6)
    return header + body.decode("ascii")


def from_graph6(text: str, types: Sequence[int] | None = None
                ) -> BipartiteCubicGraph:
    """Decode graph6; types default to a BFS 2-coloring (class containing
    vertex 0 becomes type 1), flagged as convention, not provenance.

    Only the set bits are decoded: bit k of the upper triangle is the edge
    {i, j} with j(j-1)/2 <= k = j(j-1)/2 + i < j(j+1)/2.
    """
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[10:]
    if text[0] == chr(126):
        n = ((ord(text[1]) - 63) << 12) | ((ord(text[2]) - 63) << 6) \
            | (ord(text[3]) - 63)
        body = text[4:]
    else:
        n = ord(text[0]) - 63
        body = text[1:]
    neighbors: list[list[int]] = [[] for _ in range(n)]
    nbits = n * (n - 1) // 2
    for pos in range((nbits + 5) // 6):
        val = ord(body[pos]) - 63
        if not val:
            continue
        for k in range(6 * pos, min(6 * pos + 6, nbits)):
            if val & (32 >> (k - 6 * pos)):
                j = (1 + math.isqrt(1 + 8 * k)) // 2
                i = k - j * (j - 1) // 2
                neighbors[i].append(j)
                neighbors[j].append(i)
    if types is None:
        color = [0] * n
        color[0] = 1
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in neighbors[v]:
                if color[w] == 0:
                    color[w] = 3 - color[v]
                    frontier.append(w)
        types = color
    return validate(neighbors, types)
