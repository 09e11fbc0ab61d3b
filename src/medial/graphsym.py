"""Symmetry analysis of bipartite cubic graphs.

Provides validated bipartite cubic graphs, automorphism groups computed by
color refinement with individualization (one orbit-stabilizer loop over a
base of individualized vertices that ignores the vertex types, so a type
swap is found like any other automorphism; each level skips the orbits of
the base point and of failed candidates under the generators found so far,
the automorphism pruning of McKay & Piperno, Practical graph isomorphism
II, J. Symb. Comput. 60 (2014), section 3), non-backtracking t-arc
machinery, and the classification of a graph as

* Symmetric {t, sign}: one vertex orbit, transitive on t-arcs but not on
  (t+1)-arcs; the sign is read off the shunts tau1, tau2 (the unique
  automorphisms advancing a base t-arc onto its two extensions) and the
  arc reverser alpha: conjugating tau1 by alpha gives tau1^-1 for "+" and
  tau2^-1 for "-".
* Semisymmetric {t1, t2}: two vertex orbits but one edge orbit, with the
  per-type maximal arc-transitivity levels.
* NotEdgeTransitive otherwise, or Undecided past the configured caps.

Arc transitivity is read off its definition: the Aut-orbit of one probe
arc is enumerated with ``permgroup.code_orbit`` on integer arc codes, the
orbit of each prefix probe[:k] is the set of k-prefixes of that orbit, and
the graph is t-arc transitive when the t-prefix orbit holds all
n_j * 3 * 2^(t-1) t-arcs.
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
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .permgroup import code_orbit, point_orbits

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


def validate(neighbors: Sequence[Iterable[int]] | np.ndarray,
             types: Sequence[int]) -> BipartiteCubicGraph:
    """Validate raw adjacency into a BipartiteCubicGraph.

    Checks: degree 3, simple (no loops/multi-edges), symmetric adjacency,
    connected, and edges only between the two type classes (which therefore
    form the bipartition, with equal halves).  ``neighbors`` may also be an
    (n, 3) array.  Each check runs on all vertices at once; a failure names
    the first vertex, in vertex order, that a vertex-by-vertex pass would
    have stopped at.
    """
    n = len(neighbors)
    if n == 0:
        raise GraphError("graph has no vertices")
    if len(types) != n:
        raise GraphError(f"{len(types)} type labels for {n} vertices")
    t = np.asarray(types)
    if not set(np.unique(t)) <= {1, 2}:
        raise GraphError("vertex types must be 1 or 2")
    if isinstance(neighbors, np.ndarray) and neighbors.shape == (n, 3):
        rows, degree = neighbors, np.full(n, 3)
    else:
        rows = [[int(x) for x in nbrs] for nbrs in neighbors]
        degree = np.array([len(row) for row in rows])
        rows = [row for row in rows if len(row) == 3]
    three = degree == 3
    adj = np.zeros((n, 3), dtype=np.int64)
    if len(rows):
        # Ids past int64 (objects, uint64) are out of range however clipped.
        ids = np.asarray(rows)
        if ids.dtype.kind != "i":
            ids = np.clip(np.asarray(rows, dtype=object), -2 ** 63,
                          2 ** 63 - 1)
        adj[three] = np.sort(ids.astype(np.int64), axis=1)
    repeated = three & ((adj[:, 1:] == adj[:, :-1]).any(axis=1)
                        | (adj == np.arange(n)[:, None]).any(axis=1))
    outside = three & ((adj < 0) | (adj >= n)).any(axis=1)
    bad = np.flatnonzero(~three | repeated | outside)
    if len(bad):
        v = int(bad[0])
        if not three[v]:
            raise GraphError(f"vertex {v} has degree {degree[v]}, not 3")
        if repeated[v]:
            raise GraphError(f"vertex {v} has a loop or repeated edge")
        raise GraphError(f"vertex {v} has a neighbor out of range")
    symmetric = (adj[adj] == np.arange(n)[:, None, None]).any(axis=2)
    same_type = t[adj] == t[:, None]
    bad = np.flatnonzero((~symmetric | same_type).ravel())
    if len(bad):
        v, k = divmod(int(bad[0]), 3)
        w = adj[v, k]
        if not symmetric[v, k]:
            raise GraphError(f"edge {v}-{w} is not symmetric")
        raise GraphError(f"edge {v}-{w} joins two vertices of type {t[v]}")
    if len(code_orbit([0], lambda vertices: adj[vertices].ravel())) != n:
        raise GraphError("graph is disconnected")
    if int((t == 1).sum()) != int((t == 2).sum()):
        raise GraphError("type classes have unequal sizes")
    return BipartiteCubicGraph(t.astype(np.int8), adj.astype(np.int32))


# ---------------------------------------------------------------------------
# Color refinement and individualization search
# ---------------------------------------------------------------------------

def _dense_ranks(keys: np.ndarray) -> np.ndarray:
    """Rank of each key among the distinct keys in ascending order."""
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.zeros(len(keys), dtype=np.int64)
    new[1:] = ordered[1:] != ordered[:-1]
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[order] = np.cumsum(new)
    return ranks


def _row_ranks(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Rank of each row among the distinct rows in lexicographic order: the
    inverse of ``np.unique(np.stack(columns, axis=1), axis=0)``, for int64
    columns of colours in 0..D-1, D = 1 + the largest colour.

    The columns are packed into one mixed-radix key, key * D + column, and
    the key is ranked once at the end.  Before a step that could pass 2**63
    the key is replaced by its rank, which is below the row count, so the
    ranks are exact while rows * D <= 2**63, as for any graph in memory.
    Four columns need a rank part-way only when D > 55,108.
    """
    d = max(int(column.max()) for column in columns) + 1
    key, bound = columns[0], d  # key < bound
    for column in columns[1:]:
        if bound * d > 2 ** 63:
            key, bound = _dense_ranks(key), len(key)
        key, bound = key * d + column, bound * d
    return _dense_ranks(key)


def _refine_joint(adjA: np.ndarray, adjB: np.ndarray,
                  colA: np.ndarray, colB: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray] | None:
    """Stable joint refinement of both colorings in a shared color space.

    Each round ranks the rows (colour, and the sorted neighbour colours
    lo <= mid <= hi), taken by min and max of the three neighbour columns.
    Returns None as soon as the per-color counts of the two sides diverge
    (no isomorphism compatible with the colorings can exist).  The two
    sides are refined as one disjoint union; given the same graph and
    colouring twice, as the level refinements of the automorphism search
    are, one copy stands for both, since it has the same distinct rows.
    """
    nA = len(colA)
    same = adjA is adjB and colA is colB
    adj = adjA if same else np.concatenate([adjA, adjB + nA])
    col = colA if same else np.concatenate([colA, colB])
    first, second, third = np.ascontiguousarray(adj.T)
    prev = -1
    while True:
        a, b, c = col[first], col[second], col[third]
        lo = np.minimum(np.minimum(a, b), c)
        hi = np.maximum(np.maximum(a, b), c)
        col = _row_ranks([col, lo, a + b + c - lo - hi, hi])
        distinct = int(col.max()) + 1
        if same:
            colA = colB = col
        else:
            colA, colB = col[:nA], col[nA:]
            if not np.array_equal(np.bincount(colA, minlength=distinct),
                                  np.bincount(colB, minlength=distinct)):
                return None
        if distinct == prev:
            return colA, colB
        prev = distinct


def _search_mapping(adjA: np.ndarray, adjB: np.ndarray,
                    colA: np.ndarray, colB: np.ndarray) -> np.ndarray | None:
    """Color-respecting isomorphism A -> B by individualization-refinement."""
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
    for v in np.flatnonzero(colB == c):
        colB2 = colB.copy()
        colB2[v] = fresh
        found = _search_mapping(adjA, adjB, colA, colB2)
        if found is not None:
            return found
    return None


def _individualized(n: int, fixed: Sequence[int]) -> np.ndarray:
    """The colouring of n vertices that gives fixed[i] colour i + 1 and
    every other vertex colour 0."""
    col = np.zeros(n, dtype=np.int64)
    col[list(fixed)] = np.arange(1, len(fixed) + 1)
    return col


@dataclass
class AutomorphismResult:
    """Automorphism group of a graph, or an explicit undecided marker."""

    status: str  # "ok" | "undecided"
    order: int = 0
    # One generator a row, as the image array of a vertex permutation.
    generators: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0), dtype=np.int64))
    vertex_orbits: list[set[int]] = field(default_factory=list)
    reason: str = ""
    adj: np.ndarray | None = None  # the graph the generators act on


def automorphism_group(G: BipartiteCubicGraph,
                       max_vertices: int = DEFAULT_VERTEX_CAP) -> AutomorphismResult:
    """Generators and exact order of Aut(G), vertex types ignored.

    Orbit-stabilizer over a base of individualized vertices: each level
    finds the orbit of its base point b under the stabilizer of the earlier
    base points by searching, for each candidate v in b's refined cell, for
    an automorphism that fixes them and maps b to v.  The search starts
    from the all-zero colouring, so the level-0 cell is the whole vertex
    set and a type swap, if any, is an ordinary level-0 generator.

    A candidate is skipped when it lies in the orbit of b or of a candidate
    that already failed, under the generators found so far that fix the
    base (McKay & Piperno 2014, section 3).  So once the generators are
    transitive on the other type, one failed search rules out a type swap.
    Those orbits are ``code_orbit`` closures over the generators' image
    arrays, and the skipped candidates a boolean mask.
    """
    if G.n > max_vertices:
        return AutomorphismResult(
            "undecided",
            reason=f"{G.n} vertices exceed the cap {max_vertices}")
    adj = G.adj
    gens: list[np.ndarray] = []
    order = 1
    fixed: list[int] = []
    while True:
        col = _individualized(G.n, fixed)
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
        # The generators that fix the base so far, one image array a row.
        level = np.array([g for g in gens if (g[fixed] == fixed).all()],
                         dtype=np.int64).reshape(-1, G.n)

        def orbit_of(seeds: list[int]) -> np.ndarray:
            return code_orbit(seeds, lambda x: level[:, x].ravel())

        failed: list[int] = []
        covered = np.zeros(G.n, dtype=bool)
        covered[orbit_of([b])] = True
        colA = _individualized(G.n, fixed + [b])
        for v in cell[1:]:
            if covered[v]:
                continue
            found = _search_mapping(adj, adj, colA,
                                    _individualized(G.n, fixed + [v]))
            if found is None:
                failed.append(v)
                covered[orbit_of([v])] = True
            else:
                gens.append(found)
                level = np.vstack([level, found])
                covered[orbit_of([b] + failed)] = True
        order *= len(orbit_of([b]))
        fixed.append(b)
    images = np.array(gens, dtype=np.int64).reshape(-1, G.n)
    return AutomorphismResult("ok", order=order, generators=images,
                              vertex_orbits=point_orbits(images), adj=adj)


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


def _arc_codes(adj: np.ndarray, arcs: np.ndarray) -> np.ndarray:
    """The integer code of each row of ``arcs``, a non-backtracking walk
    v0, ..., v_{L-1} with L >= 2: ((v0*3 + i1)*2 + b2)*2 + ... + b_{L-1},
    where i1 is the position of v1 in adj[v0] and b_k is 1 when v_k is the
    larger of its two choices, the neighbours of v_{k-1} other than
    v_{k-2}.

    The walks of L vertices get the codes 0 .. 3N*2^(L-2) - 1, in their
    lexicographic order, and the k-prefix of a walk has the code
    code >> (L - k) for k >= 2.
    """
    arcs = np.asarray(arcs, dtype=np.int64)
    sums = adj.sum(axis=1, dtype=np.int64)
    codes = arcs[:, 0] * 3 + (adj[arcs[:, 0]] < arcs[:, 1:2]).sum(axis=1)
    for k in range(2, arcs.shape[1]):
        other = sums[arcs[:, k - 1]] - arcs[:, k - 2] - arcs[:, k]
        codes = codes * 2 + (arcs[:, k] > other)
    return codes


def _arc_vertices(adj: np.ndarray, codes: np.ndarray,
                  length: int) -> np.ndarray:
    """The walks of ``length`` vertices with the ``_arc_codes`` ``codes``,
    one a row."""
    arcs = np.empty((len(codes), length), dtype=np.int64)
    head = codes >> (length - 2)
    arcs[:, 0] = head // 3
    arcs[:, 1] = adj[arcs[:, 0], head % 3]
    for k in range(2, length):
        row = adj[arcs[:, k - 1]]
        back = arcs[:, k - 2]
        lower = np.where(row[:, 0] == back, row[:, 1], row[:, 0])
        upper = np.where(row[:, 2] == back, row[:, 1], row[:, 2])
        larger = (codes >> (length - 1 - k)) & 1
        arcs[:, k] = np.where(larger == 1, upper, lower)
    return arcs


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
    """Sizes of the Aut-orbits of vertices[:k] for k = 0..len(vertices), for
    a non-backtracking walk of two or more vertices.

    The orbit of a prefix is the set of prefixes of the orbit of the whole
    walk, so one orbit gives them all.  It is enumerated on arc codes
    (``_arc_codes``): each step decodes a frontier, maps its vertices
    through every generator and encodes the images.  The orbit comes back
    sorted, and so do the prefix codes of its members, so each size is one
    more than the number of changes along them.

    By orbit-stabilizer each size divides |Aut|, and |Aut_{vertices[:k]}|
    = |Aut| / size; a size that does not divide contradicts the order the
    search found.  The whole walk's orbit is enumerated even when a
    shorter prefix's orbit already has |Aut| members, since an order that
    is too small may show only on the longer prefixes.
    """
    adj, length = aut.adj, len(vertices)

    def step(codes: np.ndarray) -> np.ndarray:
        arcs = _arc_vertices(adj, codes, length)
        return np.array([_arc_codes(adj, g[arcs]) for g in aut.generators],
                        dtype=np.int64).ravel()

    codes = code_orbit(_arc_codes(adj, np.array([vertices])), step)
    heads = codes >> (length - 2)
    prefixes = [heads // 3] + [codes >> (length - k)
                               for k in range(2, length + 1)]
    sizes = [1] + [1 + int(np.count_nonzero(np.diff(p))) for p in prefixes]
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


def shunts_and_sign(G: BipartiteCubicGraph, aut: AutomorphismResult,
                    arc: Arc) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """The two shunts, the reverser, and the sign of a symmetric graph; the
    automorphisms as image arrays.

    Each is the automorphism carrying the arc onto a target arc, found by
    one isomorphism search between colourings that individualize the two
    arcs.  The base colouring ignores the vertex types, since a shunt
    swaps them; the map is unique when the arc's stabilizer is trivial.
    """
    vs = arc.vertices
    source = _individualized(G.n, vs)

    def carry(target: tuple[int, ...]) -> np.ndarray | None:
        return _search_mapping(G.adj, G.adj, source,
                               _individualized(G.n, target))

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
    ident = np.arange(G.n)
    if not np.array_equal(alpha[alpha], ident):
        raise InconsistencyError("arc reverser is not an involution")
    # alpha tau alpha, applied left to right, is the inverse of tau when
    # tau applied after it gives the identity.
    conj = alpha[tau[0][alpha]]
    hit1 = np.array_equal(tau[0][conj], ident)
    hit2 = np.array_equal(tau[1][conj], ident)
    if hit1 == hit2:
        raise InconsistencyError(
            "sign undefined: conjugated shunt matches"
            f" {'both' if hit1 else 'neither'} inverse shunt")
    return tau[0], tau[1], alpha, "+" if hit1 else "-"


def classify(G: BipartiteCubicGraph,
             aut: AutomorphismResult | None = None,
             max_vertices: int = DEFAULT_VERTEX_CAP) -> Classification:
    """Full symmetry classification; symmetric verdicts are verified against
    the structural constraints (order formula, stabilizer tower, sign)."""
    if aut is None:
        aut = automorphism_group(G, max_vertices=max_vertices)
    if aut.status != "ok":
        return Classification("undecided", n=G.n, reason=aut.reason)
    n = G.n
    orbit_count = len(aut.vertex_orbits)
    result = Classification("not-edge-transitive", n=n, aut_order=aut.order,
                            vertex_orbit_count=orbit_count)
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

    The search ignores the type labels, which therefore need not agree
    between the two inputs: a witness maps each type class of G onto one
    type class of H.
    """
    if G.n != H.n:
        return False, None
    plain = _individualized(G.n, ())
    mapping = _search_mapping(G.adj, H.adj, plain, plain)
    if mapping is None:
        return False, None
    return True, [int(x) for x in mapping]


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
    """Decode lines ``VERTEX TYPE: NEIGHBOR ...``, skipping blank lines and
    lines that start with '#'.  Raises ValueError on a line it cannot read
    and GraphError on a graph that fails ``validate``."""
    neighbors = {}
    types = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, colon, rest = line.partition(":")
        try:
            vid, vtype = (int(x) for x in head.split())
            if not colon or vid in neighbors:
                raise ValueError
            neighbors[vid] = [int(x) for x in rest.split()]
        except ValueError:
            raise ValueError(f"line {lineno}: {line!r} is not"
                             " 'VERTEX TYPE: NEIGHBOR ...' with a new"
                             " vertex id") from None
        types[vid] = vtype
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
    {i, j} with j(j-1)/2 <= k = j(j-1)/2 + i < j(j+1)/2.  One regex scan
    finds the body characters other than "?" (no bit set), so the Python
    loop is linear in the edges, as in ``to_graph6``.  Raises ValueError
    on text that is not graph6 and GraphError on a graph that fails
    ``validate``.
    """
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[10:]
    if not text:
        raise ValueError("graph6 text is empty")
    if not re.fullmatch("[?-~]*", text):
        raise ValueError("graph6 text has a character outside '?'..'~'")
    if text[0] != "~":
        n, body = ord(text[0]) - 63, text[1:]
    elif len(text) >= 4 and text[1] != "~":
        n = ((ord(text[1]) - 63) << 12) | ((ord(text[2]) - 63) << 6) \
            | (ord(text[3]) - 63)
        body = text[4:]
    else:
        raise ValueError("graph6 header is truncated or beyond"
                         " 258047 vertices")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError(f"graph6 body has {len(body)} characters; {n}"
                         f" vertices need {(nbits + 5) // 6}")
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for match in re.finditer("[^?]", body):
        pos = match.start()
        val = ord(match.group()) - 63
        for k in range(6 * pos, min(6 * pos + 6, nbits)):
            if val & (32 >> (k - 6 * pos)):
                j = (1 + math.isqrt(1 + 8 * k)) // 2
                i = k - j * (j - 1) // 2
                neighbors[i].append(j)
                neighbors[j].append(i)
    if types is None:
        color = [0] * n
        for start in range(n):  # every component, so validate can say why
            if color[start]:
                continue
            color[start] = 1
            frontier = [start]
            while frontier:
                v = frontier.pop()
                for w in neighbors[v]:
                    if color[w] == 0:
                        color[w] = 3 - color[v]
                        frontier.append(w)
        types = color
    return validate(neighbors, types)
