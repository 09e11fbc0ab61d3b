"""Trivalent bipartite graph machinery: validation, automorphism groups,
arc counting, symmetry classification, isomorphism, and exporters."""

import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from medial import graphsym
from medial.catalog import ToroidalParams, universal_locally_toroidal
from medial.eisenstein import parse_eisenstein
from medial.graphsym import (
    Arc,
    GraphError,
    InconsistencyError,
    _prefix_orbit_sizes,
    _row_ranks,
    automorphism_group,
    base_arc,
    classify,
    from_adjacency_text,
    from_graph6,
    gray_oracle,
    is_isomorphic,
    shunts_and_sign,
    stabilizer_sequence,
    t_arc_count,
    to_adjacency_text,
    to_dot,
    to_graph6,
    validate,
)
from medial.matgroup import generate_group
from medial.permgroup import PermutationGroup
from medial.polytope import (
    handle_from_matrix_group,
    handle_from_presentation,
    medial_layer_graph,
)

RNG = random.Random(7)


def k33():
    nbrs = [[3, 4, 5]] * 3 + [[0, 1, 2]] * 3
    return validate(nbrs, [1, 1, 1, 2, 2, 2])


def universal_row(s, t):
    pres = universal_locally_toroidal(ToroidalParams(*s), ToroidalParams(*t))
    return medial_layer_graph(handle_from_presentation(pres, f"{s}-{t}"))


def eisenstein_graph(m):
    return medial_layer_graph(handle_from_matrix_group(generate_group(m)))


ROWS = {1: ((1, 1), (1, 1)), 2: ((1, 1), (3, 0)), 3: ((2, 0), (2, 0)),
        4: ((2, 0), (2, 2)), 5: ((3, 0), (3, 0))}


def walk_count(G, jtype, t):
    """Non-backtracking t-walks from type-j vertices, counted per directed
    edge by dynamic programming: the oracle for ``t_arc_count``."""
    counts = Counter({(v, w): 1 for v in range(G.n) if G.types[v] == jtype
                      for w in G.neighbors(v)})
    for _ in range(t - 1):
        nxt = Counter()
        for (u, v), c in counts.items():
            for w in G.neighbors(v):
                if w != u:
                    nxt[(v, w)] += c
        counts = nxt
    return sum(counts.values())


def haar_27_013():
    """Bipartite cubic circulant-style graph on 54 vertices, girth 6."""
    n = 27
    nbrs = [[] for _ in range(2 * n)]
    for i in range(n):
        for s in (0, 1, 3):
            j = n + (i + s) % n
            nbrs[i].append(j)
            nbrs[j].append(i)
    return validate(nbrs, [1] * n + [2] * n)


# -- validation -------------------------------------------------------------

def test_validate_rejects_same_type_edge():
    # K4 admits no proper 2-coloring.
    nbrs = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    with pytest.raises(GraphError, match="joins two vertices"):
        validate(nbrs, [1, 2, 1, 2])


def test_validate_rejects_wrong_degree():
    with pytest.raises(GraphError, match="degree"):
        validate([[1], [0]], [1, 2])


def test_validate_rejects_loop():
    nbrs = [[0, 1, 2], [0, 2, 3], [0, 1, 3], [1, 2, 0]]
    with pytest.raises(GraphError, match="loop"):
        validate(nbrs, [1, 2, 1, 2])


def test_validate_rejects_asymmetric_adjacency():
    nbrs = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 1]]
    with pytest.raises(GraphError):
        validate(nbrs, [1, 2, 2, 2])


def test_validate_rejects_disconnected():
    one = k33()
    nbrs = [[int(x) for x in one.neighbors(v)] for v in range(6)]
    doubled = nbrs + [[x + 6 for x in row] for row in nbrs]
    with pytest.raises(GraphError, match="disconnected"):
        validate(doubled, [1, 1, 1, 2, 2, 2] * 2)


# -- known graphs -----------------------------------------------------------

def test_gray_oracle_shape():
    g = gray_oracle()
    assert g.n == 54
    assert all(len(g.neighbors(v)) == 3 for v in range(g.n))


def test_gray_oracle_automorphisms_and_verdict():
    g = gray_oracle()
    aut = automorphism_group(g)
    assert aut.status == "ok" and aut.order == 1296
    assert len(aut.vertex_orbits) == 2
    c = classify(g, aut, type_order="unordered")
    assert c.verdict == "semisymmetric"
    assert set(c.t_pair) == {3, 4}


def test_k33_is_3_transitive():
    c = classify(k33())
    assert c.verdict == "symmetric"
    assert c.t == 3
    assert c.sign in ("+", "-")
    assert c.aut_order == 72
    assert c.stabilizer_orders == [1, 2, 4, 12]
    assert c.label() == f"3{c.sign}"


def test_shunts_and_sign_consistency():
    g = k33()
    aut = automorphism_group(g)
    arc = base_arc(g, 0, 3)
    tau1, tau2, alpha, sign = shunts_and_sign(g, aut, arc)
    assert sign in ("+", "-")
    # Shunts move the base arc one step along itself.
    perm1 = [tau1(v) for v in arc.vertices[:-1]]
    assert perm1 == list(arc.vertices[1:])


def test_stabilizer_sequence_k33():
    g = k33()
    aut = automorphism_group(g)
    arc = base_arc(g, 0, 3)
    assert stabilizer_sequence(g, aut, arc) == [1, 2, 4, 12]


def test_classify_never_builds_a_stabilizer_chain(monkeypatch):
    # Arc transitivity, the tower and the shunts come from arc orbits and
    # the individualization search, never from Schreier-Sims.
    def refuse(self):
        raise AssertionError("classify built a stabilizer chain")

    monkeypatch.setattr(PermutationGroup, "_build_chain", refuse)
    assert classify(universal_row(*ROWS[1])).label() == "3+"
    c = classify(k33())
    assert (c.label(), c.aut_order, c.stabilizer_orders) == \
        (f"3{c.sign}", 72, [1, 2, 4, 12])
    assert classify(gray_oracle(), type_order="unordered").label() == \
        "ss-(3,4)"


def _oracle_graphs():
    yield "K3,3", k33()
    for row, (s, t) in ROWS.items():
        yield f"row {row}", universal_row(s, t)
    yield "m=3", eisenstein_graph(parse_eisenstein("3"))
    yield "(1-w)*(1+3w)", eisenstein_graph(
        parse_eisenstein("1-w") * parse_eisenstein("1+3w"))


def test_arc_orbit_orders_match_stabilizer_chain():
    # The longest probe classify takes (a semisymmetric 8-arc) from each
    # type; the symmetric probe is one of its prefixes.
    for name, g in _oracle_graphs():
        aut = automorphism_group(g)
        for jtype in (1, 2):
            probe = base_arc(g, int(g.vertices_of_type(jtype)[0]), 8)
            sizes = _prefix_orbit_sizes(aut, probe.vertices)
            assert [aut.order // s for s in sizes] == \
                aut.group.prefix_stabilizer_orders(probe.vertices), name


def test_arc_orbit_rejects_order_it_does_not_divide():
    g = k33()
    aut = automorphism_group(g)
    with pytest.raises(InconsistencyError, match="does not divide"):
        classify(g, replace(aut, order=aut.order + 1))


def test_shunts_and_reverser_match_chain_transporter():
    for name, g in (("K3,3", k33()), ("row 1", universal_row(*ROWS[1])),
                    ("row 3", universal_row(*ROWS[3])),
                    ("row 5", universal_row(*ROWS[5]))):
        aut = automorphism_group(g)
        c = classify(g, aut)
        arc = base_arc(g, int(g.vertices_of_type(1)[0]), c.t)
        vs = arc.vertices
        ys = sorted(w for w in g.neighbors(vs[-1]) if w != vs[-2])
        expected = [aut.group.transporter(vs, vs[1:] + (y,)) for y in ys]
        expected.append(aut.group.transporter(vs, tuple(reversed(vs))))
        tau1, tau2, alpha, sign = shunts_and_sign(g, aut, arc)
        assert [tau1, tau2, alpha] == expected, name
        assert sign == c.sign


# -- arc counting -----------------------------------------------------------

def test_t_arc_counts_gray():
    g = gray_oracle()
    for t, expected in ((1, 81), (2, 162), (3, 324), (4, 648)):
        assert t_arc_count(g, 1, t) == walk_count(g, 1, t) == expected
        assert t_arc_count(g, 2, t) == walk_count(g, 2, t) == expected


def test_arc_count_matches_cubic_formula():
    # In any cubic graph: (n_j * 3) * 2^(t-1) non-backtracking t-walks.
    g = haar_27_013()
    for t in (1, 2, 3, 5):
        assert t_arc_count(g, 1, t) == walk_count(g, 1, t) \
            == 27 * 3 * 2 ** (t - 1)


def test_arc_check_rejects_backtracking_and_nonedges():
    g = k33()
    with pytest.raises(GraphError, match="backtrack"):
        Arc.check(g, [0, 3, 0])
    with pytest.raises(GraphError, match="not an edge"):
        Arc.check(g, [0, 1])


# -- classification invariance and caps -------------------------------------

def test_classification_invariant_under_relabeling():
    g = gray_oracle()
    base = classify(g, type_order="unordered")
    perm = list(range(g.n))
    RNG.shuffle(perm)
    h = g.relabeled(perm)
    c = classify(h, type_order="unordered")
    assert c.label() == base.label()
    assert c.aut_order == base.aut_order


def test_vertex_cap_yields_undecided():
    g = gray_oracle()
    aut = automorphism_group(g, max_vertices=10)
    assert aut.status == "undecided"
    c = classify(g, max_vertices=10)
    assert c.verdict == "undecided"
    assert c.label() == "undecided"


def test_row_ranks_match_numpy_unique_rows():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        sig = rng.integers(0, int(rng.integers(1, 12)), size=(n, 4))
        _, inverse = np.unique(sig, axis=0, return_inverse=True)
        assert np.array_equal(_row_ranks(sig), inverse.reshape(-1))


def count_refinements(monkeypatch):
    """Count ``_refine_joint`` calls: all of them, and those made inside the
    type-swap search, the one search whose first B colouring is its A
    colouring (the vertex types) with the two type labels exchanged."""
    counts = Counter()
    inside = [0]
    refine, search = graphsym._refine_joint, graphsym._search_mapping

    def counted_refine(*args):
        counts["all"] += 1
        counts["swap"] += inside[0] > 0
        return refine(*args)

    def watched_search(adjA, adjB, colA, colB, *rest):
        swap = inside[0] > 0 or (set(colA.tolist()) <= {1, 2}
                                 and np.array_equal(colB, 3 - colA))
        inside[0] += swap
        try:
            return search(adjA, adjB, colA, colB, *rest)
        finally:
            inside[0] -= swap

    monkeypatch.setattr(graphsym, "_refine_joint", counted_refine)
    monkeypatch.setattr(graphsym, "_search_mapping", watched_search)
    return counts


def test_swap_search_is_pruned_by_the_type_preserving_group(monkeypatch):
    # Without pruning, proving that 3-3w has no type swap tries all 729
    # vertices of the other type: 730 refinement calls.
    counts = count_refinements(monkeypatch)
    aut = automorphism_group(eisenstein_graph(parse_eisenstein("3-3w")))
    assert aut.order == 34992
    assert 0 < counts["swap"] <= 10


def test_chiral_automorphism_search_work(monkeypatch):
    # 350 refinement calls without pruning, 337 of them in the swap search.
    counts = count_refinements(monkeypatch)
    aut = automorphism_group(eisenstein_graph(
        parse_eisenstein("1-w") * parse_eisenstein("1+3w")))
    assert aut.order == 2016
    assert counts["all"] <= 30


def double_cover(nx, x):
    return nx.tensor_product(x, nx.complete_graph(2))


# Small connected bipartite cubic graphs.  The prisms have a type swap but
# are not edge-transitive; the Frucht cover has |Aut| = 2 with no
# type-preserving automorphism to prune the swap search by.
NX_GRAPHS = {
    "K3,3": lambda nx: nx.complete_bipartite_graph(3, 3),
    "cube": lambda nx: nx.cubical_graph(),
    "Heawood": lambda nx: nx.heawood_graph(),
    "Moebius-Kantor": lambda nx: nx.moebius_kantor_graph(),
    "Pappus": lambda nx: nx.pappus_graph(),
    "Desargues": lambda nx: nx.desargues_graph(),
    "hexagonal prism": lambda nx: nx.circular_ladder_graph(6),
    "octagonal prism": lambda nx: nx.circular_ladder_graph(8),
    "Frucht cover": lambda nx: double_cover(nx, nx.frucht_graph()),
    "Petersen cover": lambda nx: double_cover(nx, nx.petersen_graph()),
    "truncated tetrahedron cover":
        lambda nx: double_cover(nx, nx.truncated_tetrahedron_graph()),
    "dodecahedron cover":
        lambda nx: double_cover(nx, nx.dodecahedral_graph()),
}


def from_networkx(nx, x):
    """The graph as a BipartiteCubicGraph, typed by a 2-colouring."""
    x = nx.convert_node_labels_to_integers(x)
    color = nx.bipartite.color(x)
    return validate([list(x[v]) for v in range(len(x))],
                    [color[v] + 1 for v in range(len(x))])


def to_networkx(nx, g):
    x = nx.Graph()
    x.add_nodes_from(range(g.n))
    x.add_edges_from(g.edges())
    return x


@pytest.mark.parametrize("name", sorted(NX_GRAPHS))
def test_aut_order_matches_chain_and_networkx(name):
    nx = pytest.importorskip("networkx")
    x = nx.convert_node_labels_to_integers(NX_GRAPHS[name](nx))
    g = from_networkx(nx, x)
    aut = automorphism_group(g)
    matcher = nx.algorithms.isomorphism.GraphMatcher(x, x)
    count = sum(1 for _ in matcher.isomorphisms_iter())
    assert aut.order == aut.group.order() == count
    if name == "Frucht cover":
        assert aut.order == 2
        [swap] = aut.generators
        assert all(g.types[swap(v)] != g.types[v] for v in range(g.n))
    if name.endswith("prism"):
        assert len(aut.vertex_orbits) == 1
        assert classify(g, aut).verdict == "not-edge-transitive"


def test_haar_graph_not_edge_transitive_branch_is_consistent():
    c = classify(haar_27_013())
    # Whatever the verdict, the basic bookkeeping must hold.
    assert c.n == 54
    assert c.verdict in ("symmetric", "semisymmetric", "not-edge-transitive")
    assert c.aut_order >= 1


# -- isomorphism ------------------------------------------------------------

def test_isomorphism_self_and_relabeled():
    g = gray_oracle()
    ok, witness = is_isomorphic(g, g)
    assert ok and witness is not None
    perm = list(range(g.n))
    RNG.shuffle(perm)
    h = g.relabeled(perm)
    ok, witness = is_isomorphic(g, h)
    assert ok
    for v in range(g.n):
        image = {witness[w] for w in g.neighbors(v)}
        assert image == set(int(x) for x in h.neighbors(witness[v]))


def test_isomorphism_negative_same_size():
    assert is_isomorphic(gray_oracle(), haar_27_013()) == (False, None)


def test_isomorphism_matches_networkx():
    nx = pytest.importorskip("networkx")
    gray = gray_oracle()
    perm = list(range(gray.n))
    random.Random(11).shuffle(perm)
    pairs = [
        (from_networkx(nx, nx.desargues_graph()),
         from_networkx(nx, double_cover(nx, nx.petersen_graph()))),
        (gray, gray.relabeled(perm)),
        (from_networkx(nx, nx.moebius_kantor_graph()),
         from_networkx(nx, nx.circular_ladder_graph(8))),
        (gray, haar_27_013()),
    ]
    verdicts = []
    for g, h in pairs:
        assert g.n == h.n
        ok, witness = is_isomorphic(g, h)
        assert ok == nx.is_isomorphic(to_networkx(nx, g), to_networkx(nx, h))
        if ok:
            image = sorted(tuple(sorted((witness[v], witness[w])))
                           for v, w in g.edges())
            assert image == sorted(h.edges())
        verdicts.append(ok)
    assert verdicts == [True, True, False, False]


def test_isomorphism_negative_different_size():
    assert is_isomorphic(gray_oracle(), k33()) == (False, None)


# -- exporters --------------------------------------------------------------

def test_adjacency_text_roundtrip():
    g = gray_oracle()
    h = from_adjacency_text(to_adjacency_text(g))
    assert np.array_equal(g.types, h.types)
    assert np.array_equal(g.adj, h.adj)


def test_graph6_roundtrip_up_to_isomorphism():
    g = gray_oracle()
    h = from_graph6(to_graph6(g))
    assert h.n == g.n
    ok, _ = is_isomorphic(g, h)
    assert ok


@pytest.mark.parametrize("source", ["gray", "row4", "3-3w"])
def test_graph6_matches_networkx(source):
    # Byte-identical to networkx's writer on 54, 120 (4-character header)
    # and 1458 vertices, and decoded back to the same edge set.
    nx = pytest.importorskip("networkx")
    if source == "gray":
        g = gray_oracle()
    elif source == "row4":
        pres = universal_locally_toroidal(ToroidalParams(2, 0),
                                          ToroidalParams(2, 2))
        g = medial_layer_graph(handle_from_presentation(pres, "row 4"))
    else:
        g = medial_layer_graph(handle_from_matrix_group(
            generate_group(parse_eisenstein("3-3w"))))
    text = to_graph6(g)
    assert text.encode() == \
        nx.to_graph6_bytes(to_networkx(nx, g), header=False).rstrip(b"\n")
    assert sorted(from_graph6(text).edges()) == sorted(g.edges())


def test_dot_output_contains_all_edges():
    g = k33()
    dot = to_dot(g)
    assert dot.count("--") == 9
