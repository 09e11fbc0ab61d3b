"""Trivalent bipartite graph machinery: validation, automorphism groups,
arc counting, symmetry classification, isomorphism, and exporters."""

import random

import numpy as np
import pytest

from medial.catalog import ToroidalParams, universal_locally_toroidal
from medial.eisenstein import parse_eisenstein
from medial.graphsym import (
    Arc,
    GraphError,
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


def test_symmetric_classify_builds_one_chain_per_probe(monkeypatch):
    # Row 1 of Table 1 is symmetric: its stabilizer tower is read from the
    # chain of the probe arc, and equals stabilizer_sequence's own.
    pres = universal_locally_toroidal(ToroidalParams(1, 1), ToroidalParams(1, 1))
    g = medial_layer_graph(handle_from_presentation(pres, "row 1"))
    aut = automorphism_group(g)
    calls = []
    original = PermutationGroup.prefix_stabilizer_orders

    def counting(self, points):
        calls.append(tuple(points))
        return original(self, points)

    monkeypatch.setattr(PermutationGroup, "prefix_stabilizer_orders", counting)
    c = classify(g, aut)
    assert c.verdict == "symmetric"
    assert len(calls) == 1
    monkeypatch.undo()
    arc = Arc.check(g, calls[0][:c.t + 1])
    assert c.stabilizer_orders == stabilizer_sequence(g, aut, arc)


# -- arc counting -----------------------------------------------------------

def test_t_arc_counts_gray():
    g = gray_oracle()
    for t, expected in ((1, 81), (2, 162), (3, 324), (4, 648)):
        assert t_arc_count(g, 1, t) == expected
        assert t_arc_count(g, 2, t) == expected


def test_arc_count_matches_cubic_formula():
    # In any cubic graph: (n_j * 3) * 2^(t-1) non-backtracking t-walks.
    g = haar_27_013()
    for t in (1, 2, 3, 5):
        assert t_arc_count(g, 1, t) == 27 * 3 * 2 ** (t - 1)


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
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())
    text = to_graph6(g)
    assert text.encode() == nx.to_graph6_bytes(ref, header=False).rstrip(b"\n")
    assert sorted(from_graph6(text).edges()) == sorted(g.edges())


def test_dot_output_contains_all_edges():
    g = k33()
    dot = to_dot(g)
    assert dot.count("--") == 9
