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
    MAX_SEMI_T,
    _arc_codes,
    _arc_vertices,
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
from reference import chain, orbit, stabilizer_sequence

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


@pytest.mark.filterwarnings("error")  # no cast out of the int64 range
@pytest.mark.parametrize("big", [10**20, 2**64 - 1, -10**20])
def test_validate_rejects_ids_past_int64_on_both_paths(big):
    # Lists and (n, 3) arrays (object or uint64) share one clipped int64
    # conversion, so an id past int64 is out of range, not an OverflowError.
    rows = [[1, 2, big]] * 4
    forms = [rows, np.array(rows, dtype=object)]
    if 0 < big < 2 ** 64:
        forms.append(np.array(rows, dtype=np.uint64))
    for neighbors in forms:
        with pytest.raises(GraphError, match="vertex 0 has a neighbor out"):
            validate(neighbors, [1, 2, 1, 2])
    # An in-range object array is read like the list.
    nbrs = [[int(x) for x in k33().neighbors(v)] for v in range(6)]
    assert validate(np.array(nbrs, dtype=object),
                    [1, 1, 1, 2, 2, 2]).adj.tolist() == k33().adj.tolist()


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
    c = classify(g, aut)
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
    perm1 = [int(tau1[v]) for v in arc.vertices[:-1]]
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
    assert classify(gray_oracle()).label() == \
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
                chain(aut).prefix_stabilizer_orders(probe.vertices), name


def naive_prefix_orbit_sizes(aut, vertices):
    """Sizes of the Aut-orbits of vertices[:k] for k = 0..len(vertices),
    from the Python orbit of the whole walk as a tuple: the reference for
    the orbit on arc codes in ``_prefix_orbit_sizes``."""
    images = aut.generators.tolist()
    walks = orbit([tuple(vertices)], images,
                  lambda walk, g: tuple([g[v] for v in walk]))
    return [len({w[:k] for w in walks}) for k in range(len(vertices) + 1)]


def test_arc_code_orbits_match_tuple_orbits():
    # The probes classify takes for a semisymmetric verdict, from each
    # type.  On 3-3w the whole probe has a stabilizer of order 2, so the
    # sizes end at |Aut| / 2 rather than |Aut|.
    graphs = [(f"row {row}", universal_row(*ROWS[row])) for row in ROWS]
    graphs += [("3", eisenstein_graph(parse_eisenstein("3"))),
               ("(1-w)*(1+3w)", eisenstein_graph(
                   parse_eisenstein("1-w") * parse_eisenstein("1+3w"))),
               ("3-3w", eisenstein_graph(parse_eisenstein("3-3w")))]
    for name, g in graphs:
        aut = automorphism_group(g)
        for jtype in (1, 2):
            probe = base_arc(g, int(g.vertices_of_type(jtype)[0]),
                             MAX_SEMI_T + 1)
            sizes = _prefix_orbit_sizes(aut, probe.vertices)
            assert sizes == naive_prefix_orbit_sizes(aut, probe.vertices), \
                (name, jtype)
            if name == "3-3w":
                assert sizes[-1] == aut.order // 2
    # With no generators each orbit is the walk itself.
    trivial = replace(aut, generators=np.zeros((0, g.n), dtype=np.int64))
    assert _prefix_orbit_sizes(trivial, probe.vertices) == [1] * 10


def nonbacktracking_walks(g, length):
    """Every non-backtracking walk of ``length`` vertices, in
    lexicographic order."""
    walks = [(v,) for v in range(g.n)]
    for _ in range(length - 1):
        walks = [w + (x,) for w in walks for x in g.neighbors(w[-1])
                 if len(w) < 2 or x != w[-2]]
    return np.array(walks)


def test_arc_codes_number_the_walks_in_order():
    # Encoding is a bijection onto range(N * 3 * 2^(L-2)) that keeps the
    # lexicographic order and takes prefixes to shifts; decoding inverts it.
    for g in (k33(), gray_oracle()):
        for length in range(2, 10):
            walks = nonbacktracking_walks(g, length)
            codes = _arc_codes(g.adj, walks)
            assert np.array_equal(codes,
                                  np.arange(g.n * 3 * 2 ** (length - 2)))
            assert np.array_equal(_arc_vertices(g.adj, codes, length), walks)
            for k in range(2, length):
                assert np.array_equal(_arc_codes(g.adj, walks[:, :k]),
                                      codes >> (length - k))


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
        group = chain(aut)
        expected = [group.transporter(vs, vs[1:] + (y,)) for y in ys]
        expected.append(group.transporter(vs, tuple(reversed(vs))))
        tau1, tau2, alpha, sign = shunts_and_sign(g, aut, arc)
        assert [tau1.tolist(), tau2.tolist(), alpha.tolist()] == \
            [p.images.tolist() for p in expected], name
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
    base = classify(g)
    perm = list(range(g.n))
    RNG.shuffle(perm)
    h = g.relabeled(perm)
    c = classify(h)
    assert c.label() == base.label()
    assert c.aut_order == base.aut_order


def test_vertex_cap_yields_undecided():
    g = gray_oracle()
    aut = automorphism_group(g, max_vertices=10)
    assert aut.status == "undecided"
    c = classify(g, max_vertices=10)
    assert c.verdict == "undecided"
    assert c.label() == "undecided"


def lexsort_row_ranks(columns):
    """``_row_ranks`` by one lexsort of the columns: the reference for the
    packed rank keys."""
    sig = np.stack(columns, axis=1)
    order = np.lexsort(columns[::-1])
    ordered = sig[order]
    new = np.ones(len(sig), dtype=np.int64)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ranks = np.empty(len(sig), dtype=np.int64)
    ranks[order] = np.cumsum(new) - 1
    return ranks


def test_row_ranks_match_numpy_unique_rows():
    # Few colours, and up to about 2n, as many as a joint refinement of two
    # n-vertex colourings has; rows repeat, drawn from a pool.  The last
    # trials draw up to 3e6 and 2**31 colours, past the 55,108 at which a
    # four-column key no longer fits in int64 and is ranked part-way.
    rng = np.random.default_rng(3)
    for trial in range(300):
        n = int(rng.integers(1, 200))
        d = int(rng.integers(1, 12) if trial % 2 else
                rng.integers(max(1, 2 * n - 10), 2 * n + 2))
        if trial >= 100:
            d = int(rng.integers(1, 3 * 10**6 if trial % 2 else 2**31))
        pool = rng.integers(0, d, size=(int(rng.integers(1, n + 1)), 4))
        sig = pool[rng.integers(0, len(pool), size=n)]
        _, inverse = np.unique(sig, axis=0, return_inverse=True)
        assert np.array_equal(_row_ranks(list(sig.T)), inverse.reshape(-1))
        assert np.array_equal(lexsort_row_ranks(list(sig.T)),
                              inverse.reshape(-1))


def test_rank_keys_find_the_generators_of_the_lexsort(monkeypatch):
    graphs = [universal_row(*ROWS[4]), universal_row(*ROWS[5]),
              eisenstein_graph(parse_eisenstein("3-3w"))]
    found = [automorphism_group(g).generators for g in graphs]
    monkeypatch.setattr(graphsym, "_row_ranks", lexsort_row_ranks)
    for g, generators in zip(graphs, found):
        assert np.array_equal(automorphism_group(g).generators, generators)


def reference_refine_joint(adjA, adjB, colA, colB):
    """``_refine_joint`` by a row sort of the neighbour colours and a lexsort
    of the rows, always on the disjoint union of the two sides: the
    reference for the min/max neighbour columns and the packed rank key."""
    nA = len(colA)
    adj = np.concatenate([adjA, adjB + nA])
    col = np.concatenate([colA, colB])
    prev = -1
    while True:
        col = lexsort_row_ranks([col, *np.sort(col[adj], axis=1).T])
        distinct = int(col.max()) + 1
        colA, colB = col[:nA], col[nA:]
        if not np.array_equal(np.bincount(colA, minlength=distinct),
                              np.bincount(colB, minlength=distinct)):
            return None
        if distinct == prev:
            return colA, colB
        prev = distinct


@pytest.mark.parametrize("make, diverges", [
    (lambda: eisenstein_graph(parse_eisenstein("3-3w")), True),
    (lambda: universal_row(*ROWS[5]), False),
    (lambda: eisenstein_graph(
        parse_eisenstein("1-w") * parse_eisenstein("1+3w")), True),
], ids=["3-3w", "row5", "chiral672"])
def test_refinement_matches_the_reference_kernel(monkeypatch, make,
                                                 diverges):
    # Every call of the Aut search: the level colourings, refined as one
    # copy, and the pair colourings of the candidate searches, some of
    # which diverge (3-3w's failed type swap among them).
    g = make()
    calls = []
    refine = graphsym._refine_joint

    def recorded(*args):
        calls.append((args, refine(*args)))
        return calls[-1][1]

    monkeypatch.setattr(graphsym, "_refine_joint", recorded)
    automorphism_group(g)
    assert any(args[2] is args[3] for args, _ in calls)
    assert any(args[2] is not args[3] for args, _ in calls)
    assert any(result is None for _, result in calls) == diverges
    for args, result in calls:
        expected = reference_refine_joint(*args)
        if expected is None:
            assert result is None
        else:
            assert result is not None
            assert np.array_equal(result[0], expected[0])
            assert np.array_equal(result[1], expected[1])
    # Counts that diverge: one vertex individualized on one side only.
    col = np.zeros(g.n, dtype=np.int64)
    lone = col.copy()
    lone[0] = 1
    assert reference_refine_joint(g.adj, g.adj, lone, col) is None
    assert graphsym._refine_joint(g.adj, g.adj, lone, col) is None


def count_refinements(monkeypatch):
    """Count the ``_refine_joint`` calls ("all") and the refinement rounds,
    one ``_row_ranks`` call each ("rounds"), made from here on."""
    counts = Counter()
    refine, row_ranks = graphsym._refine_joint, graphsym._row_ranks

    def counted_refine(*args):
        counts["all"] += 1
        return refine(*args)

    def counted_round(*args):
        counts["rounds"] += 1
        return row_ranks(*args)

    monkeypatch.setattr(graphsym, "_refine_joint", counted_refine)
    monkeypatch.setattr(graphsym, "_row_ranks", counted_round)
    return counts


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_automorphism_search_is_pruned_by_the_group_found(monkeypatch, seed):
    # Level 0 tries every vertex as the image of the first base point.
    # Without skipping the orbits of failed candidates, proving that 3-3w
    # has no type swap tries all 729 vertices of the other type.
    g = eisenstein_graph(parse_eisenstein("3-3w"))
    if seed is not None:
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        g = g.relabeled(perm)
    counts = count_refinements(monkeypatch)
    aut = automorphism_group(g)
    assert aut.order == 34992
    assert len(aut.vertex_orbits) == 2
    assert counts["all"] <= 60
    assert counts["rounds"] <= 670


def test_chiral_automorphism_search_work(monkeypatch):
    # About 350 refinement calls without pruning.
    counts = count_refinements(monkeypatch)
    aut = automorphism_group(eisenstein_graph(
        parse_eisenstein("1-w") * parse_eisenstein("1+3w")))
    assert aut.order == 2016
    assert counts["all"] <= 30
    assert counts["rounds"] <= 162


def double_cover(nx, x):
    return nx.tensor_product(x, nx.complete_graph(2))


# Small connected bipartite cubic graphs.  The prisms have a type swap but
# are not edge-transitive; the Frucht cover has |Aut| = 2 and its one
# non-trivial automorphism swaps the types.
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
    assert aut.order == chain(aut).order() == count
    if name == "Frucht cover":
        assert aut.order == 2
        [swap] = aut.generators
        assert all(g.types[swap[v]] != g.types[v] for v in range(g.n))
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


def test_isomorphism_ignores_type_labels():
    # H is the Gray graph with its type labels exchanged and its vertices
    # renamed.  Every automorphism of the Gray graph preserves the types,
    # so a witness must carry type 1 of G onto type 2 of H.
    g = gray_oracle()
    perm = list(range(g.n))
    random.Random(5).shuffle(perm)
    h = replace(g, types=3 - g.types).relabeled(perm)
    ok, witness = is_isomorphic(g, h)
    assert ok
    assert sorted(tuple(sorted((witness[v], witness[w])))
                  for v, w in g.edges()) == sorted(h.edges())
    assert all(h.types[witness[v]] == 3 - g.types[v] for v in range(g.n))


def test_isomorphism_negative_same_size():
    assert is_isomorphic(gray_oracle(), haar_27_013()) == (False, None)


def bipartite_two_switch(g):
    """g with the edges a1-b1 and a2-b2 replaced by a1-b2 and a2-b1, for
    the first type-1 vertices a1 < a2 and neighbours b1, b2 where neither
    new edge is present; still cubic and bipartite, and validate checks
    that it is still connected."""
    adj = [list(g.neighbors(v)) for v in range(g.n)]
    a1 = int(g.vertices_of_type(1)[0])
    b1 = adj[a1][0]
    a2, b2 = next((int(a), b) for a in g.vertices_of_type(1) if a > a1
                  for b in adj[a] if b not in adj[a1] and b1 not in adj[a])
    for v, old, new in ((a1, b1, b2), (b1, a1, a2), (a2, b2, b1),
                        (b2, a2, a1)):
        adj[v][adj[v].index(old)] = new
    return validate(adj, g.types)


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
        (universal_row(*ROWS[2]), eisenstein_graph(parse_eisenstein("3"))),
        (gray, bipartite_two_switch(gray.relabeled(perm))),
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
    assert verdicts == [True, True, False, False, True, False]


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
