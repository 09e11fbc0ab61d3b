"""String C-group / rotation-group validation, reflection recovery,
direct regularity, self-duality, and medial-graph construction."""

import time

import numpy as np
import pytest

from medial import polytope
from medial.catalog import (
    TABLE1_ROWS,
    ToroidalParams,
    coxeter_string,
    universal_locally_toroidal,
)
from medial.eisenstein import parse_eisenstein
from medial.fpgroup import (
    DEFAULT_MAX_COSETS,
    Presentation,
    coset_enumeration,
    gen_word,
)
from medial.cli import parse_eisenstein_product
from medial.eisenstein import ResidueRing, ScalarGroup
from medial.graphsym import to_graph6
from medial.matgroup import (
    DEFAULT_MAX_ELEMENTS,
    OverflowResult,
    generate_group,
    recover_reflection_codes,
)
from medial.permgroup import Permutation, PermutationGroup, face_action
from medial.polytope import (
    PolytopeValidationError,
    _diamond_check,
    _pair_orbit,
    generator_map_homomorphism,
    handle_from_matrix_group,
    handle_from_presentation,
    is_directly_regular,
    medial_layer_graph,
    self_duality_test,
    validate_rotation_group,
    validate_string_cgroup,
)
import reference
from reference import (
    TableProduct,
    cayley_table,
    generator_permutations,
    orbit,
)
from test_matgroup import NaiveArithmetic

CHIRAL_M = parse_eisenstein("1-w") * parse_eisenstein("1+3w")


def simplex_rhos():
    table = coset_enumeration(coxeter_string(3, 3, 3))
    return generator_permutations(table)


def universal_rhos(s, t):
    pres = universal_locally_toroidal(ToroidalParams(*s), ToroidalParams(*t))
    return generator_permutations(coset_enumeration(pres))


def test_simplex_cgroup_valid():
    rhos = simplex_rhos()
    c = validate_string_cgroup(*cayley_table(rhos))
    assert (c.schlafli.p1, c.schlafli.p2, c.schlafli.p3) == (3, 3, 3)
    assert len(c.right) == PermutationGroup(rhos).order() == 120


def test_universal_54_cgroup_valid():
    rhos = universal_rhos((1, 1), (3, 0))
    c = validate_string_cgroup(*cayley_table(rhos))
    assert (c.schlafli.p1, c.schlafli.p2, c.schlafli.p3) == (3, 6, 3)
    assert len(c.right) == PermutationGroup(rhos).order() == 324


def test_commuting_relation_violation_rejected():
    rhos = simplex_rhos()
    # Swapping rho2 into rho1's slot breaks (rho0 rho2)^2 = identity.
    broken = (rhos[0], rhos[2], rhos[1], rhos[3])
    with pytest.raises(PolytopeValidationError, match="rho0 rho"):
        validate_string_cgroup(*cayley_table(broken))


def test_non_involution_rejected():
    rhos = simplex_rhos()
    broken = (rhos[0] * rhos[1], rhos[1], rhos[2], rhos[3])
    with pytest.raises(PolytopeValidationError, match="involution"):
        validate_string_cgroup(*cayley_table(broken))


def test_intersection_condition_failure_detected():
    # Z2^4 on disjoint transpositions satisfies all string relations
    # (everything commutes, p_i = 2) and the intersection condition, but
    # breaking independence by repeating a generator must be caught.
    a = Permutation.from_cycles(8, [(0, 1)])
    b = Permutation.from_cycles(8, [(2, 3)])
    c = Permutation.from_cycles(8, [(4, 5)])
    validate_string_cgroup(
        *cayley_table((a, b, c, Permutation.from_cycles(8, [(6, 7)]))))
    with pytest.raises(PolytopeValidationError, match="intersection"):
        validate_string_cgroup(*cayley_table((a, b, c, a)))


def simplex_sigmas():
    rhos = simplex_rhos()
    return (rhos[0] * rhos[1], rhos[1] * rhos[2], rhos[2] * rhos[3])


def test_simplex_rotation_group_valid():
    sigmas = simplex_sigmas()
    r = validate_rotation_group(*cayley_table(sigmas))
    assert (r.schlafli.p1, r.schlafli.p2, r.schlafli.p3) == (3, 3, 3)
    assert len(r.right) == PermutationGroup(sigmas).order() == 60


def naive_table(naive, gens):
    """The Cayley table of the tuple-arithmetic elements ``gens``."""
    return cayley_table(gens, naive.identity, naive.naive_multiply)


def test_eisenstein_sigmas_valid():
    for m, p in ((parse_eisenstein("3"), (3, 6, 3)),
                 (CHIRAL_M, (3, 6, 3))):
        naive = NaiveArithmetic(generate_group(m))
        r = validate_rotation_group(*naive_table(naive, naive.sigmas))
        assert (r.schlafli.p1, r.schlafli.p2, r.schlafli.p3) == p


def test_degenerate_rotation_input_rejected():
    # Transpositions of S3 extended trivially: (s1 s2 s3)^2 != identity.
    s1 = Permutation.from_cycles(3, [(0, 1)])
    s2 = Permutation.from_cycles(3, [(1, 2)])
    s3 = Permutation.from_cycles(3, [(0, 2)])
    with pytest.raises(PolytopeValidationError):
        validate_rotation_group(*cayley_table((s1, s2, s3)))


def test_rotation_intersection_failure_detected():
    # u = sigma2^3 is an involution, so (u, u, u) satisfies (R'), but
    # <sigma1> ^ <sigma2> = <u> is not trivial.
    naive = NaiveArithmetic(generate_group(parse_eisenstein("3")))
    ident, mul = naive.identity, naive.naive_multiply
    s2 = naive.sigmas[1]
    u = mul(mul(s2, s2), s2)
    assert u != ident and mul(u, u) == ident
    with pytest.raises(PolytopeValidationError, match="intersection"):
        validate_rotation_group(*naive_table(naive, (u, u, u)))


def test_reflection_recovery_in_full_cayley_group():
    mg = generate_group(parse_eisenstein("3"))
    naive = NaiveArithmetic(mg)
    ident, mul, elements = naive.identity, naive.naive_multiply, \
        naive.elements()
    s1, s2, _ = naive.sigmas

    def inverse(x):
        return next(y for y in elements if mul(x, y) == ident)

    def reflects(r):
        return (r != ident and mul(r, r) == ident
                and mul(mul(r, s1), r) == inverse(s1)
                and mul(mul(r, s2), r) == inverse(s2))

    # The reflection lies outside the rotation subgroup (star 0); searching
    # only there must fail, searching the full group must succeed.
    assert not any(reflects(r) for r in elements if not r[4])
    rhos = tuple(map(naive.decode, recover_reflection_codes(mg)))
    assert reflects(rhos[1])
    c = validate_string_cgroup(*naive_table(naive, rhos))
    assert len(c.right) == len(orbit([ident], rhos, mul)) == 324
    assert (c.schlafli.p1, c.schlafli.p2, c.schlafli.p3) == (3, 6, 3)


def test_directly_regular_simplex_true():
    assert is_directly_regular(
        validate_rotation_group(*cayley_table(simplex_sigmas()))) is True


def test_directly_regular_eisenstein_regular_true():
    # The reflection twist exists and is outer (conjugation-linear).
    naive = NaiveArithmetic(generate_group(parse_eisenstein("3")))
    r = validate_rotation_group(*naive_table(naive, naive.sigmas))
    assert is_directly_regular(r) is True


def test_directly_regular_chiral_false():
    naive = NaiveArithmetic(generate_group(CHIRAL_M))
    r = validate_rotation_group(*naive_table(naive, naive.sigmas))
    assert is_directly_regular(r) is False


def test_directly_regular_inner_twist_false():
    # With (rho0 rho1 rho2)^3 = 1 the cubic facets of {4,3,4} become
    # hemi-cubes: the polytope is not orientable, the sigmas generate all
    # 192 elements, and the twist is conjugation by rho0, an inner
    # automorphism.
    cubic = coxeter_string(4, 3, 4)
    pres = Presentation(cubic.names, cubic.relators + (gen_word(0, 1, 2) * 3,))
    rhos = generator_permutations(coset_enumeration(pres))
    validate_string_cgroup(*cayley_table(rhos))
    sigmas = [rhos[j] * rhos[j + 1] for j in range(3)]
    assert PermutationGroup(sigmas).order() == 192
    assert is_directly_regular(
        validate_rotation_group(*cayley_table(sigmas))) is False


def test_chiral_handle_rejects_directly_regular(monkeypatch):
    mg = generate_group(CHIRAL_M)
    monkeypatch.setattr(polytope, "is_directly_regular", lambda r: True)
    with pytest.raises(PolytopeValidationError, match="directly regular"):
        handle_from_matrix_group(mg)


def test_self_duality():
    for rhos, self_dual in ((universal_rhos((1, 1), (1, 1)), True),
                            (universal_rhos((1, 1), (3, 0)), False),
                            (simplex_rhos(), True)):
        assert self_duality_test(
            validate_string_cgroup(*cayley_table(rhos))) is self_dual


@pytest.mark.parametrize("p1,order,self_dual", [(3, 120, True),
                                                (4, 384, False)])
def test_faithful_action_on_vertices_validates(p1, order, self_dual):
    # The action on the cosets of <rho1, rho2, rho3> (the vertices) is
    # faithful but not regular: elements are permutations of small degree.
    table = coset_enumeration(coxeter_string(p1, 3, 3),
                              [gen_word(1), gen_word(2), gen_word(3)])
    rhos = generator_permutations(table)
    assert rhos[0].degree == order // 24
    c = validate_string_cgroup(*cayley_table(rhos))
    assert (c.schlafli.p1, c.schlafli.p2, c.schlafli.p3) == (p1, 3, 3)
    assert len(c.right) == PermutationGroup(rhos).order() == order
    assert self_duality_test(c) is self_dual


@pytest.mark.parametrize("s,t,order,n", [
    ((1, 1), (1, 1), 108, 18),
    ((1, 1), (3, 0), 324, 54),
    ((2, 0), (2, 0), 240, 40),
])
def test_presentation_handles(s, t, order, n):
    pres = universal_locally_toroidal(ToroidalParams(*s), ToroidalParams(*t))
    h = handle_from_presentation(pres, f"{s}-{t}")
    assert h.group_order == order
    assert h.kind == "regular"
    g = medial_layer_graph(h)
    assert g.n == n
    assert g.n == 2 * order // 12


def test_matrix_handles_regular_and_chiral():
    h = handle_from_matrix_group(generate_group(parse_eisenstein("3")))
    assert (h.kind, h.group_order) == ("regular", 324)
    assert h.self_dual is False
    assert medial_layer_graph(h).n == 54

    h = handle_from_matrix_group(generate_group(CHIRAL_M))
    assert (h.kind, h.group_order) == ("chiral", 2016)
    g = medial_layer_graph(h)
    assert g.n == 672
    assert g.n == 2 * 2016 // 6


def test_two_pipelines_agree_on_54_vertex_graph():
    from medial.graphsym import is_isomorphic
    pres = universal_locally_toroidal(ToroidalParams(1, 1), ToroidalParams(3, 0))
    g1 = medial_layer_graph(handle_from_presentation(pres, "p"))
    g2 = medial_layer_graph(
        handle_from_matrix_group(generate_group(parse_eisenstein("3"))))
    ok, witness = is_isomorphic(g1, g2)
    assert ok and witness is not None


def naive_face_action(identity, gens, mul, stabilizer_gens):
    """The element-at-a-time face action, the reference for
    ``permgroup.face_action``: each new coset is first met as the block of
    an earlier coset times a generator, in (coset, generator) order."""
    blocks = [list(orbit([identity], stabilizer_gens, mul))]
    coset_of = dict.fromkeys(blocks[0], 0)
    images = [[] for _ in gens]
    for block in blocks:
        for row, g in zip(images, gens):
            target = coset_of.get(mul(block[0], g))
            if target is None:
                target = len(blocks)
                moved = [mul(x, g) for x in block]
                coset_of.update(dict.fromkeys(moved, target))
                blocks.append(moved)
            row.append(target)
    return images


def naive_pair_orbit(images1, images2):
    return orbit([(0, 0)], list(zip(images1, images2)),
                 lambda pair, g: (g[0][pair[0]], g[1][pair[1]]))


def face_actions(pres):
    """The four face actions, as the presentation route derives them from
    the generator columns of the one full coset table."""
    right = coset_enumeration(pres).columns.T
    return [face_action(right, 0, range(4),
                        [i for i in range(4) if i != rank])
            for rank in range(4)]


INCIDENT_RANKS = ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3))


@pytest.mark.parametrize("s,t", TABLE1_ROWS[:5])
def test_face_action_matches_reference_on_presentations(s, t):
    pres = universal_locally_toroidal(ToroidalParams(*s), ToroidalParams(*t))
    columns = coset_enumeration(pres).columns.tolist()
    actions = face_actions(pres)
    for rank, action in enumerate(actions):
        assert action.tolist() == naive_face_action(
            0, range(4), lambda c, g: columns[g][c],
            [i for i in range(4) if i != rank])
    for a, b in INCIDENT_RANKS:
        assert set(map(tuple, _pair_orbit(actions[a], actions[b]).tolist())) \
            == naive_pair_orbit(actions[a].tolist(), actions[b].tolist())


@pytest.mark.parametrize("m", [parse_eisenstein("3"), CHIRAL_M])
def test_face_action_matches_reference_on_matrix_groups(m):
    mg = generate_group(m)
    naive = NaiveArithmetic(mg)
    ident, mul = naive.identity, naive.naive_multiply
    if mg.kind == "regular":
        gens = [naive.decode(r) for r in recover_reflection_codes(mg)]
        stabilizers = [[gens[i] for i in range(4) if i != rank]
                       for rank in range(4)]
    else:
        s1, s2, s3 = gens = naive.sigmas
        stabilizers = [(s2, s3), (mul(s1, s2), s3), (s1, mul(s2, s3)),
                       (s1, s2)]
    reference = [naive_face_action(ident, gens, mul, stab)
                 for stab in stabilizers]
    codes = [naive.encode(x) for x in gens]
    assert [mg.coset_action([naive.encode(x) for x in stab], codes)
            for stab in stabilizers] == reference
    handle = handle_from_matrix_group(mg)
    assert handle.rank1_images.tolist() == reference[1]
    assert handle.rank2_images.tolist() == reference[2]
    for a, b in INCIDENT_RANKS:
        assert set(map(tuple, _pair_orbit(reference[a],
                                          reference[b]).tolist())) \
            == naive_pair_orbit(reference[a], reference[b])


@pytest.mark.parametrize("s,t", TABLE1_ROWS[:4])
def test_face_action_matches_todd_coxeter(s, t):
    pres = universal_locally_toroidal(ToroidalParams(*s), ToroidalParams(*t))
    for rank, action in enumerate(face_actions(pres)):
        oracle = coset_enumeration(
            pres, [gen_word(i) for i in range(4) if i != rank])
        images = oracle.columns.tolist()
        assert len(action[0]) == oracle.num_cosets
        # The diagonal orbit of the base pair is the graph of a bijection
        # commuting with every generator: the actions are isomorphic, with
        # base face matched to base face.
        assert len(_pair_orbit(action, images)) == oracle.num_cosets


def test_presentation_route_enumerates_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return coset_enumeration(*args, **kwargs)

    monkeypatch.setattr(polytope, "coset_enumeration", counting)
    pres = universal_locally_toroidal(ToroidalParams(2, 0), ToroidalParams(2, 2))
    assert handle_from_presentation(pres, "row 4").group_order == 720
    # The group is enumerated once, over the base 1-face stabilizer, and
    # never over the trivial subgroup; the only other enumeration is the
    # stabilizer's own 12-element bound.
    on_pres = [args for args in calls if args[0] is pres]
    assert on_pres == [(pres, [gen_word(i) for i in polytope._PARABOLIC[1]])]
    assert [coset_enumeration(*args).num_cosets for args in calls
            if args[0] is not pres] == [12]


def handle_summary(handle):
    """Everything a handle carries, and the graph6 export of its graph."""
    return (handle.group_order, str(handle.schlafli), handle.self_dual,
            handle.rank1_images.tolist(), handle.rank2_images.tolist(),
            to_graph6(medial_layer_graph(handle)))


def trivial_subgroup_handle(monkeypatch, pres, label):
    """The handle when the route enumerates the trivial subgroup only."""
    with monkeypatch.context() as m:
        m.setattr(polytope, "_ENUMERATED_SUBGROUPS", ((),))
        return handle_from_presentation(pres, label)


PRESENTATIONS = {
    **{f"row {i + 1}": universal_locally_toroidal(ToroidalParams(*s),
                                                  ToroidalParams(*t))
       for i, (s, t) in enumerate(TABLE1_ROWS[:6])},
    "[3,3,3]": coxeter_string(3, 3, 3),
}


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_certified_stabilizer_route_matches_trivial_subgroup(monkeypatch,
                                                             name):
    pres = PRESENTATIONS[name]
    assert handle_summary(handle_from_presentation(pres, name)) \
        == handle_summary(trivial_subgroup_handle(monkeypatch, pres, name))


@pytest.mark.slow
def test_certified_stabilizer_route_matches_trivial_subgroup_row_7(
        monkeypatch):
    s, t = TABLE1_ROWS[6]
    pres = universal_locally_toroidal(ToroidalParams(*s), ToroidalParams(*t))
    handle = handle_from_presentation(pres, "row 7")
    assert handle.group_order == 241920
    assert handle_summary(handle) \
        == handle_summary(trivial_subgroup_handle(monkeypatch, pres, "row 7"))


def plain_enumeration_route(pres, label):
    """The handle the way a single enumeration of the whole group gives
    it: coset indices as elements, the table's generator columns as the
    Cayley table."""
    right = coset_enumeration(pres).columns.T
    return polytope._checked_handle(label, "regular", right, 0, range(4),
                                    polytope._PARABOLIC)


def outcome(route, pres, label):
    try:
        return handle_summary(route(pres, label))
    except PolytopeValidationError as exc:
        return str(exc)


@pytest.mark.parametrize("extra", [gen_word(0, 1), gen_word(0, 2, 3, 1)])
def test_collapsed_stabilizer_falls_back_to_trivial_subgroup(monkeypatch,
                                                             extra):
    # rho0 = rho1 (or rho0 rho2 rho3 = rho1) puts the whole group in
    # <rho0, rho2, rho3>: one coset, which no base tuple certifies.
    row4 = universal_locally_toroidal(ToroidalParams(2, 0),
                                      ToroidalParams(2, 2))
    pres = Presentation(row4.names, row4.relators + (extra,))
    subgroups = []

    def recording(p, subgens=(), **kwargs):
        if p is pres:
            subgroups.append(list(subgens))
        return coset_enumeration(p, subgens, **kwargs)

    monkeypatch.setattr(polytope, "coset_enumeration", recording)
    got = outcome(handle_from_presentation, pres, "collapsed")
    assert subgroups == [[gen_word(i) for i in polytope._PARABOLIC[1]], []]
    monkeypatch.undo()
    assert got == outcome(plain_enumeration_route, pres, "collapsed")


def test_time_budget_bounds_base_orbit(monkeypatch):
    # Enumerations that ignore the deadline leave it to the base orbit.
    monkeypatch.setattr(
        polytope, "coset_enumeration",
        lambda p, subgens=(), max_cosets=DEFAULT_MAX_COSETS,
        deadline=None: coset_enumeration(p, subgens, max_cosets))
    pres = universal_locally_toroidal(ToroidalParams(3, 0), ToroidalParams(3, 0))
    with pytest.raises(OverflowResult, match="time budget exceeded"):
        handle_from_presentation(pres, "row 5", deadline=time.monotonic())


def test_diamond_check_rejects_broken_action():
    pres = universal_locally_toroidal(ToroidalParams(2, 0), ToroidalParams(2, 2))
    actions = face_actions(pres)
    _diamond_check(actions, "row 4")
    broken = [list(rows) for rows in actions]
    swapped = list(broken[1][0])
    swapped[0], swapped[1] = swapped[1], swapped[0]
    broken[1][0] = swapped
    with pytest.raises(PolytopeValidationError, match="row 4"):
        _diamond_check(broken, "row 4")


def library_outcome(right, identity):
    """The Schlafli type and self-duality (four columns) or direct
    regularity (three columns) from the table validators, or the type and
    message of the PolytopeValidationError they raise."""
    try:
        if right.shape[1] == 4:
            c = validate_string_cgroup(right, identity)
            return str(c.schlafli), self_duality_test(c)
        r = validate_rotation_group(right, identity)
        return str(r.schlafli), is_directly_regular(r)
    except PolytopeValidationError as exc:
        return f"{type(exc).__name__}: {exc}"


def reference_outcome(gens, identity, mul):
    """``library_outcome`` from the generic reference validators, on
    generators in any element form."""
    try:
        if len(gens) == 4:
            c = reference.validate_string_cgroup(gens, identity, mul)
            return str(c.schlafli), reference.self_duality_test(c)
        r = reference.validate_rotation_group(gens, identity, mul)
        return str(r.schlafli), reference.is_directly_regular(r)
    except PolytopeValidationError as exc:
        return f"{type(exc).__name__}: {exc}"


def sigma_columns(right):
    """The table on sigma_j = rho_(j-1) rho_j, from the table on
    rho0..rho3."""
    return np.stack([right[right[:, j], j + 1] for j in range(3)], axis=1)


def broken_columns(right):
    """Column changes of a table that break a relation or an
    intersection: swapped generators, a product for a generator, and a
    repeated generator (sigma2^3 for each sigma)."""
    if right.shape[1] == 4:
        return [right[:, [0, 2, 1, 3]],
                np.stack([right[right[:, 0], 1], *right[:, 1:].T], axis=1),
                right[:, [0, 3, 0, 3]]]
    u = right[right[right[:, 1], 1], 1]
    return [right[:, [1, 0, 2]], np.stack([u, u, u], axis=1)]


def presentation_tables(name):
    """The Cayley table of a presentation on rho0..rho3 and its identity
    row: a Table 1 row by the pipeline's certified orbit, or a string
    Coxeter group by one enumeration of the whole group."""
    if name.startswith("row"):
        s, t = TABLE1_ROWS[int(name[4:]) - 1]
        pres = universal_locally_toroidal(ToroidalParams(*s),
                                          ToroidalParams(*t))
        return polytope._certified_cayley_table(
            pres, polytope._PARABOLIC[1], DEFAULT_MAX_COSETS,
            DEFAULT_MAX_ELEMENTS, None)
    p1, p2, p3, petrie = STRING_GROUPS[name]
    pres = coxeter_string(p1, p2, p3)
    if petrie:
        pres = Presentation(pres.names, pres.relators
                            + (gen_word(0, 1, 2) * petrie,
                               gen_word(1, 2, 3) * petrie))
    return coset_enumeration(pres).columns.T, 0


STRING_GROUPS = {"[3,3,3]": (3, 3, 3, 0), "[3,4,3]": (3, 4, 3, 0),
                 "11-cell": (3, 5, 3, 5)}

#: Self-duality of each regular instance, as its ``medial build`` prints
#: it; the string groups are the self-dual ones of the ROADMAP baseline.
SELF_DUAL = {"row 1": True, "row 2": False, "row 3": True, "row 4": False,
             "row 5": True, "row 6": False, "[3,3,3]": True,
             "[3,4,3]": True, "11-cell": True,
             "3": False, "2-2w": False, "3-3w": False, "6": False,
             "4-4w": False, "3-3w A=w": False,
             "(1-w)*(1+3w)": None, "(1-w)*(1+4w)": None}


def instance_tables(name):
    """The tables on the reflections (for a regular instance) and on the
    sigmas, with their identity row."""
    if name in STRING_GROUPS or name.startswith("row"):
        right, identity = presentation_tables(name)
        return [right, sigma_columns(right)], identity
    m, _, scalars = name.partition(" A=")
    m = parse_eisenstein_product(m)
    mg = generate_group(m, ScalarGroup(
        ResidueRing(m), [parse_eisenstein(a) for a in scalars.split(",")
                         if a]))
    rhos = recover_reflection_codes(mg)
    tables = [mg.cayley_table(mg.sigma_codes)]
    if rhos is not None:
        tables.insert(0, mg.cayley_table(rhos))
    return tables, int(np.searchsorted(mg.codes, mg.identity))


@pytest.mark.parametrize("name", SELF_DUAL)
def test_table_validators_match_generic_reference(name):
    # Every verdict, and every message of a broken variant, equals the
    # generic validators' on the rows of the same table.
    tables, identity = instance_tables(name)
    regular = SELF_DUAL[name] is not None
    assert len(tables) == 1 + regular
    for right in tables:
        for table in [right, *broken_columns(right)]:
            got = library_outcome(table, identity)
            assert got == reference_outcome(range(table.shape[1]), identity,
                                            TableProduct(table)), name
    # Self-duality of the reflections, or direct regularity of a chiral
    # group's sigmas.
    schlafli, verdict = library_outcome(tables[0], identity)
    assert verdict is (SELF_DUAL[name] if regular else False)
    if name == "11-cell":
        # Its facets are hemi-icosahedra, so the sigmas generate the whole
        # group and its rotation subgroup fails (C').
        assert library_outcome(tables[-1], identity) == (
            "PolytopeValidationError: intersection condition fails:"
            " <sigma1,sigma2> ^ <sigma2,sigma3> has order 10, <sigma2> has"
            " order 5")
    else:
        # The sigma columns of a regular table reach only the rotation
        # subgroup, which the reflection twist makes directly regular.
        assert library_outcome(tables[-1], identity) == (schlafli, regular)
    if name == "[3,3,3]":
        # sigma2^3 is the identity there, so the variant with sigma2^3 in
        # every column passes (R') and (C') and fails on its first sigma.
        assert library_outcome(broken_columns(tables[-1])[-1], identity) \
            == "PolytopeValidationError: sigma1 is the identity"


def test_generator_map_homomorphism_matches_reference():
    # Z4 on the columns (a^2, a), element k being a^k.  a |-> a^3 is an
    # automorphism; a^2 |-> a and a |-> a fails only against an element
    # of an earlier level (a^2 a^2 = 1 would map to a^2), a |-> a^2 fails
    # within a level, and start 1 gives the left translation by a.
    right = np.array([[(k + 2) % 4, (k + 1) % 4] for k in range(4)])
    for start, images in ((0, [(0,), (1, 1, 1)]), (0, [(1,), (1,)]),
                          (0, [(0,), (0,)]), (1, [(0,), (1,)])):
        got = generator_map_homomorphism(right, 0, start, images)
        if got is not None:
            got = {x: int(got[x]) for x in np.flatnonzero(got >= 0)}
        assert got == reference.generator_map_homomorphism(
            (0, 1), start, images, 0, TableProduct(right)), images
    # The column a^2 alone reaches only {1, a^2}.
    assert generator_map_homomorphism(right[:, :1], 0, 0, [(0,)]).tolist() \
        == [0, -1, 2, -1]


@pytest.mark.parametrize("m,scalars", [
    ("3", ()), ("2-2w", ()), ("3-3w", ()), ("3-3w", ("w",)),
    ("(1-w)*(1+3w)", ())])
def test_table_rows_and_tuple_arithmetic_agree(m, scalars):
    m = parse_eisenstein_product(m)
    mg = generate_group(m, ScalarGroup(ResidueRing(m),
                                       [parse_eisenstein(a) for a in scalars]))
    naive = NaiveArithmetic(mg)
    identity = int(np.searchsorted(mg.codes, mg.identity))
    rhos = recover_reflection_codes(mg)
    columns = [mg.sigma_codes] if rhos is None else [rhos, mg.sigma_codes]
    rows = [library_outcome(mg.cayley_table(c), identity) for c in columns]
    tuples = [reference_outcome([naive.decode(x) for x in c], naive.identity,
                                naive.naive_multiply) for c in columns]
    assert rows == tuples
    handle = handle_from_matrix_group(mg)
    assert (str(handle.schlafli), handle.self_dual) == \
        (rows[0] if rhos else (rows[0][0], None))
    assert rows[-1][1] is (mg.kind == "regular")
