"""String C-group / rotation-group validation, reflection recovery,
direct regularity, self-duality, and medial-graph construction."""

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
from medial.permgroup import Permutation, PermutationGroup, face_action, orbit
from medial.polytope import (
    PolytopeValidationError,
    _diamond_check,
    _pair_orbit,
    handle_from_matrix_group,
    handle_from_presentation,
    is_directly_regular,
    medial_layer_graph,
    self_duality_test,
    validate_rotation_group,
    validate_string_cgroup,
)
from test_matgroup import NaiveArithmetic

CHIRAL_M = parse_eisenstein("1-w") * parse_eisenstein("1+3w")


def simplex_rhos():
    table = coset_enumeration(coxeter_string(3, 3, 3))
    return table.generator_permutations()


def universal_rhos(s, t):
    pres = universal_locally_toroidal(ToroidalParams(*s), ToroidalParams(*t))
    return coset_enumeration(pres).generator_permutations()


def test_simplex_cgroup_valid():
    c = validate_string_cgroup(simplex_rhos())
    assert (c.schlafli.p1, c.schlafli.p2, c.schlafli.p3) == (3, 3, 3)
    assert PermutationGroup(c.rhos).order() == 120


def test_universal_54_cgroup_valid():
    c = validate_string_cgroup(universal_rhos((1, 1), (3, 0)))
    assert (c.schlafli.p1, c.schlafli.p2, c.schlafli.p3) == (3, 6, 3)
    assert PermutationGroup(c.rhos).order() == 324


def test_commuting_relation_violation_rejected():
    rhos = simplex_rhos()
    # Swapping rho2 into rho1's slot breaks (rho0 rho2)^2 = identity.
    broken = (rhos[0], rhos[2], rhos[1], rhos[3])
    with pytest.raises(PolytopeValidationError, match="rho0 rho"):
        validate_string_cgroup(broken)


def test_non_involution_rejected():
    rhos = simplex_rhos()
    broken = (rhos[0] * rhos[1], rhos[1], rhos[2], rhos[3])
    with pytest.raises(PolytopeValidationError, match="involution"):
        validate_string_cgroup(broken)


def test_intersection_condition_failure_detected():
    # Z2^4 on disjoint transpositions satisfies all string relations
    # (everything commutes, p_i = 2) and the intersection condition, but
    # breaking independence by repeating a generator must be caught.
    a = Permutation.from_cycles(8, [(0, 1)])
    b = Permutation.from_cycles(8, [(2, 3)])
    c = Permutation.from_cycles(8, [(4, 5)])
    validate_string_cgroup((a, b, c, Permutation.from_cycles(8, [(6, 7)])))
    with pytest.raises(PolytopeValidationError, match="intersection"):
        validate_string_cgroup((a, b, c, a))


def simplex_sigmas():
    rhos = simplex_rhos()
    return (rhos[0] * rhos[1], rhos[1] * rhos[2], rhos[2] * rhos[3])


def test_simplex_rotation_group_valid():
    r = validate_rotation_group(simplex_sigmas())
    assert (r.schlafli.p1, r.schlafli.p2, r.schlafli.p3) == (3, 3, 3)
    assert PermutationGroup(r.sigmas).order() == 60


def test_eisenstein_sigmas_valid():
    for m, p in ((parse_eisenstein("3"), (3, 6, 3)),
                 (CHIRAL_M, (3, 6, 3))):
        naive = NaiveArithmetic(generate_group(m))
        r = validate_rotation_group(naive.sigmas, naive.identity,
                                    naive.naive_multiply)
        assert (r.schlafli.p1, r.schlafli.p2, r.schlafli.p3) == p


def test_degenerate_rotation_input_rejected():
    # Transpositions of S3 extended trivially: (s1 s2 s3)^2 != identity.
    s1 = Permutation.from_cycles(3, [(0, 1)])
    s2 = Permutation.from_cycles(3, [(1, 2)])
    s3 = Permutation.from_cycles(3, [(0, 2)])
    with pytest.raises(PolytopeValidationError):
        validate_rotation_group((s1, s2, s3))


def test_rotation_intersection_failure_detected():
    # u = sigma2^3 is an involution, so (u, u, u) satisfies (R'), but
    # <sigma1> ^ <sigma2> = <u> is not trivial.
    naive = NaiveArithmetic(generate_group(parse_eisenstein("3")))
    ident, mul = naive.identity, naive.naive_multiply
    s2 = naive.sigmas[1]
    u = mul(mul(s2, s2), s2)
    assert u != ident and mul(u, u) == ident
    with pytest.raises(PolytopeValidationError, match="intersection"):
        validate_rotation_group((u, u, u), ident, mul)


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
    c = validate_string_cgroup(rhos, ident, mul)
    assert len(orbit([ident], c.rhos, mul)) == 324
    assert (c.schlafli.p1, c.schlafli.p2, c.schlafli.p3) == (3, 6, 3)


def test_directly_regular_simplex_true():
    assert is_directly_regular(validate_rotation_group(simplex_sigmas())) is True


def test_directly_regular_eisenstein_regular_true():
    # The reflection twist exists and is outer (conjugation-linear).
    naive = NaiveArithmetic(generate_group(parse_eisenstein("3")))
    r = validate_rotation_group(naive.sigmas, naive.identity,
                                naive.naive_multiply)
    assert is_directly_regular(r) is True


def test_directly_regular_chiral_false():
    naive = NaiveArithmetic(generate_group(CHIRAL_M))
    r = validate_rotation_group(naive.sigmas, naive.identity,
                                naive.naive_multiply)
    assert is_directly_regular(r) is False


def test_directly_regular_inner_twist_false():
    # With (rho0 rho1 rho2)^3 = 1 the cubic facets of {4,3,4} become
    # hemi-cubes: the polytope is not orientable, the sigmas generate all
    # 192 elements, and the twist is conjugation by rho0, an inner
    # automorphism.
    cubic = coxeter_string(4, 3, 4)
    pres = Presentation(cubic.names, cubic.relators + (gen_word(0, 1, 2) * 3,))
    rhos = validate_string_cgroup(
        coset_enumeration(pres).generator_permutations()).rhos
    sigmas = [rhos[j] * rhos[j + 1] for j in range(3)]
    assert PermutationGroup(sigmas).order() == 192
    assert is_directly_regular(validate_rotation_group(sigmas)) is False


def test_chiral_handle_rejects_directly_regular(monkeypatch):
    mg = generate_group(CHIRAL_M)
    monkeypatch.setattr(polytope, "is_directly_regular", lambda r: True)
    with pytest.raises(PolytopeValidationError, match="directly regular"):
        handle_from_matrix_group(mg)


def test_self_duality():
    assert self_duality_test(
        validate_string_cgroup(universal_rhos((1, 1), (1, 1)))) is True
    assert self_duality_test(
        validate_string_cgroup(universal_rhos((1, 1), (3, 0)))) is False
    assert self_duality_test(validate_string_cgroup(simplex_rhos())) is True


@pytest.mark.parametrize("p1,order,self_dual", [(3, 120, True),
                                                (4, 384, False)])
def test_faithful_action_on_vertices_validates(p1, order, self_dual):
    # The action on the cosets of <rho1, rho2, rho3> (the vertices) is
    # faithful but not regular: elements are permutations of small degree.
    table = coset_enumeration(coxeter_string(p1, 3, 3),
                              [gen_word(1), gen_word(2), gen_word(3)])
    rhos = table.generator_permutations()
    assert rhos[0].degree == order // 24
    c = validate_string_cgroup(rhos)
    assert (c.schlafli.p1, c.schlafli.p2, c.schlafli.p3) == (p1, 3, 3)
    assert PermutationGroup(c.rhos).order() == order
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
        images = [p.images.tolist() for p in oracle.generator_permutations()]
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
        time_budget=None: coset_enumeration(p, subgens, max_cosets))
    pres = universal_locally_toroidal(ToroidalParams(3, 0), ToroidalParams(3, 0))
    with pytest.raises(OverflowResult, match="time budget exceeded"):
        handle_from_presentation(pres, "row 5", time_budget=0)


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


class GeneratorsOnly:
    """Multiplication on the rows of a Cayley table that raises unless the
    second factor is a generator index: what the validators may call."""

    def __init__(self, right):
        self.rows, self.generators = right.tolist(), range(right.shape[1])

    def __call__(self, element, generator):
        if generator not in self.generators:
            raise AssertionError(f"multiplied by {generator!r}")
        return self.rows[element][generator]


def table_form(mg, columns):
    """The identity row and the strict ``mul`` of the Cayley table of a
    matrix group on the coded elements ``columns``."""
    return (int(np.searchsorted(mg.codes, mg.identity)),
            GeneratorsOnly(mg.cayley_table(columns)))


def row_table(row):
    s, t = TABLE1_ROWS[row - 1]
    pres = universal_locally_toroidal(ToroidalParams(*s), ToroidalParams(*t))
    right, identity = polytope._certified_cayley_table(
        pres, polytope._PARABOLIC[1], f"row {row}", DEFAULT_MAX_COSETS,
        DEFAULT_MAX_ELEMENTS, None)
    return identity, GeneratorsOnly(right)


@pytest.mark.parametrize("row,schlafli,self_dual", [
    (4, (3, 6, 3), False), (5, (3, 6, 3), True)])
def test_validators_multiply_by_generators_only_on_rows(row, schlafli,
                                                        self_dual):
    identity, mul = row_table(row)
    c = validate_string_cgroup(range(4), identity, mul)
    assert (c.schlafli.p1, c.schlafli.p2, c.schlafli.p3) == schlafli
    assert self_duality_test(c) is self_dual


@pytest.mark.parametrize("m,self_dual,directly_regular", [
    ("3", False, True), ("2-2w", False, True),
    ("(1-w)*(1+3w)", None, False)])
def test_validators_multiply_by_generators_only_on_matrix_groups(
        m, self_dual, directly_regular):
    mg = generate_group(parse_eisenstein_product(m))
    if mg.kind == "regular":
        c = validate_string_cgroup(
            range(4), *table_form(mg, recover_reflection_codes(mg)))
        assert self_duality_test(c) is self_dual
    r = validate_rotation_group(range(3), *table_form(mg, mg.sigma_codes))
    assert (r.schlafli.p1, r.schlafli.p2, r.schlafli.p3) == (3, 6, 3)
    assert is_directly_regular(r) is directly_regular


@pytest.mark.parametrize("m,scalars", [
    ("3", ()), ("2-2w", ()), ("3-3w", ()), ("3-3w", ("w",)),
    ("(1-w)*(1+3w)", ())])
def test_table_rows_and_tuple_arithmetic_agree(m, scalars):
    m = parse_eisenstein_product(m)
    mg = generate_group(m, ScalarGroup(ResidueRing(m),
                                       [parse_eisenstein(a) for a in scalars]))
    naive = NaiveArithmetic(mg)

    def verdicts(reflections, rotations):
        """Schlafli type, self-duality and direct regularity, from the
        reflections (None for a chiral group) and the rotations, each
        given as (generators, identity, mul)."""
        r = validate_rotation_group(*rotations)
        if reflections is None:
            return r.schlafli, None, is_directly_regular(r)
        c = validate_string_cgroup(*reflections)
        return c.schlafli, self_duality_test(c), is_directly_regular(r)

    rhos = recover_reflection_codes(mg)
    rows = verdicts(rhos and (range(4), *table_form(mg, rhos)),
                    (range(3), *table_form(mg, mg.sigma_codes)))
    tuples = verdicts(
        rhos and ([naive.decode(r) for r in rhos], naive.identity,
                  naive.naive_multiply),
        (naive.sigmas, naive.identity, naive.naive_multiply))
    assert rows == tuples
    handle = handle_from_matrix_group(mg)
    assert (handle.schlafli, handle.self_dual) == rows[:2]
    assert rows[2] is (mg.kind == "regular")
