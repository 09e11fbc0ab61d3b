"""The frozen generator triple and the matrix-group closures: defining
relations, order certificates at four moduli, regularity verdicts,
canonicalization invariance, and the right-regular action on the
elements."""

import random

import pytest

from medial.eisenstein import (
    EisensteinInt,
    ResidueRing,
    ScalarGroup,
    parse_eisenstein,
    vertex_count,
)
from medial.matgroup import (
    SIGMA_TRIPLE,
    ConfigurationError,
    OverflowResult,
    ResidueMatrix,
    find_generators,
    generate_group,
    identity_matrix,
    recover_reflection_codes,
    regularity_test,
)
from medial.permgroup import Permutation, PermutationGroup, orbit

RNG = random.Random(11)

CHIRAL_M = parse_eisenstein("1-w") * parse_eisenstein("1+3w")


def test_relations_hold_integrally():
    # Large modulus: the relations then certify the integral statement for
    # every entry of every relation word (entries are tiny by construction).
    find_generators(parse_eisenstein("30"))


@pytest.mark.parametrize("m,order,kind", [
    ("3", 324, "regular"),
    ("2-2w", 720, "regular"),
    ("3-3w", 8748, "regular"),
])
def test_group_orders_regular(m, order, kind):
    m = parse_eisenstein(m)
    g = generate_group(m)
    assert (g.kind, g.order) == (kind, order)


def test_group_order_chiral():
    g = generate_group(CHIRAL_M)
    assert (g.kind, g.order) == ("chiral", 2016)


def test_rotation_subgroup_has_index_2_when_regular():
    g = generate_group(parse_eisenstein("3"))
    rotations = orbit([g.identity_code()], g.sigma_codes, g.multiply)
    assert len(rotations) * 2 == g.order
    assert all(code[4] == 0 for code in rotations)


@pytest.mark.parametrize("m,verdict", [
    ("3", "regular"),
    ("2-2w", "regular"),
    ("3-3w", "regular"),
])
def test_regularity_verdicts(m, verdict):
    m = parse_eisenstein(m)
    A = ScalarGroup(ResidueRing(m))
    assert regularity_test(m, A) == verdict


def test_chiral_verdict():
    A = ScalarGroup(ResidueRing(CHIRAL_M))
    assert regularity_test(CHIRAL_M, A) == "chiral"


def test_precondition_norm_3k():
    for bad in ("1-w", "2", "5"):  # norms 3, 4, 25
        with pytest.raises(ConfigurationError):
            find_generators(parse_eisenstein(bad))


def test_relation_failure_is_named():
    ring = ResidueRing(parse_eisenstein("3"))
    broken = list(SIGMA_TRIPLE)
    broken[0] = (EisensteinInt(1, 0), EisensteinInt(1, 0),
                 EisensteinInt(0, 0), EisensteinInt(1, 0))
    with pytest.raises(ConfigurationError,
                       match=r"relation \(sigma1 sigma2\)\^2 fails"):
        find_generators(parse_eisenstein("3"), broken)
    del ring


def test_canonicalization_scalar_invariance():
    m = parse_eisenstein("3-3w")
    ring = ResidueRing(m)
    A = ScalarGroup(ring, [parse_eisenstein("w")])
    g = generate_group(m, A)
    for _ in range(50):
        code = RNG.choice(g.elements)
        a = RNG.choice(A.members)
        mat = ResidueMatrix(g.ring, tuple(g.arith.elems[i] for i in code[:4]))
        scaled = g.arith.encode(mat.scaled(a)) + (code[4],)
        assert g.canonical(scaled) == code


def test_order_matches_vertex_count_formula():
    # |group| = (N/2) * 12 for regular, (N/2) * 6 for chiral.
    for m, stab in ((parse_eisenstein("3"), 12),
                    (parse_eisenstein("2-2w"), 12),
                    (CHIRAL_M, 6)):
        A = ScalarGroup(ResidueRing(m))
        g = generate_group(m, A)
        assert g.order == vertex_count(m, A) // 2 * stab


def test_cayley_action_order_equals_element_count():
    for m in ("3", "2-2w"):
        g = generate_group(parse_eisenstein(m))
        # Right-regular action of the generators on the element list.
        index = {code: i for i, code in enumerate(g.elements)}
        perms = [Permutation([index[g.multiply(x, s)] for x in g.elements])
                 for s in g.generator_codes]
        assert PermutationGroup(perms, degree=g.order).order() == g.order


def test_overflow_cap():
    with pytest.raises(OverflowResult):
        generate_group(parse_eisenstein("3-3w"), max_elements=100)


def test_reflection_recovery_regular_only():
    g3 = generate_group(parse_eisenstein("3"))
    rhos = recover_reflection_codes(g3)
    assert rhos is not None
    ident = g3.identity_code()
    for code in rhos:
        assert g3.multiply(code, code) == ident
    assert recover_reflection_codes(generate_group(CHIRAL_M)) is None


def test_residue_matrix_requires_unit_determinant():
    ring = ResidueRing(parse_eisenstein("3"))
    with pytest.raises(ConfigurationError):
        ResidueMatrix.make(ring, (EisensteinInt(1, 0), EisensteinInt(0, 0),
                                  EisensteinInt(0, 0), EisensteinInt(0, 0)))
    ident = identity_matrix(ring)
    assert ident.is_identity()
