"""Coset enumeration against known group orders, subgroup indices, and the
word/presentation parsers."""

import pytest

from medial.fpgroup import (
    Presentation,
    coset_enumeration,
    gen_word,
    invert_word,
    parse_presentation,
    parse_word,
    word_power,
)
from medial.permgroup import PermutationGroup


def s3_presentation():
    return Presentation(("a", "b"), (gen_word(0) * 2, gen_word(1) * 2,
                                     gen_word(0, 1) * 3))


def simplex_presentation():
    # String Coxeter group [3, 3, 3], order 120.
    rels = [gen_word(i) * 2 for i in range(4)]
    rels += [word_power(gen_word(i, i + 1), 3) for i in range(3)]
    rels += [gen_word(0, 2) * 2, gen_word(0, 3) * 2, gen_word(1, 3) * 2]
    return Presentation(("r0", "r1", "r2", "r3"), tuple(rels))


def test_s3_order():
    table = coset_enumeration(s3_presentation())
    assert table.is_complete and table.num_cosets == 6


def test_simplex_order_120():
    table = coset_enumeration(simplex_presentation())
    assert table.is_complete and table.num_cosets == 120


def test_subgroup_index_and_order():
    pres = simplex_presentation()
    table = coset_enumeration(pres, [gen_word(1), gen_word(2), gen_word(3)])
    assert table.num_cosets == 5  # vertices of the 4-simplex
    # The subgroup is the stabilizer of its own coset in the (faithful)
    # action on the 5 cosets.
    group = PermutationGroup(table.generator_permutations())
    assert group.prefix_stabilizer_orders([0]) == [120, 24]


def test_permutation_representation_faithful_for_trivial_subgroup():
    table = coset_enumeration(s3_presentation())
    group = PermutationGroup(table.generator_permutations())
    assert group.order() == 6


def test_apply_word_identity_on_relators():
    pres = s3_presentation()
    table = coset_enumeration(pres)
    for w in pres.relators:
        for coset in range(table.num_cosets):
            assert table.apply_word(coset, w) == coset


def test_overflow_result():
    # (2,3,7) triangle group is infinite; a tiny limit must overflow.
    pres = Presentation(("x", "y"), (gen_word(0) * 2, gen_word(1) * 3,
                                     word_power(gen_word(0, 1), 7)))
    table = coset_enumeration(pres, [], max_cosets=50)
    assert not table.is_complete
    assert table.status == "overflow"


def test_parse_word_inverses_and_powers():
    names = ("a", "b")
    assert parse_word("a b", names) == (0, 2)
    assert parse_word("a^-1", names) == (1,)
    assert parse_word("(a b)^2", names) == (0, 2, 0, 2)
    assert invert_word(parse_word("a b", names)) == (3, 1)


def test_parse_presentation_roundtrip():
    pres = parse_presentation("gens: a b; rels: a^2, b^2, (a b)^3")
    table = coset_enumeration(pres)
    assert table.num_cosets == 6


def test_bad_subgroup_word_rejected():
    with pytest.raises(ValueError):
        coset_enumeration(s3_presentation(), [(99,)])
