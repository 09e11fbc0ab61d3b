"""Coset enumeration against known group orders and subgroup indices, and
the word helpers."""

import numpy as np
import pytest

from medial.catalog import ToroidalParams, universal_locally_toroidal
from medial.fpgroup import (
    Presentation,
    _Enumerator,
    coset_enumeration,
    gen_word,
)
from medial.permgroup import OverflowResult, PermutationGroup
from reference import generator_permutations


def apply_word(table, w):
    """The image of every coset under the word w, an inverse letter read
    through the inverse permutation of its generator's column."""
    images = np.arange(table.num_cosets)
    for x in w:
        column = table.columns[x >> 1]
        images = (np.argsort(column) if x & 1 else column)[images]
    return images


def s3_presentation():
    return Presentation(("a", "b"), (gen_word(0) * 2, gen_word(1) * 2,
                                     gen_word(0, 1) * 3))


def simplex_presentation():
    # String Coxeter group [3, 3, 3], order 120.
    rels = [gen_word(i) * 2 for i in range(4)]
    rels += [gen_word(i, i + 1) * 3 for i in range(3)]
    rels += [gen_word(0, 2) * 2, gen_word(0, 3) * 2, gen_word(1, 3) * 2]
    return Presentation(("r0", "r1", "r2", "r3"), tuple(rels))


def test_s3_order():
    table = coset_enumeration(s3_presentation())
    assert table.num_cosets == 6


def test_simplex_order_120():
    table = coset_enumeration(simplex_presentation())
    assert table.num_cosets == 120


def test_subgroup_index_and_order():
    pres = simplex_presentation()
    table = coset_enumeration(pres, [gen_word(1), gen_word(2), gen_word(3)])
    assert table.num_cosets == 5  # vertices of the 4-simplex
    # The subgroup is the stabilizer of its own coset in the (faithful)
    # action on the 5 cosets.
    group = PermutationGroup(generator_permutations(table))
    assert group.prefix_stabilizer_orders([0]) == [120, 24]


def test_permutation_representation_faithful_for_trivial_subgroup():
    table = coset_enumeration(s3_presentation())
    group = PermutationGroup(generator_permutations(table))
    assert group.order() == 6


def test_apply_word_identity_on_relators():
    pres = s3_presentation()
    table = coset_enumeration(pres)
    for w in pres.relators:
        assert apply_word(table, w).tolist() == list(range(table.num_cosets))


def test_overflow_result():
    # (2,3,7) triangle group is infinite; a tiny limit must overflow.
    pres = Presentation(("x", "y"), (gen_word(0) * 2, gen_word(1) * 3,
                                     gen_word(0, 1) * 7))
    with pytest.raises(OverflowResult, match="coset limit 50 exceeded"):
        coset_enumeration(pres, [], max_cosets=50)


def test_bad_subgroup_word_rejected():
    with pytest.raises(ValueError):
        coset_enumeration(s3_presentation(), [(99,)])


def test_involution_columns_cut_row5_work():
    # Each involution has one table column, so universal row 5 (|G| = 2916)
    # defines 13,709 cosets; with two columns per generator it took 19,581.
    pres = universal_locally_toroidal(ToroidalParams(3, 0),
                                      ToroidalParams(3, 0))
    table = coset_enumeration(pres)
    assert table.num_cosets == 2916
    assert table.cosets_defined <= 15000


def test_table_keeps_callers_letters():
    # Subgroup words may hold inverse letters, and each involution's
    # column is its own inverse.
    words = ((3,), gen_word(2), (7,))
    table = coset_enumeration(simplex_presentation(), words)
    assert table.num_cosets == 5
    assert table.columns.shape == (4, 5)
    for column in table.columns:
        assert column[column].tolist() == list(range(5))


def test_compact_rejects_an_unclosed_table():
    enum = _Enumerator(s3_presentation(), (), 100, None)
    with pytest.raises(RuntimeError):
        enum.compact()  # coset 0 has no images yet
    enum.table = [[1, 1], [0, 0]]  # both S3 generators are involutions
    enum.p = [0, 0]  # coset 1 is dead, yet coset 0 still points at it
    with pytest.raises(RuntimeError):
        enum.compact()
