"""Coset enumeration against sympy's, on Coxeter, toroidal-map and
PSL(2, 7) presentations: group orders, parabolic indices, and the
closure of every table: each column a permutation, every relator and
subgroup word read through the columns, inverse letters through the
inverse permutations."""

import pytest

from medial.catalog import ToroidalParams, coxeter_string, toroidal_map
from medial.fpgroup import Presentation, coset_enumeration, gen_word, word_power
from test_fpgroup import apply_word

sympy_fp = pytest.importorskip("sympy.combinatorics.fp_groups")
sympy_free = pytest.importorskip("sympy.combinatorics.free_groups")


def psl27():
    # <x, y | x^2, y^3, (xy)^7, [x, y]^4>, order 168; y is not an
    # involution, so it keeps two table columns.
    commutator = (1, 3, 0, 2)
    return Presentation(("x", "y"), (gen_word(0) * 2, gen_word(1) * 3,
                                     word_power(gen_word(0, 1), 7),
                                     commutator * 4))


# (presentation, generator subsets whose subgroup index is compared)
CASES = {
    "[3,3,3]": (coxeter_string(3, 3, 3), ((1, 2, 3), (0, 1, 3))),
    "[4,3,3]": (coxeter_string(4, 3, 3), ((1, 2, 3), (0, 1, 2))),
    "{3,6}_(1,1)": (toroidal_map(ToroidalParams(1, 1)), ((0, 1),)),
    "{3,6}_(2,0)": (toroidal_map(ToroidalParams(2, 0)), ()),
    "PSL(2,7)": (psl27(), ((0,),)),
}


def sympy_indexer(pres):
    """Subgroup index in sympy's copy of ``pres``, from words in our
    letters; the group is built once, as building it is the slow part."""
    free, *gens = sympy_free.free_group(" ".join(pres.names))

    def word(w):
        out = free.identity
        for x in w:
            out = out * gens[x // 2] ** (-1 if x % 2 else 1)
        return out

    group = sympy_fp.FpGroup(free, [word(w) for w in pres.relators])

    def index(subgens):
        table = group.coset_enumeration([word(w) for w in subgens])
        table.compress()
        return len(table.table)

    return index


def assert_closed(pres, table):
    n = table.num_cosets
    assert table.columns.shape == (pres.ngens, n)
    for column in table.columns:
        assert sorted(column.tolist()) == list(range(n))
    for w in pres.relators:
        assert apply_word(table, w).tolist() == list(range(n))
    for w in table.subgroup_words:
        assert apply_word(table, w)[0] == 0


@pytest.mark.parametrize("name", CASES)
def test_orders_and_parabolic_indices_match_sympy(name):
    pres, subsets = CASES[name]
    sympy_index = sympy_indexer(pres)
    for subgens in [()] + [gen_word(*sub) for sub in subsets]:
        subgens = [(x,) for x in subgens]
        table = coset_enumeration(pres, subgens)
        assert table.num_cosets == sympy_index(subgens)
        assert_closed(pres, table)
