"""Arithmetic in Z[w], residue rings, scalar groups, the regularity rule
and the vertex-count formula, checked against brute-force oracles: the
per-element reduction ``reference.reduce`` above all."""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from medial.eisenstein import (
    EisensteinInt,
    ResidueRing,
    ScalarGroup,
    _prime_norms,
    admissible_subgroups,
    canonical_associate,
    format_eisenstein,
    parse_eisenstein,
    vertex_count,
)
from medial.matgroup import regularity_test
from reference import divmod_nearest, orbit, reduce, regularity_kind

RNG = random.Random(20240823)
ONE = EisensteinInt(1, 0)


def rand_eis(bound=30):
    return EisensteinInt(RNG.randint(-bound, bound), RNG.randint(-bound, bound))


def test_norm_multiplicative():
    for _ in range(200):
        x, y = rand_eis(), rand_eis()
        assert (x * y).norm() == x.norm() * y.norm()


def test_norm_via_conjugate():
    for _ in range(100):
        x = rand_eis()
        prod = x * x.conjugate()
        assert prod == EisensteinInt(x.norm(), 0)


def test_omega_relation():
    w = EisensteinInt(0, 1)
    assert w * w == EisensteinInt(-1, -1)  # w^2 = -1 - w
    assert w * w * w == EisensteinInt(1, 0)


def test_parse_format_roundtrip():
    for _ in range(100):
        x = rand_eis()
        assert parse_eisenstein(format_eisenstein(x)) == x
    assert parse_eisenstein("2-2w") == EisensteinInt(2, -2)
    assert parse_eisenstein("w") == EisensteinInt(0, 1)
    assert parse_eisenstein("-3") == EisensteinInt(-3, 0)


def test_divmod_nearest_remainder_small():
    for _ in range(300):
        x, y = rand_eis(), rand_eis()
        if y.is_zero():
            continue
        q, r = divmod_nearest(x, y)
        assert q * y + r == x
        assert r.norm() < y.norm()


@pytest.mark.parametrize("m", ["3", "2-2w", "3-3w", "5", "2+3w", "4-2w"])
def test_residue_ring_cardinality_is_norm(m):
    m = parse_eisenstein(m)
    ring = ResidueRing(m)
    assert len(ring.elements) == m.norm()
    # Oracle: count distinct reductions over a box larger than the modulus.
    bound = abs(m.a) + abs(m.b) + 2
    box = [(a, b) for a in range(-bound, bound + 1)
           for b in range(-bound, bound + 1)]
    reduced = [reduce(EisensteinInt(a, b), m) for a, b in box]
    assert set(reduced) == set(ring.elements)
    a, b = np.array(box).T
    assert [ring.elements[i] for i in ring.class_index(a, b)] == reduced
    assert [ring.reduce(EisensteinInt(*x)) for x in box] == reduced


def canonical_moduli(max_norm):
    """Every m = a + bw that is its own canonical associate, with norm at
    most ``max_norm``: one generator per nonzero ideal."""
    bound = int((2 * max_norm) ** 0.5) + 1  # norm >= (a^2 + b^2) / 2
    return [m for a in range(1, bound + 1) for b in range(bound + 1)
            if (m := EisensteinInt(a, b)).norm() <= max_norm
            and canonical_associate(m)[0] == m]


def test_ring_tables_match_reference_reduce():
    # Every modulus with |a|, |b| <= 3: the elements are the distinct
    # reductions in (norm, a, b) order, and class_index reduces each point
    # of a box wider than the modulus as the per-element oracle does.
    box = np.arange(-5, 6)
    a, b = (x.ravel() for x in np.meshgrid(box, box, indexing="ij"))
    for m in (EisensteinInt(x, y) for x in range(-3, 4) for y in range(-3, 4)):
        if m.is_zero():
            continue
        ring = ResidueRing(m)
        reduced = [reduce(EisensteinInt(x, y), m)
                   for x, y in zip(a.tolist(), b.tolist())]
        assert ring.elements == sorted(set(reduced),
                                       key=lambda x: (x.norm(), x.a, x.b))
        assert [ring.elements[i] for i in ring.class_index(a, b)] == reduced


def test_ring_enumeration_keeps_one_shift_at_a_time():
    # The least of the 25 shifts is kept as a running least, so building
    # ResidueRing(150), norm 22500, peaks at about 5.5 MiB, 3.3 MiB of it
    # the elements list; with all 25 shifts held at once it peaked at
    # 18.2 MiB (22 and 73 MiB at m = 300).
    tracemalloc.start()
    try:
        ring = ResidueRing(EisensteinInt(150, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ring.elements) == 22500
    assert peak < 8 * 2**20


def test_residue_ring_arithmetic_well_defined():
    ring = ResidueRing(parse_eisenstein("3-3w"))
    m = ring.modulus
    for _ in range(100):
        x, y = rand_eis(), rand_eis()
        rx, ry = reduce(x, m), reduce(y, m)
        assert reduce(x + y, m) == reduce(rx + ry, m)
        assert reduce(x * y, m) == reduce(rx * ry, m)
        # times multiplies positions as reduce multiplies representatives.
        px, py = (ring.class_index(z.a, z.b) for z in (x, y))
        assert ring.elements[ring.times(px, py)] == reduce(x * y, m)
        shifted = x + m * rand_eis(3)
        assert reduce(shifted, m) == reduce(x, m)


def test_inverse_oracle():
    # The unit group's positions are exactly the elements with an inverse
    # under reduced Eisenstein arithmetic, and that inverse is unique.
    m = parse_eisenstein("2-2w")
    ring = ResidueRing(m)
    units = ring.unit_group().tolist()
    for i, x in enumerate(ring.elements):
        brute = [y for y in ring.elements if reduce(x * y, m) == ONE]
        assert len(brute) <= 1
        assert (i in units) == bool(brute)
    assert units == sorted(units)


def test_scalar_group_contains_minus_one_and_closed():
    m = parse_eisenstein("3-3w")
    A = ScalarGroup(ResidueRing(m), [parse_eisenstein("w")])
    assert EisensteinInt(-1, 0) in A
    for x in A.members:
        for y in A.members:
            assert reduce(x * y, m) in A


def test_admissible_subgroups_all_contain_minus_one():
    ring = ResidueRing(parse_eisenstein("3"))
    subs = admissible_subgroups(ring)
    assert any(len(s) == 2 for s in subs)
    for s in subs:
        assert EisensteinInt(-1, 0) in s


def reference_admissible_subgroups(ring):
    """The member lists of every subgroup of the unit group that contains
    -1, grown one unit at a time from {1, -1} and closed by the generic
    ``orbit`` over the ring's products of units, all reduced by
    ``reference.reduce``."""
    m = ring.modulus
    one = reduce(ONE, m)
    units = [x for x in ring.elements
             if any(reduce(x * y, m) == one for y in ring.elements)]
    product = {(x, y): reduce(x * y, m) for x in units for y in units}

    def closure(gens):
        return frozenset(orbit([one], [reduce(-ONE, m), *gens],
                               lambda x, g: product[x, g]))

    found = frontier = {closure(())}
    while frontier:
        frontier = {closure([*group, u]) for group in frontier
                    for u in units if u not in group} - found
        found = found | frontier
    members = [sorted(group, key=lambda x: (x.norm(), x.a, x.b))
               for group in found]
    return sorted(members, key=lambda m: (len(m), [(x.a, x.b) for x in m]))


#: How many admissible subgroups of each order the ring has.
SUBGROUP_ORDERS = {"3-3w": {2: 1, 6: 4, 18: 1}, "6": {2: 1, 6: 4, 18: 1},
                   "9": {2: 1, 6: 13, 18: 13, 54: 1}}


@pytest.mark.parametrize("m", SUBGROUP_ORDERS)  # the reference takes 2 s at 9
def test_admissible_subgroups_match_orbit_closures(m):
    ring = ResidueRing(parse_eisenstein(m))
    subgroups = [s.members for s in admissible_subgroups(ring)]
    assert subgroups == reference_admissible_subgroups(ring)
    assert Counter(map(len, subgroups)) == SUBGROUP_ORDERS[m]


def test_subgroup_search_reduces_no_eisenstein_integer(monkeypatch):
    # Once the ring is built, the subgroup search and a scalar group from
    # a key's generators work on ring positions alone.
    calls = []
    reduce = ResidueRing.reduce
    monkeypatch.setattr(ResidueRing, "reduce",
                        lambda ring, x: calls.append(x) or reduce(ring, x))
    m, gens = "eisenstein:m=3-3w:A=w,2".split(":")[1:]
    ring = ResidueRing(parse_eisenstein(m[2:]))
    calls.clear()
    admissible_subgroups(ring)
    ScalarGroup(ring, [parse_eisenstein(g) for g in gens[2:].split(",")])
    assert calls == []


@pytest.mark.parametrize("m,expected", [
    ("3", 54),        # norm 9
    ("2-2w", 120),    # norm 12
    ("3-3w", 1458),   # norm 27
])
def test_vertex_count_known_values(m, expected):
    m = parse_eisenstein(m)
    A = ScalarGroup(ResidueRing(m))
    assert vertex_count(m, A) == expected


def test_vertex_count_chiral_modulus():
    m = parse_eisenstein("1-w") * parse_eisenstein("1+3w")
    A = ScalarGroup(ResidueRing(m))
    assert vertex_count(m, A) == 672


def test_regularity_matches_the_reference_rule():
    # Every ideal of norm 3k <= 48 with each of its admissible scalar
    # groups: conj(m) in the zero class and A closed under conjugation on
    # ring positions, against exact division and the reduced conjugates.
    kinds = Counter()
    for m in canonical_moduli(48):
        if m.norm() % 3:
            continue
        for A in admissible_subgroups(ResidueRing(m)):
            kind = regularity_test(m, A)
            assert kind == regularity_kind(m, A), (m, A.members)
            kinds[kind] += 1
    assert kinds["regular"] and kinds["chiral"]


def test_prime_norms_count_the_units():
    # The unit group of Z[w]/(m) has norm(m) * prod(1 - 1/q) members, q
    # over the norms of the distinct primes dividing m.
    moduli = canonical_moduli(400)
    assert len(moduli) == 243
    for m in moduli:
        count = Fraction(m.norm())
        for q in _prime_norms(m):
            count *= 1 - Fraction(1, q)
        assert count == len(ResidueRing(m).unit_group()), m
