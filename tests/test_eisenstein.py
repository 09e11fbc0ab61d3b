"""Arithmetic in Z[w], residue rings, scalar groups, and the vertex-count
formula, checked against brute-force oracles."""

import random
from collections import Counter

import numpy as np
import pytest

from medial.eisenstein import (
    RAMIFIED_PRIME,
    EisensteinInt,
    ResidueRing,
    ScalarGroup,
    admissible_subgroups,
    canonical_associate,
    divmod_nearest,
    euclid_gcd,
    exact_divide,
    factor,
    format_eisenstein,
    parse_eisenstein,
    vertex_count,
)
from reference import orbit

RNG = random.Random(20240823)


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


def test_gcd_divides_both():
    for _ in range(100):
        x, y = rand_eis(10), rand_eis(10)
        if x.is_zero() and y.is_zero():
            continue
        g = euclid_gcd(x, y)
        assert exact_divide(x, g) is not None
        assert exact_divide(y, g) is not None


def test_factor_reassembles():
    for _ in range(60):
        x = rand_eis(12)
        if x.is_zero():
            continue
        f = factor(x)
        assert f.value() == x
        # Primes pairwise non-associated and canonical.
        canon = [canonical_associate(p)[0] for p, _ in f.parts]
        assert len(set(canon)) == len(canon)
        assert all(p == c for (p, _), c in zip(f.parts, canon))


def test_ramified_prime_norm_3():
    assert RAMIFIED_PRIME.norm() == 3
    f = factor(EisensteinInt(3, 0))
    assert tuple(f.parts) == ((RAMIFIED_PRIME, 2),)


@pytest.mark.parametrize("m", ["3", "2-2w", "3-3w", "5", "2+3w", "4-2w"])
def test_residue_ring_cardinality_is_norm(m):
    m = parse_eisenstein(m)
    ring = ResidueRing(m)
    assert len(ring.elements) == m.norm()
    # Oracle: count distinct reductions over a box larger than the modulus.
    bound = abs(m.a) + abs(m.b) + 2
    box = [(a, b) for a in range(-bound, bound + 1)
           for b in range(-bound, bound + 1)]
    reduced = [ring.reduce(EisensteinInt(a, b)) for a, b in box]
    assert set(reduced) == set(ring.elements)
    a, b = np.array(box).T
    assert [ring.elements[i] for i in ring.class_index(a, b)] == reduced


def test_residue_ring_arithmetic_well_defined():
    ring = ResidueRing(parse_eisenstein("3-3w"))
    m = ring.modulus
    for _ in range(100):
        x, y = rand_eis(), rand_eis()
        rx, ry = ring.reduce(x), ring.reduce(y)
        assert ring.reduce(x + y) == ring.reduce(rx + ry)
        assert ring.reduce(x * y) == ring.reduce(rx * ry)
        # times multiplies positions as reduce multiplies representatives.
        px, py = (ring.class_index(z.a, z.b) for z in (x, y))
        assert ring.elements[ring.times(px, py)] == ring.reduce(x * y)
        shifted = x + m * rand_eis(3)
        assert ring.reduce(shifted) == ring.reduce(x)


def test_inverse_oracle():
    # The unit group's positions are exactly the elements with an inverse
    # under reduced Eisenstein arithmetic, and that inverse is unique.
    ring = ResidueRing(parse_eisenstein("2-2w"))
    units = ring.unit_group().tolist()
    one = ring.reduce(EisensteinInt(1, 0))
    for i, x in enumerate(ring.elements):
        brute = [y for y in ring.elements if ring.reduce(x * y) == one]
        assert len(brute) <= 1
        assert (i in units) == bool(brute)
    assert units == sorted(units)


def test_scalar_group_contains_minus_one_and_closed():
    ring = ResidueRing(parse_eisenstein("3-3w"))
    A = ScalarGroup(ring, [parse_eisenstein("w")])
    assert EisensteinInt(-1, 0) in A
    for x in A.members:
        for y in A.members:
            assert ring.reduce(x * y) in A


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
    ``ring.reduce``."""
    one = ring.reduce(EisensteinInt(1, 0))
    units = [x for x in ring.elements
             if any(ring.reduce(x * y) == one for y in ring.elements)]
    product = {(x, y): ring.reduce(x * y) for x in units for y in units}

    def closure(gens):
        return frozenset(orbit([one],
                               [ring.reduce(EisensteinInt(-1, 0)), *gens],
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
