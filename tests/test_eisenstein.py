"""Arithmetic in Z[w], residue rings, scalar groups, and the vertex-count
formula, checked against brute-force oracles."""

import random

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
    assert ring.class_index(a, b).tolist() == [ring.index[x] for x in reduced]


def test_residue_ring_arithmetic_well_defined():
    ring = ResidueRing(parse_eisenstein("3-3w"))
    m = ring.modulus
    for _ in range(100):
        x, y = rand_eis(), rand_eis()
        assert ring.reduce(x + y) == ring.add(ring.reduce(x), ring.reduce(y))
        assert ring.reduce(x * y) == ring.mul(ring.reduce(x), ring.reduce(y))
        shifted = x + m * rand_eis(3)
        assert ring.reduce(shifted) == ring.reduce(x)


def test_inverse_oracle():
    ring = ResidueRing(parse_eisenstein("2-2w"))
    units = ring.unit_group()
    for x in ring.elements:
        inv = ring.inverse(x)
        brute = [y for y in ring.elements if ring.mul(x, y) == ring.one()]
        if inv is None:
            assert brute == []
            assert x not in units
        else:
            assert brute == [inv]
            assert x in units


def test_scalar_group_contains_minus_one_and_closed():
    ring = ResidueRing(parse_eisenstein("3-3w"))
    A = ScalarGroup(ring, [parse_eisenstein("w")])
    assert EisensteinInt(-1, 0) in A
    for x in A.members:
        for y in A.members:
            assert ring.mul(x, y) in A


def test_admissible_subgroups_all_contain_minus_one():
    ring = ResidueRing(parse_eisenstein("3"))
    subs = admissible_subgroups(ring)
    assert any(len(s) == 2 for s in subs)
    for s in subs:
        assert EisensteinInt(-1, 0) in s


def reference_admissible_subgroups(ring):
    """The member lists of every subgroup of the unit group that contains
    -1, grown one unit at a time from {1, -1} and closed by the generic
    ``orbit`` over the ring's products of units."""
    units = ring.unit_group()
    product = {(x, y): ring.mul(x, y) for x in units for y in units}

    def closure(gens):
        return frozenset(orbit([ring.one()],
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


@pytest.mark.parametrize("m", ["3-3w", "6"])
def test_admissible_subgroups_match_orbit_closures(m):
    ring = ResidueRing(parse_eisenstein(m))
    subgroups = [s.members for s in admissible_subgroups(ring)]
    assert subgroups == reference_admissible_subgroups(ring)
    assert len(subgroups) == 6


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
