"""Permutation groups: stabilizer-chain orders versus naive closure, orbits,
transporters, and prescribed-base stabilizers; the chain is the oracle the
pipeline's orbit computations are tested against."""

import random

from medial.permgroup import (
    Permutation,
    PermutationGroup,
    naive_closure,
)

RNG = random.Random(7)


def test_permutation_composition_order():
    # p * q applies p first: point images compose left-to-right.
    p = Permutation([1, 0, 2])
    q = Permutation([0, 2, 1])
    assert (p * q)(0) == q(p(0)) == 2


def test_inverse_and_order():
    for _ in range(50):
        images = list(range(8))
        RNG.shuffle(images)
        p = Permutation(images)
        assert p * p.inverse() == Permutation.identity(8)
        acc = Permutation.identity(8)
        for _ in range(p.order()):
            acc = acc * p
        assert acc == Permutation.identity(8)


def _random_group(n, ngens, seed):
    rng = random.Random(seed)
    gens = []
    for _ in range(ngens):
        images = list(range(n))
        rng.shuffle(images)
        gens.append(Permutation(images))
    return gens


def test_order_matches_naive_closure_small_random():
    for seed in range(8):
        gens = _random_group(5, 2, seed)
        group = PermutationGroup(gens)
        assert group.order() == len(naive_closure(gens))


def test_order_symmetric_and_alternating():
    s4 = PermutationGroup([Permutation([1, 0, 2, 3]),
                           Permutation([1, 2, 3, 0])])
    assert s4.order() == 24
    a5 = PermutationGroup([Permutation.from_cycles(5, [(0, 1, 2)]),
                           Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    assert a5.order() == 60


def test_membership():
    gens = [Permutation.from_cycles(5, [(0, 1, 2)]),
            Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])]
    a5 = PermutationGroup(gens)
    transposition = Permutation.from_cycles(5, [(0, 1)])
    assert transposition not in a5
    for g in naive_closure(gens):
        assert g in a5


def test_pointwise_stabilizer_oracle():
    gens = [Permutation([1, 0, 2, 3, 4, 5]),
            Permutation([1, 2, 3, 4, 5, 0])]
    s6 = PermutationGroup(gens)
    assert s6.order() == 720
    # Chain orders of the stabilizers of [0] and [0, 1] against the
    # elements of the closure that fix those points.
    assert s6.prefix_stabilizer_orders([0, 1]) == [720, 120, 24]
    closure = naive_closure(gens)
    assert sum(g(0) == 0 for g in closure) == 120
    assert sum(g(0) == 0 and g(1) == 1 for g in closure) == 24


def test_prefix_stabilizer_orders():
    gens = [Permutation([1, 0, 2, 3, 4, 5]),
            Permutation([1, 2, 3, 4, 5, 0])]
    s6 = PermutationGroup(gens)
    orders = s6.prefix_stabilizer_orders([0, 1, 2])
    assert orders == [720, 120, 24, 6]


def test_transporter_found_and_absent():
    gens = [Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])]
    c6 = PermutationGroup(gens)
    g = c6.transporter((0, 1), (2, 3))
    assert g is not None and g(0) == 2 and g(1) == 3
    assert c6.transporter((0, 1), (0, 2)) is None


def test_orbits():
    g = PermutationGroup([Permutation.from_cycles(6, [(0, 1, 2)]),
                          Permutation.from_cycles(6, [(3, 4)])])
    orbits = {frozenset(o) for o in g.point_orbits()}
    assert orbits == {frozenset({0, 1, 2}), frozenset({3, 4}), frozenset({5})}


def test_elements_listing_matches_order():
    gens = _random_group(6, 2, 42)
    group = PermutationGroup(gens)
    elems = naive_closure(gens)
    assert len(elems) == group.order()
    assert len(set(elems)) == len(elems)
