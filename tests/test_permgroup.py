"""Permutation groups: stabilizer-chain orders versus naive closure, orbits,
transporters, and prescribed-base stabilizers; the chain is the oracle the
pipeline's orbit computations are tested against."""

import ast
import random
import time
from pathlib import Path

import numpy as np
import pytest

import medial
from medial.permgroup import (
    OverflowResult,
    Permutation,
    PermutationGroup,
    code_cayley_table,
    code_orbit,
)
from reference import naive_closure

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
    assert g.point_orbits() == [{0, 1, 2}, {3, 4}, {5}]
    # No generators: every closure step yields no images.
    assert PermutationGroup([], degree=3).point_orbits() == [{0}, {1}, {2}]


def test_elements_listing_matches_order():
    gens = _random_group(6, 2, 42)
    group = PermutationGroup(gens)
    elems = naive_closure(gens)
    assert len(elems) == group.order()
    assert len(set(elems)) == len(elems)


def test_cayley_table_from_coded_orbit():
    # Z12 generated by 3 and 4, element k coded as 10 k.
    def step(x):
        return np.stack([(x + 30) % 120, (x + 40) % 120])

    codes, right = code_cayley_table(0, step)
    assert codes.tolist() == list(range(0, 120, 10))
    assert right.T.tolist() == [[(k + 3) % 12 for k in range(12)],
                                [(k + 4) % 12 for k in range(12)]]
    assert len(code_cayley_table(0, step, limit=12)[0]) == 12
    with pytest.raises(OverflowResult, match="^orbit exceeded 11 elements$"):
        code_cayley_table(0, step, limit=11)
    with pytest.raises(OverflowResult, match="^time budget exceeded$"):
        code_cayley_table(0, step, deadline=time.monotonic() - 1)
    # The trivial group: a seed that every generator fixes.
    codes, right = code_cayley_table(7, lambda x: np.stack([x, x, x]))
    assert (codes.tolist(), right.tolist()) == ([7], [[0, 0, 0]])


def test_code_orbit_overflows_at_its_cap_or_deadline():
    # Z12 as above.
    def step(x):
        return np.concatenate([(x + 30) % 120, (x + 40) % 120])

    assert len(code_orbit([0], step, limit=12)) == 12
    with pytest.raises(OverflowResult, match="^orbit exceeded 11 elements$"):
        code_orbit([0], step, limit=11)
    with pytest.raises(OverflowResult, match="^time budget exceeded$"):
        code_orbit([0], step, deadline=time.monotonic() - 1)


def test_only_permgroup_imports_the_permutation_forms():
    # The pipeline runs on integer arrays: Permutation and PermutationGroup
    # serve the Schreier-Sims oracle, and the generic closures are test
    # references.
    forbidden = {"Permutation", "PermutationGroup", "orbit", "naive_closure"}
    modules = sorted(Path(medial.__file__).parent.glob("*.py"))
    assert "permgroup.py" in [path.name for path in modules]
    for path in modules:
        if path.name == "permgroup.py":
            continue
        used = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "permgroup":
                used.add(node.attr)
        assert not used & forbidden, path.name
