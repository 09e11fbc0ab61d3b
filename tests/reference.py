"""Element-at-a-time references the tests check the array code against.

``orbit`` is the generic Python closure and ``naive_closure`` the
brute-force list of a permutation group's elements.  The validators below
are the generic forms of ``polytope``'s table validators: they take the
generators in any element form, with ``identity`` and ``mul(x, g)``, the
right product of an element x with a generator g, and permutations
multiplied with ``*`` by default.  ``cayley_table`` turns generators in
such a form into the integer Cayley table the library validators take,
and ``chain`` builds the Schreier-Sims oracle of an automorphism group
from its image arrays.  ``reduce`` is the residue class of one Eisenstein
integer mod m, by nearest division, and ``regularity_kind`` the
regularity rule on it: the oracles of ``ResidueRing``'s array arithmetic.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from medial.catalog import SchlafliType
from medial.eisenstein import EisensteinInt, ScalarGroup
from medial.graphsym import _prefix_orbit_sizes
from medial.permgroup import Permutation, PermutationGroup
from medial.polytope import PolytopeValidationError


def orbit(seeds: Iterable[Hashable], gens: Sequence, act: Callable,
          limit: int | None = None) -> set:
    """Closure of ``seeds`` under ``x -> act(x, g)`` for every g in ``gens``.

    With the identity as the seed and right multiplication as ``act`` this
    is the subgroup generated by ``gens``, in whatever form the elements
    take.  Raises ValueError once the orbit would exceed ``limit`` points.
    """
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = act(x, g)
            if y not in seen:
                if limit is not None and len(seen) >= limit:
                    raise ValueError(f"orbit exceeds limit {limit}")
                seen.add(y)
                frontier.append(y)
    return seen


def naive_closure(generators: Sequence[Permutation],
                  limit: int = 2000000) -> list[Permutation]:
    """Brute-force closure; the oracle against which chain orders are
    checked."""
    if not generators:
        return []
    ident = Permutation.identity(generators[0].degree)
    return sorted(orbit([ident], generators, Permutation.__mul__, limit),
                  key=lambda p: p.images.tobytes())


def generator_permutations(table) -> list[Permutation]:
    """The generators of a coset table as permutations of its cosets."""
    return [Permutation(images) for images in table.columns]


def chain(aut) -> PermutationGroup:
    """The stabilizer-chain oracle of an automorphism group, on its
    generators' image arrays."""
    return PermutationGroup([Permutation(g) for g in aut.generators],
                            degree=len(aut.adj))


def stabilizer_sequence(G, aut, arc) -> list[int]:
    """Orders |B_0|, ..., |B_t| where B_j fixes the first t-j+1 arc
    vertices pointwise (B_0 the whole arc, B_t only the start vertex)."""
    t = arc.t
    sizes = _prefix_orbit_sizes(aut, arc.vertices)
    return [aut.order // sizes[t + 1 - j] for j in range(t + 1)]


def cayley_table(gens: Sequence, identity: Hashable | None = None,
                 mul: Callable = operator.mul) -> tuple[np.ndarray, int]:
    """The Cayley table of the group generated by ``gens``, one column per
    generator, and the row of its identity (row 0): elements are numbered
    in breadth-first order from the identity.  By default the generators
    are permutations multiplied with ``*``."""
    if identity is None:
        identity = Permutation.identity(gens[0].degree)
    elements, index, rows = [identity], {identity: 0}, []
    for x in elements:
        row = []
        for g in gens:
            y = mul(x, g)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
            row.append(index[y])
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(-1, len(gens)), 0


class TableProduct:
    """``mul`` on the rows of a Cayley table, by lookup: the element form
    the pipeline passed to the generic validators."""

    def __init__(self, right: np.ndarray):
        self.rows = right.tolist()

    def __call__(self, element: int, generator: int) -> int:
        return self.rows[element][generator]


# ---------------------------------------------------------------------------
# Residue classes in Z[w], one element at a time
# ---------------------------------------------------------------------------

def divmod_nearest(x: EisensteinInt,
                   y: EisensteinInt) -> tuple[EisensteinInt, EisensteinInt]:
    """Division with remainder; norm(r) < norm(y) by nearest-lattice
    rounding."""
    if y.is_zero():
        raise ZeroDivisionError("division by zero in Z[w]")
    n = y.norm()
    num = x * y.conjugate()
    q = EisensteinInt(_round_half(Fraction(num.a, n)),
                      _round_half(Fraction(num.b, n)))
    r = x - q * y
    assert r.norm() < n
    return q, r


def _round_half(f: Fraction) -> int:
    return (2 * f.numerator + f.denominator) // (2 * f.denominator)


def reduce(x: EisensteinInt, m: EisensteinInt) -> EisensteinInt:
    """The member of least (norm, a, b) of the class of x mod m."""
    _, r = divmod_nearest(x, m)
    # The nearest-division remainder has norm < norm(m); the minimal-norm
    # class member differs from it by a small multiple of m.
    best = r
    bkey = (r.norm(), r.a, r.b)
    for ea in range(-2, 3):
        for eb in range(-2, 3):
            cand = r - EisensteinInt(ea, eb) * m
            key = (cand.norm(), cand.a, cand.b)
            if key < bkey:
                best, bkey = cand, key
    return best


def regularity_kind(m: EisensteinInt, A: ScalarGroup) -> str:
    """"regular" when m divides its conjugate exactly and the conjugates
    of A's members, reduced mod m, are A's members again; else
    "chiral"."""
    _, r = divmod_nearest(m.conjugate(), m)
    conjugates = {reduce(x.conjugate(), m) for x in A.members}
    return "regular" if r.is_zero() and conjugates == set(A.members) \
        else "chiral"


# ---------------------------------------------------------------------------
# The generic validators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StringCGroup:
    rhos: tuple
    identity: Hashable
    mul: Callable
    schlafli: SchlafliType


@dataclass(frozen=True)
class RotationGroup:
    sigmas: tuple
    identity: Hashable
    mul: Callable
    schlafli: SchlafliType


def _times(x, word: Iterable, mul: Callable):
    for g in word:
        x = mul(x, g)
    return x


def _word_order(identity, word: Sequence, mul: Callable) -> int:
    x, k = _times(identity, word, mul), 1
    while x != identity:
        x, k = _times(x, word, mul), k + 1
    return k


def validate_string_cgroup(
        rhos: Sequence, identity: Hashable | None = None,
        mul: Callable = operator.mul) -> StringCGroup:
    """Check relations (R) and intersections (C)."""
    rhos = tuple(rhos)
    if len(rhos) != 4:
        raise PolytopeValidationError(f"need 4 generators, got {len(rhos)}")
    if identity is None:
        identity = Permutation.identity(rhos[0].degree)
    for i, r in enumerate(rhos):
        x = mul(identity, r)
        if x == identity or mul(x, r) != identity:
            raise PolytopeValidationError(f"rho{i} is not an involution")
    for i, j in ((0, 2), (0, 3), (1, 3)):
        if _times(identity, (rhos[i], rhos[j]) * 2, mul) != identity:
            raise PolytopeValidationError(
                f"(rho{i} rho{j})^2 != identity (commuting relation fails)")
    p1, p2, p3 = (_word_order(identity, rhos[j:j + 2], mul) for j in range(3))
    subsets = [frozenset(c) for k in range(4)
               for c in itertools.combinations(range(4), k)]
    _check_intersections(rhos, [f"rho{i}" for i in range(4)],
                         itertools.product(subsets, repeat=2), identity, mul)
    return StringCGroup(rhos, identity, mul, SchlafliType(p1, p2, p3))


def _check_intersections(gens: tuple, names: Sequence[str],
                         pairs: Iterable[tuple[frozenset, frozenset]],
                         identity, mul: Callable) -> None:
    closures: dict[frozenset, set] = {}

    def closure(s: frozenset) -> set:
        if s not in closures:
            closures[s] = orbit([identity], [gens[i] for i in sorted(s)], mul)
        return closures[s]

    def span(s: frozenset) -> str:
        return "<" + ",".join(names[i] for i in sorted(s)) + ">" if s else "1"

    for I, J in pairs:
        inter = closure(I) & closure(J)
        expected = closure(I & J)
        if inter != expected:
            raise PolytopeValidationError(
                f"intersection condition fails: {span(I)} ^ {span(J)} has"
                f" order {len(inter)}, {span(I & J)} has order"
                f" {len(expected)}")


def validate_rotation_group(
        sigmas: Sequence, identity: Hashable | None = None,
        mul: Callable = operator.mul) -> RotationGroup:
    """Check relations (R') and intersections (C')."""
    sigmas = tuple(sigmas)
    if len(sigmas) != 3:
        raise PolytopeValidationError(f"need 3 generators, got {len(sigmas)}")
    if identity is None:
        identity = Permutation.identity(sigmas[0].degree)
    s1, s2, s3 = sigmas
    for name, word in (("(sigma1 sigma2)^2", (s1, s2)),
                       ("(sigma2 sigma3)^2", (s2, s3)),
                       ("(sigma1 sigma2 sigma3)^2", (s1, s2, s3))):
        if _times(identity, word * 2, mul) != identity:
            raise PolytopeValidationError(f"{name} != identity")
    p1, p2, p3 = (_word_order(identity, (s,), mul) for s in sigmas)
    pairs = [(frozenset(I), frozenset(J))
             for I, J in (((0,), (1,)), ((1,), (2,)), ((0, 1), (1, 2)))]
    _check_intersections(sigmas, ("sigma1", "sigma2", "sigma3"), pairs,
                         identity, mul)
    if 1 in (p1, p2, p3):
        raise PolytopeValidationError(
            f"sigma{(p1, p2, p3).index(1) + 1} is the identity")
    return RotationGroup(sigmas, identity, mul, SchlafliType(p1, p2, p3))


def generator_map_homomorphism(
        gens: Sequence, start: Hashable, images: Sequence[Sequence],
        identity: Hashable, mul: Callable) -> dict | None:
    """The map x |-> start * phi(x) on <gens> as a dict, where phi takes
    gens[i] to the product of the word ``images[i]``; None when phi does
    not extend to one."""
    mapping = {identity: start}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        h = mapping[g]
        for a, word in zip(gens, images):
            g2, h2 = mul(g, a), h
            for b in word:
                h2 = mul(h2, b)
            known = mapping.get(g2)
            if known is None:
                mapping[g2] = h2
                frontier.append(g2)
            elif known != h2:
                return None
    return mapping


def is_directly_regular(R: RotationGroup) -> bool:
    """Whether the reflection twist is an outer automorphism of the
    rotation group."""
    s1, s2, s3 = R.sigmas
    identity, mul = R.identity, R.mul
    words = [(s1,) * (R.schlafli.p1 - 1), (s1, s1, s2), (s3,)]
    twist = generator_map_homomorphism(R.sigmas, identity, words, identity,
                                       mul)
    if twist is None or len(set(twist.values())) != len(twist):
        return False
    for s, word in zip(R.sigmas, words):
        if twist[_times(identity, word, mul)] != mul(identity, s):
            return False
    letters = [(s,) for s in R.sigmas]
    inner = list(twist)
    for s, word in zip(R.sigmas, words):
        left = generator_map_homomorphism(R.sigmas, mul(identity, s), letters,
                                          identity, mul)
        inner = [h for h in inner if left[h] == _times(h, word, mul)]
    return not inner


def self_duality_test(C: StringCGroup) -> bool:
    """Whether rho_j |-> rho_{3-j} extends to a group automorphism."""
    mapping = generator_map_homomorphism(
        C.rhos, C.identity, [(r,) for r in C.rhos[::-1]], C.identity, C.mul)
    return mapping is not None and len(set(mapping.values())) == len(mapping)
