"""2x2 matrix groups over Eisenstein residue rings.

For a modulus m of norm 3k (k > 1) the three frozen integral matrices
SIGMA_TRIPLE below, reduced mod m, satisfy exactly (as integral matrices,
hence modulo every m and every scalar group):

    sigma1^3 = sigma2^6 = sigma3^3
             = (sigma1 sigma2)^2 = (sigma2 sigma3)^2 = (sigma1 sigma2 sigma3)^2
             = identity

They generate the rotation group of a 4-polytope of type {3, 6, 3} modulo
an admissible scalar group A.  When m divides its own conjugate and A is
stable under conjugation, the polytope is regular: its full automorphism
group is the generated linear group extended by the entrywise-conjugation
map.  Group elements are therefore pairs (M, star) with star a conjugation
flag, multiplying as

    (M, c) * (N, d)  =  (M * conj^c(N), c xor d).

Otherwise the polytope is chiral and the group stays linear (star = False
throughout).  The triple was found once by a bounded search over integral
matrices with entries a + b*w, |a|, |b| <= 3 (``tools/find_sigma_triple.py``
reproduces it); its validation certificate is the order table

    m = 3:              linear 162, with conjugation 324
    m = 2 - 2w:         linear 360, with conjugation 720
    m = 3 - 3w:         linear 4374, with conjugation 8748
    m = (1-w)(1+3w):    linear 2016 (chiral; no conjugation extension)

checked in the test suite.  The test suite also proves the relations once
over Z[w], where each word is the identity matrix and the determinants are
1, -1 and 1; so ``find_generators`` only reduces the triple mod m, and
each build's own (R')/(C') or (R)/(C) validation runs on its Cayley table.

The reflections of a regular group come from one fixed word as well:
r = star sigma2 sigma1^2 sigma2, which is (R, star) up to the scalar -1,
since sigma2 sigma1^2 sigma2 = -conj(R) over Z[w] with

    R = [[2w, 1 + 2w], [-1 - 2w, -2 - 2w]].

R conj(R) = I and (R conj(s)) (conj(R) s) = I for s in sigma1, sigma2,
sigma2 sigma3, exactly over Z[w] (the test suite proves this too), so
r is an involution with r s r = s^-1 for each such s, and sigma1 r, r,
r sigma2 and r sigma2 sigma3 are the four involutory generators.

An element (M, star) is coded as one int64: the entry positions
(e0, e1, e2, e3) of M in the ring and the flag star, packed in mixed radix
so that code order is the order of the tuples (e0, e1, e2, e3, star), and
taken least over the scalar multiples of M.  The closure runs on these
codes one breadth-first level at a time, with every product of a level
taken at once in numpy; ``cayley_table`` gives the group's right
multiplication by any coded elements in the same way.

Ring elements are their positions in the ``ResidueRing`` throughout,
multiplied and added by table lookup (``_Arith``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .eisenstein import (
    EisensteinInt,
    ResidueRing,
    ScalarGroup,
    canonical_associate,
    format_eisenstein,
)
from .permgroup import (
    OverflowResult,
    code_cayley_table,
    code_orbit,
    face_action,
)

#: Frozen integral generator triple (row-major 2x2 entries a + b*w).
SIGMA_TRIPLE: tuple[tuple[EisensteinInt, ...], ...] = (
    (EisensteinInt(2, 2), EisensteinInt(3, 3),
     EisensteinInt(-2, -1), EisensteinInt(-3, -2)),
    (EisensteinInt(0, 0), EisensteinInt(0, -1),
     EisensteinInt(1, 1), EisensteinInt(1, 2)),
    (EisensteinInt(1, -1), EisensteinInt(3, 1),
     EisensteinInt(0, 2), EisensteinInt(-2, 1)),
)

DEFAULT_MAX_ELEMENTS = 2 * 10**6


class ConfigurationError(ValueError):
    """A modulus or scalar group fails its defining requirements."""


def _check_norm(m: EisensteinInt) -> None:
    """The precondition norm(m) = 3k with k > 1 of every construction."""
    n = m.norm()
    if n % 3 != 0 or n <= 3:
        raise ConfigurationError(
            f"modulus {format_eisenstein(m)} has norm {n}; need norm = 3k"
            " with k > 1")


def find_generators(arith: _Arith) -> np.ndarray:
    """SIGMA_TRIPLE reduced mod the modulus of ``arith``'s ring, as its
    entry positions: row i holds (e0, e1, e2, e3) of sigma_(i+1)."""
    a, b = np.array([(z.a, z.b) for mat in SIGMA_TRIPLE for z in mat]).T
    return arith.ring.class_index(a, b).reshape(-1, 4)


def check_ring_size(m: EisensteinInt, max_elements: int) -> None:
    """OverflowResult when the product and sum tables of Z[w]/(m), of
    norm(m)^2 entries each, would pass ``max_elements``: before any ring."""
    if m.norm() ** 2 > max_elements:
        raise OverflowResult(
            f"ring tables of norm(m)^2 = {m.norm() ** 2} entries exceed"
            f" {max_elements} elements")


def regularity_test(m: EisensteinInt, A: ScalarGroup) -> str:
    """"regular" if m divides its conjugate and A is conjugation-stable,
    else "chiral"; both are read in A's ring, Z[w]/(m): conj(m) is in the
    zero class, and conjugating A's members keeps them in A."""
    ring, c = A.ring, m.conjugate()
    a, b = ring.a[A.positions], ring.b[A.positions]
    if ring.class_index(c.a, c.b) == ring.class_index(0, 0) and \
            np.isin(ring.class_index(a - b, -b), A.positions).all():
        return "regular"
    return "chiral"


class _Arith:
    """Index-table arithmetic for one residue ring (rings here are tiny).

    Ring elements are their positions in ``ring``.  ``arrays`` holds
    their product, sum and conjugate as numpy tables over the positions,
    built at once on the elements' coordinates, and ``identity`` the entry
    positions of the identity matrix.
    """

    def __init__(self, ring: ResidueRing):
        self.ring = ring
        a, b = ring.a, ring.b
        x = np.arange(len(a))
        self.arrays = (ring.times(x[:, None], x),
                       ring.class_index(a[:, None] + a, b[:, None] + b),
                       ring.class_index(a - b, -b))
        self.identity = ring.class_index(np.array([1, 0, 0, 1]), 0)
        # Place values of (e0, e1, e2, e3) in a packed code; star is bit 0.
        self.place = 2 * len(a) ** np.arange(3, -1, -1)

    def matmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Entry positions of the 2x2 products x y, for matrices given by
        their entry positions (e0, e1, e2, e3) on the last axis; the other
        axes broadcast."""
        mul, add, _ = self.arrays
        a, b, c, d = np.moveaxis(x, -1, 0)
        e, f, g, h = np.moveaxis(y, -1, 0)
        return np.stack([add[mul[a, e], mul[b, g]], add[mul[a, f], mul[b, h]],
                         add[mul[c, e], mul[d, g]], add[mul[c, f], mul[d, h]]],
                        axis=-1)


@dataclass
class MatrixGroup:
    """A finished closure: the polytope symmetry group in matrix form.

    Elements are int64 codes (``_pack``).  ``codes`` lists every element
    in ascending order; ``identity``, ``generator_codes`` (the defining
    generators) and ``sigma_codes`` (sigma1..sigma3) are codes too.
    """

    modulus: EisensteinInt
    scalars: ScalarGroup
    kind: str  # "regular" | "chiral"
    arith: _Arith = field(repr=False)
    # Rows of arith's product table for A's members: scalar multiples.
    _scalar_rows: np.ndarray = field(repr=False)
    codes: np.ndarray | None = field(repr=False, compare=False, default=None)
    identity: int = 0
    generator_codes: tuple[int, ...] = ()
    sigma_codes: tuple[int, ...] = ()

    @property
    def order(self) -> int:
        return len(self.codes)

    def _pack(self, entries: np.ndarray, star) -> np.ndarray:
        """The code of each element with matrix entries ``entries`` (the
        ring positions e0..e3 on the last axis) and flag ``star``: the least
        mixed-radix code over the scalar multiples of the matrix."""
        scaled = self._scalar_rows[:, entries] @ self.arith.place
        return (scaled + star).min(axis=0)

    def _unpack(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = len(self.arith.ring.a)
        return codes[..., None] // self.arith.place % n, codes & 1

    def _product(self, x, y) -> np.ndarray:
        """Codes of the products of the coded elements x and y, entry by
        entry (either may be a single code), as

            (M, c) * (N, d)  =  (M * conj^c(N), c xor d)."""
        conj = self.arith.arrays[2]
        (x_entries, x_star), (y_entries, y_star) = map(
            self._unpack, (np.asarray(x), np.asarray(y)))
        y_entries = np.where(x_star[..., None] == 1, conj[y_entries],
                             y_entries)
        return self._pack(self.arith.matmul(x_entries, y_entries),
                          x_star ^ y_star)

    def cayley_table(self, gens: Sequence[int]) -> np.ndarray:
        """``right[i, j]``: the index in ``codes`` of ``codes[i]`` times
        ``gens[j]``, one vectorized product per column."""
        return code_cayley_table(
            self.codes, [lambda x, y=y: self._product(x, y) for y in gens])

    def coset_action(self, stabilizer_gens: Sequence[int],
                     gens: Sequence[int]) -> list[list[int]]:
        """Right multiplication by ``gens`` on the right cosets of
        <stabilizer_gens>, one image list per generator; coset 0 is the
        subgroup."""
        k = len(gens)
        right = self.cayley_table(list(gens) + list(stabilizer_gens))
        return face_action(right, int(np.searchsorted(self.codes,
                                                      self.identity)),
                           range(k), range(k, k + len(stabilizer_gens))
                           ).tolist()


def generate_group(
        m: EisensteinInt,
        A: ScalarGroup | None = None,
        max_elements: int = DEFAULT_MAX_ELEMENTS,
        deadline: float | None = None,
) -> MatrixGroup:
    """Breadth-first closure of the frozen generators mod m, modulo the
    scalars in A (by default {1, -1}), one level at a time on int64
    element codes.

    For regular (m, A) the entrywise-conjugation element is adjoined, so the
    result is the full polytope symmetry group; for chiral (m, A) it is the
    rotation group.  Raises OverflowResult past ``max_elements``, or when a
    level starts past ``deadline``, a ``time.monotonic()`` value.  The
    ring's product and sum tables have norm(m)^2 entries each, so a
    norm(m)^2 past ``max_elements`` overflows before they are built.  A
    must be a scalar group of Z[w]/(m), else ConfigurationError.
    """
    _check_norm(m)  # before any table is built
    check_ring_size(m, max_elements)
    if A is None:
        A = ScalarGroup(ResidueRing(m))
    elif canonical_associate(A.ring.modulus)[0] != canonical_associate(m)[0]:
        raise ConfigurationError(
            f"scalars mod {format_eisenstein(A.ring.modulus)} do not act"
            f" mod {format_eisenstein(m)}")
    arith = _Arith(A.ring)
    sigmas = find_generators(arith)
    kind = regularity_test(m, A)
    group = MatrixGroup(
        modulus=m, scalars=A, kind=kind, arith=arith,
        _scalar_rows=arith.arrays[0][A.positions])
    sigma_codes = tuple(group._pack(sigmas, 0).tolist())
    identity = int(group._pack(arith.identity, 0))
    gen_codes = sigma_codes
    if kind == "regular":
        gen_codes += (int(group._pack(arith.identity, 1)),)
    codes = code_orbit(
        [identity],
        lambda x: np.concatenate([group._product(x, g) for g in gen_codes]),
        max_elements, deadline)
    group.codes, group.identity = codes, identity
    group.generator_codes, group.sigma_codes = gen_codes, sigma_codes
    return group


def recover_reflection_codes(group: MatrixGroup) -> tuple[int, ...] | None:
    """The codes of the four involutory generators (sigma1 r, r,
    r sigma2, r sigma2 sigma3) of a regular group, where r is the fixed
    word star sigma2 sigma1^2 sigma2; None for a chiral group, which has
    no star.  Over Z[w], sigma2 sigma1^2 sigma2 = -conj(R), so r is
    (R, star) up to the scalar -1 (see the module docstring)."""
    if group.kind != "regular":
        return None
    s1, s2, s3 = group.sigma_codes
    r = group._pack(group.arith.identity, 1)
    for s in (s2, s1, s1, s2):
        r = group._product(r, s)
    rho2 = group._product(r, s2)
    return tuple(int(x) for x in (group._product(s1, r), r, rho2,
                                  group._product(rho2, s3)))
