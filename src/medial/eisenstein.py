"""Exact arithmetic in the Eisenstein integers Z[w], w = exp(2*pi*i/3).

An element a + b*w is stored as the integer pair (a, b), with w^2 = -1 - w.
The module provides residue rings Z[w]/(m) with canonical
representatives, built and reduced on whole coordinate arrays, unit groups,
admissible scalar subgroups, and the vertex-count formula for the medial
layer graphs built elsewhere in this package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .permgroup import code_orbit


@dataclass(frozen=True, order=True)
class EisensteinInt:
    """The Eisenstein integer a + b*w."""

    a: int
    b: int

    def __add__(self, other: "EisensteinInt") -> "EisensteinInt":
        return EisensteinInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "EisensteinInt") -> "EisensteinInt":
        return EisensteinInt(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "EisensteinInt":
        return EisensteinInt(-self.a, -self.b)

    def __mul__(self, other: "EisensteinInt") -> "EisensteinInt":
        return EisensteinInt(*_product(self.a, self.b, other.a, other.b))

    def conjugate(self) -> "EisensteinInt":
        return EisensteinInt(self.a - self.b, -self.b)

    def norm(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        return format_eisenstein(self)

    def __repr__(self) -> str:
        return f"EisensteinInt({self.a}, {self.b})"


ONE = EisensteinInt(1, 0)

#: The six units of Z[w], all a + bw of norm 1: (1 + w)^k = (-w^2)^k for
#: k = 0..5, 1 + w being a primitive sixth root of unity.
UNITS = (
    EisensteinInt(1, 0),
    EisensteinInt(1, 1),
    EisensteinInt(0, 1),
    EisensteinInt(-1, 0),
    EisensteinInt(-1, -1),
    EisensteinInt(0, -1),
)


_TERM = re.compile(r"([+-]?)\s*(\d*)\s*(w?)", re.IGNORECASE)


def parse_eisenstein(text: str) -> EisensteinInt:
    """Parse text like ``2-2w``, ``w``, ``-1+3w`` or ``3``."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty Eisenstein integer literal")
    a = b = 0
    pos = 0
    seen = False
    while pos < len(s):
        m = _TERM.match(s, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse Eisenstein integer: {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        digits, omega = m.group(2), m.group(3)
        if not digits and not omega:
            raise ValueError(f"cannot parse Eisenstein integer: {text!r}")
        coeff = sign * (int(digits) if digits else 1)
        if omega:
            b += coeff
        else:
            a += coeff
        pos = m.end()
        seen = True
    if not seen:
        raise ValueError(f"cannot parse Eisenstein integer: {text!r}")
    return EisensteinInt(a, b)


def format_eisenstein(x: EisensteinInt) -> str:
    """Serialize as ``a+bw`` text, e.g. ``2-2w``."""
    if x.b == 0:
        return str(x.a)
    if x.b == 1:
        wpart = "w"
    elif x.b == -1:
        wpart = "-w"
    else:
        wpart = f"{x.b}w"
    if x.a == 0:
        return wpart
    sign = "+" if x.b > 0 else ""
    return f"{x.a}{sign}{wpart}"


def canonical_associate(x: EisensteinInt) -> tuple[EisensteinInt, EisensteinInt]:
    """Return (p, u) with p = u*x the canonical associate: a > 0, b >= 0,
    minimal b (then minimal a). Units canonicalize to 1."""
    if x.is_zero():
        raise ValueError("zero has no canonical associate")
    best = None
    best_u = None
    for u in UNITS:
        cand = u * x
        if cand.a > 0 and cand.b >= 0:
            key = (cand.b, cand.a)
            if best is None or key < (best.b, best.a):
                best = cand
                best_u = u
    assert best is not None and best_u is not None
    return best, best_u


def _rational_primes(n: int) -> list[int]:
    """The distinct prime divisors of n > 0, ascending."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] * (n > 1)


def _product(a, b, c, d):
    """(a + bw)(c + dw) as its coordinate pair, on integers or arrays:
    ac + (ad + bc)w + bd*w^2 with w^2 = -1 - w."""
    return a * c - b * d, a * d + b * c - b * d


class ResidueRing:
    """The residue class ring Z[w]/(m) on canonical representatives.

    The canonical representative of a class is its member of minimal norm,
    ties broken lexicographically on (a, b); ``elements`` lists them in
    (norm, a, b) order.  Past construction an element is its position in
    ``elements``: ``a`` and ``b`` hold the coordinates of every position,
    ``class_index`` maps any a + b*w to its position, and ``times``
    multiplies positions.
    """

    def __init__(self, modulus: EisensteinInt):
        if modulus.is_zero():
            raise ValueError("modulus must be nonzero")
        self.modulus = modulus
        self._enumerate()

    def reduce(self, x: EisensteinInt) -> EisensteinInt:
        """The canonical representative of the class of x."""
        return self.elements[self.class_index(x.a, x.b)]

    def _enumerate(self) -> None:
        # The ideal (m) is the Z-lattice spanned by m and m*w; a column
        # Hermite form gives one representative per class before reduction.
        m = self.modulus
        v1 = (m.a, m.b)
        v2 = (-m.b, m.a - m.b)
        while v2[0] != 0:
            q = v1[0] // v2[0]
            v1, v2 = v2, (v1[0] - q * v2[0], v1[1] - q * v2[1])
        d1, d2 = abs(v1[0]), abs(v2[1])
        n = m.norm()
        assert d1 * d2 == n
        # (d1, q) and (0, d2) span the ideal, so a + b*w is congruent to
        # the grid point (a mod d1) + ((b - (a // d1) q) mod d2) w, whose
        # index a*d2 + b in the d1 x d2 grid is its key; _hermite_index,
        # the inverse of the grid's sort order, maps keys to positions.
        self._hermite = (d1, v1[1] * (1 if v1[0] > 0 else -1), d2)
        a, b = np.divmod(np.arange(n), d2)
        # Divide each point by m to the nearest lattice point, rounding
        # x conj(m) / norm(m) half up; the remainder has norm < norm(m),
        # and the class member of least (norm, a, b) differs from it by
        # (i + jw) m with |i|, |j| <= 2: kept as a running least over the
        # 25 shifts, one shift at a time.
        qa, qb = ((2 * z + n) // (2 * n)
                  for z in _product(a, b, m.a - m.b, -m.b))
        ma, mb = _product(qa, qb, m.a, m.b)
        a, b = ra, rb = a - ma, b - mb
        for sa, sb in zip(*_product(*np.indices((5, 5)).reshape(2, -1) - 2,
                                    m.a, m.b)):
            ca, cb = ra - sa, rb - sb
            dn = ca * ca - ca * cb + cb * cb - (a * a - a * b + b * b)
            less = (dn < 0) | (dn == 0) & ((ca < a) | (ca == a) & (cb < b))
            a, b = np.where(less, ca, a), np.where(less, cb, b)
        order = np.lexsort((b, a, a * a - a * b + b * b))
        self.a, self.b = a[order], b[order]
        self.elements = list(map(EisensteinInt, self.a.tolist(),
                                 self.b.tolist()))
        self._hermite_index = np.argsort(order)

    def _hermite_key(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d1, q, d2 = self._hermite
        return a % d1 * d2 + (b - a // d1 * q) % d2

    def class_index(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Position in ``elements`` of the class of each a + b*w, for
        integers or integer arrays a and b: ``reduce`` on whole arrays at
        once."""
        return self._hermite_index[self._hermite_key(a, b)]

    # -- arithmetic on positions --------------------------------------------

    def times(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Positions of the products of the elements at positions x and y
        (integers or arrays, which broadcast)."""
        return self.class_index(
            *_product(self.a[x], self.b[x], self.a[y], self.b[y]))

    def unit_group(self) -> np.ndarray:
        """Positions of the invertible residues, ascending."""
        x = np.arange(len(self.elements))
        return np.flatnonzero(
            (self.times(x[:, None], x) == self.class_index(1, 0)).any(axis=1))


class ScalarGroup:
    """An admissible group of unit scalars mod m (always contains -1).

    ``positions`` holds the positions of its members in ``ring.elements``
    as one ascending array, so ``members`` lists them in (norm, a, b)
    order."""

    def __init__(self, ring: ResidueRing, gens: Iterable[EisensteinInt] = ()):
        one = ring.class_index(1, 0)
        gens = [ring.class_index(g.a, g.b) for g in gens]
        for g in gens:
            if one not in ring.times(np.arange(len(ring.elements)), g):
                raise ValueError(f"scalar generator {ring.elements[g]} is not"
                                 f" a unit mod {ring.modulus}")
        gens.append(ring.class_index(-1, 0))
        self.ring = ring
        self.positions = code_orbit(
            [one], lambda x: np.concatenate([ring.times(x, g) for g in gens]))

    @classmethod
    def _closed(cls, ring: ResidueRing,
                positions: np.ndarray) -> ScalarGroup:
        """The group at the ascending ``positions``, which must be closed."""
        group = cls.__new__(cls)
        group.ring, group.positions = ring, positions
        return group

    @property
    def members(self) -> list[EisensteinInt]:
        return [self.ring.elements[i] for i in self.positions]

    def __len__(self) -> int:
        return len(self.positions)

    def __contains__(self, x: EisensteinInt) -> bool:
        return self.ring.class_index(x.a, x.b) in self.positions


def admissible_subgroups(ring: ResidueRing) -> list[ScalarGroup]:
    """All admissible scalar subgroups of the unit group of the ring: those
    that contain -1, grown from {1, -1} one unit at a time.

    The unit group is abelian, so <S, u> is the orbit of S under
    multiplication by u; subgroups are position arrays until the end.
    """
    units = ring.unit_group()
    found: dict[bytes, np.ndarray] = {}
    frontier = [ScalarGroup(ring).positions]
    while frontier:
        found.update((s.tobytes(), s) for s in frontier)
        grown = (code_orbit(s, lambda x: ring.times(x, u))
                 for s in frontier for u in np.setdiff1d(units, s))
        frontier = list({g.tobytes(): g for g in grown
                         if g.tobytes() not in found}.values())
    groups = [ScalarGroup._closed(ring, s) for s in found.values()]
    return sorted(groups, key=lambda s: (len(s), [(m.a, m.b) for m in s.members]))


def _prime_norms(m: EisensteinInt) -> list[int]:
    """The norms of the non-associated primes of Z[w] dividing m, read off
    the primes p | norm(m): 3 gives one prime of norm 3, p = 2 (mod 3) one
    of norm p^2, and p = 1 (mod 3) one of norm p, or two (conjugates) when
    p divides both a and b."""
    norms = []
    for p in _rational_primes(m.norm()):
        if p % 3 == 2:
            norms.append(p * p)
        else:
            norms += [p] * (2 if p != 3 and m.a % p == m.b % p == 0 else 1)
    return norms


def vertex_count(m: EisensteinInt, A: ScalarGroup) -> int:
    """Vertex count of the medial layer graph attached to (m, A).

    N = 2 * [ norm(m)^3 / (12*|A|) * prod over non-associated primes pi | m
    of (1 - norm(pi)^-2) ].  Raises when the hypothesis norm(m) = 3k, k > 1
    fails or the result is not integral (which signals an invalid A).
    """
    n = m.norm()
    if n % 3 != 0 or n // 3 <= 1:
        raise ValueError(f"norm(m) = {n} does not satisfy norm(m) = 3k with k > 1")
    total = Fraction(n**3, 12 * len(A))
    for q in _prime_norms(m):
        total *= 1 - Fraction(1, q * q)
    total *= 2
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral vertex count {total} for m={m}, |A|={len(A)}")
    return int(total)
