"""Exact arithmetic in the Eisenstein integers Z[w], w = exp(2*pi*i/3).

An element a + b*w is stored as the integer pair (a, b), with w^2 = -1 - w.
The module provides prime factorization, residue rings Z[w]/(m) with
canonical representatives, unit groups, admissible scalar subgroups, and
the vertex-count formula for the medial layer graphs built elsewhere in
this package.
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
        # (a + bw)(c + dw) = ac + (ad + bc)w + bd*w^2,  w^2 = -1 - w
        a, b, c, d = self.a, self.b, other.a, other.b
        return EisensteinInt(a * c - b * d, a * d + b * c - b * d)

    def conjugate(self) -> "EisensteinInt":
        return EisensteinInt(self.a - self.b, -self.b)

    def norm(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __pow__(self, n: int) -> "EisensteinInt":
        if n < 0:
            raise ValueError("negative powers are not integral")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __str__(self) -> str:
        return format_eisenstein(self)

    def __repr__(self) -> str:
        return f"EisensteinInt({self.a}, {self.b})"


ONE = EisensteinInt(1, 0)

#: The six units of Z[w]: 1, -w^2, -w^2*-w^2=... enumerated as powers of -w^2
#: (a primitive sixth root of unity), i.e. all a+bw of norm 1.
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


def divmod_nearest(x: EisensteinInt, y: EisensteinInt) -> tuple[EisensteinInt, EisensteinInt]:
    """Division with remainder; norm(r) < norm(y) by nearest-lattice rounding."""
    if y.is_zero():
        raise ZeroDivisionError("division by zero in Z[w]")
    n = y.norm()
    num = x * y.conjugate()
    qa = Fraction(num.a, n)
    qb = Fraction(num.b, n)
    q = EisensteinInt(_round_half(qa), _round_half(qb))
    r = x - q * y
    assert r.norm() < n
    return q, r


def _round_half(f: Fraction) -> int:
    return (2 * f.numerator + f.denominator) // (2 * f.denominator)


def euclid_gcd(x: EisensteinInt, y: EisensteinInt) -> EisensteinInt:
    while y:
        _, r = divmod_nearest(x, y)
        x, y = y, r
    return x


def exact_divide(x: EisensteinInt, y: EisensteinInt) -> EisensteinInt | None:
    """x / y when the quotient is integral, else None."""
    q, r = divmod_nearest(x, y)
    return q if r.is_zero() else None


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


@dataclass(frozen=True)
class Factorization:
    """unit * prod(prime^exponent), primes canonical and pairwise non-associated."""

    unit: EisensteinInt
    parts: tuple[tuple[EisensteinInt, int], ...]

    def value(self) -> EisensteinInt:
        result = self.unit
        for p, e in self.parts:
            result = result * p**e
        return result


def _rational_factor(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _split_prime(p: int) -> EisensteinInt:
    """For a rational prime p = 1 (mod 3), find a canonical prime above p."""
    # A cube root of unity mod p gives x with p | x^2 + x + 1 = N(x - w).
    for g in range(2, p):
        x = pow(g, (p - 1) // 3, p)
        if x != 1 and (x * x + x + 1) % p == 0:
            pi = euclid_gcd(EisensteinInt(p, 0), EisensteinInt(x, -1))
            assert pi.norm() == p
            return canonical_associate(pi)[0]
    raise ArithmeticError(f"no cube root of unity mod {p}")


RAMIFIED_PRIME = canonical_associate(EisensteinInt(1, -1))[0]  # associate of 1 - w


def factor(m: EisensteinInt) -> Factorization:
    """Prime factorization in Z[w] with canonical non-associated primes.

    Rational primes p = 1 (mod 3) split, p = 2 (mod 3) stay inert,
    and 3 ramifies as a unit times (1-w)^2.
    """
    if m.is_zero():
        raise ValueError("cannot factor 0")
    rest = m
    parts: list[tuple[EisensteinInt, int]] = []
    for p, _ in _rational_factor(m.norm()):
        if p == 3:
            candidates = [RAMIFIED_PRIME]
        elif p % 3 == 2:
            candidates = [EisensteinInt(p, 0)]
        else:
            pi = _split_prime(p)
            candidates = [pi, canonical_associate(pi.conjugate())[0]]
        for pi in candidates:
            e = 0
            while True:
                q = exact_divide(rest, pi)
                if q is None:
                    break
                rest = q
                e += 1
            if e:
                parts.append((pi, e))
    assert rest.norm() == 1, f"incomplete factorization of {m}"
    parts.sort(key=lambda pe: (pe[0].norm(), pe[0].b, pe[0].a))
    return Factorization(unit=rest, parts=tuple(parts))


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
        assert len(self.elements) == modulus.norm()

    # -- canonical reduction ------------------------------------------------

    def reduce(self, x: EisensteinInt) -> EisensteinInt:
        _, r = divmod_nearest(x, self.modulus)
        # The nearest-division remainder has norm < norm(m); the minimal-norm
        # class member differs from it by a small unit multiple of m.
        best = r
        bkey = (r.norm(), r.a, r.b)
        for ea in range(-2, 3):
            for eb in range(-2, 3):
                cand = r - EisensteinInt(ea, eb) * self.modulus
                key = (cand.norm(), cand.a, cand.b)
                if key < bkey:
                    best, bkey = cand, key
        return best

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
        assert d1 * d2 == m.norm()
        # (d1, q) and (0, d2) span the ideal, so a + b*w is congruent to
        # (a mod d1) + ((b - (a // d1) q) mod d2) w; _hermite_index maps
        # the key of that representative to its class.
        self._hermite = (d1, v1[1] * (1 if v1[0] > 0 else -1), d2)
        seen: dict[EisensteinInt, None] = {}
        for a in range(d1):
            for b in range(d2):
                seen.setdefault(self.reduce(EisensteinInt(a, b)), None)
        self.elements = sorted(seen, key=lambda x: (x.norm(), x.a, x.b))
        self.a = np.array([x.a for x in self.elements])
        self.b = np.array([x.b for x in self.elements])
        self._hermite_index = np.empty(d1 * d2, dtype=np.int64)
        self._hermite_index[self._hermite_key(self.a, self.b)] = \
            np.arange(d1 * d2)

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
        a, b, c, d = self.a[x], self.b[x], self.a[y], self.b[y]
        return self.class_index(a * c - b * d, a * d + b * c - b * d)

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

    def conjugated(self) -> ScalarGroup:
        a, b = self.ring.a[self.positions], self.ring.b[self.positions]
        return ScalarGroup._closed(self.ring,
                                   np.sort(self.ring.class_index(a - b, -b)))

    def same_members(self, other: ScalarGroup) -> bool:
        return np.array_equal(self.positions, other.positions)


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


def vertex_count(m: EisensteinInt, A: ScalarGroup) -> int:
    """Vertex count of the medial layer graph attached to (m, A).

    N = 2 * [ norm(m)^3 / (12*|A|) * prod over non-associated primes pi | m
    of (1 - norm(pi)^-2) ].  Raises when the hypothesis norm(m) = 3k, k > 1
    fails or the result is not integral (which signals an invalid A).
    """
    if m.is_zero():
        raise ValueError("m must be nonzero")
    n = m.norm()
    if n % 3 != 0 or n // 3 <= 1:
        raise ValueError(f"norm(m) = {n} does not satisfy norm(m) = 3k with k > 1")
    total = Fraction(n**3, 12 * len(A))
    for pi, _ in factor(m).parts:
        total *= 1 - Fraction(1, pi.norm() ** 2)
    total *= 2
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral vertex count {total} for m={m}, |A|={len(A)}")
    return int(total)
