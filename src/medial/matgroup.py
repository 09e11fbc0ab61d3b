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

checked in the test suite together with the defining relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .eisenstein import (
    EisensteinInt,
    ResidueRing,
    ScalarGroup,
    format_eisenstein,
)
from .permgroup import face_action, orbit

#: Frozen integral generator triple (row-major 2x2 entries a + b*w).
SIGMA_TRIPLE: tuple[tuple[EisensteinInt, ...], ...] = (
    (EisensteinInt(2, 2), EisensteinInt(3, 3),
     EisensteinInt(-2, -1), EisensteinInt(-3, -2)),
    (EisensteinInt(0, 0), EisensteinInt(0, -1),
     EisensteinInt(1, 1), EisensteinInt(1, 2)),
    (EisensteinInt(1, -1), EisensteinInt(3, 1),
     EisensteinInt(0, 2), EisensteinInt(-2, 1)),
)

#: The defining relation words over generator indices 0..2 (each must
#: reduce to the identity matrix).
RELATION_WORDS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("sigma1^3", (0, 0, 0)),
    ("sigma2^6", (1, 1, 1, 1, 1, 1)),
    ("sigma3^3", (2, 2, 2)),
    ("(sigma1 sigma2)^2", (0, 1, 0, 1)),
    ("(sigma2 sigma3)^2", (1, 2, 1, 2)),
    ("(sigma1 sigma2 sigma3)^2", (0, 1, 2, 0, 1, 2)),
)

DEFAULT_MAX_ELEMENTS = 2 * 10**6


class ConfigurationError(ValueError):
    """A generator triple or modulus fails its defining requirements."""


class OverflowResult(RuntimeError):
    """Group closure exceeded the configured element cap."""


def _mat_mul(x: Sequence[EisensteinInt], y: Sequence[EisensteinInt],
             ring: ResidueRing | None = None) -> tuple[EisensteinInt, ...]:
    a, b, c, d = x
    e, f, g, h = y
    out = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    if ring is not None:
        out = tuple(ring.reduce(z) for z in out)
    return out


@dataclass(frozen=True)
class ResidueMatrix:
    """A 2x2 matrix over D/(m) with unit determinant, entries reduced."""

    ring: ResidueRing
    entries: tuple[EisensteinInt, EisensteinInt, EisensteinInt, EisensteinInt]

    @classmethod
    def make(cls, ring: ResidueRing,
             entries: Sequence[EisensteinInt]) -> "ResidueMatrix":
        reduced = tuple(ring.reduce(e) for e in entries)
        mat = cls(ring, reduced)  # type: ignore[arg-type]
        if ring.inverse(mat.det()) is None:
            raise ConfigurationError(
                f"matrix determinant {format_eisenstein(mat.det())} is not a"
                f" unit mod {format_eisenstein(ring.modulus)}")
        return mat

    def det(self) -> EisensteinInt:
        a, b, c, d = self.entries
        return self.ring.reduce(a * d - b * c)

    def __mul__(self, other: "ResidueMatrix") -> "ResidueMatrix":
        return ResidueMatrix(
            self.ring, _mat_mul(self.entries, other.entries, self.ring))

    def conjugate(self) -> "ResidueMatrix":
        return ResidueMatrix(
            self.ring,
            tuple(self.ring.reduce(e.conjugate()) for e in self.entries))

    def scaled(self, a: EisensteinInt) -> "ResidueMatrix":
        return ResidueMatrix(
            self.ring, tuple(self.ring.reduce(a * e) for e in self.entries))

    def inverse(self) -> "ResidueMatrix":
        a, b, c, d = self.entries
        di = self.ring.inverse(self.det())
        assert di is not None
        return ResidueMatrix(
            self.ring,
            tuple(self.ring.reduce(di * z) for z in (d, -b, -c, a)))

    def is_identity(self) -> bool:
        one, zero = self.ring.one(), self.ring.reduce(EisensteinInt(0, 0))
        return self.entries == (one, zero, zero, one)

    def __str__(self) -> str:
        a, b, c, d = (format_eisenstein(e) for e in self.entries)
        return f"[[{a}, {b}], [{c}, {d}]]"


def identity_matrix(ring: ResidueRing) -> ResidueMatrix:
    one, zero = ring.one(), ring.reduce(EisensteinInt(0, 0))
    return ResidueMatrix(ring, (one, zero, zero, one))


def find_generators(
        m: EisensteinInt,
        triple: Sequence[Sequence[EisensteinInt]] = SIGMA_TRIPLE,
) -> tuple[ResidueMatrix, ResidueMatrix, ResidueMatrix]:
    """The frozen generator triple reduced mod m, with relations verified.

    Requires norm(m) = 3k with k > 1.  Each defining relation is checked to
    land on +-identity in the residue ring; a failure names the relation.
    """
    n = m.norm()
    if n % 3 != 0 or n <= 3:
        raise ConfigurationError(
            f"modulus {format_eisenstein(m)} has norm {n}; need norm = 3k"
            " with k > 1")
    ring = ResidueRing(m)
    gens = tuple(ResidueMatrix.make(ring, t) for t in triple)
    ident = identity_matrix(ring)
    neg_ident = ident.scaled(EisensteinInt(-1, 0))
    for name, word in RELATION_WORDS:
        acc = ident
        for idx in word:
            acc = acc * gens[idx]
        if acc.entries not in (ident.entries, neg_ident.entries):
            raise ConfigurationError(
                f"relation {name} fails mod {format_eisenstein(m)}:"
                f" got {acc}")
    return gens


def regularity_test(m: EisensteinInt, A: ScalarGroup) -> str:
    """"regular" if m divides its conjugate and A is conjugation-stable,
    else "chiral"."""
    from .eisenstein import exact_divide

    if exact_divide(m.conjugate(), m) is not None and \
            A.same_members(A.conjugated()):
        return "regular"
    return "chiral"


class _Arith:
    """Index-table arithmetic for one residue ring (rings here are tiny)."""

    def __init__(self, ring: ResidueRing):
        self.ring = ring
        self.elems: list[EisensteinInt] = sorted(
            ring.elements, key=lambda z: (z.a, z.b))
        self.index = {z: i for i, z in enumerate(self.elems)}
        n = len(self.elems)
        self.mul = [[self.index[ring.mul(x, y)] for y in self.elems]
                    for x in self.elems]
        self.add = [[self.index[ring.add(x, y)] for y in self.elems]
                    for x in self.elems]
        self.conj = [self.index[ring.reduce(x.conjugate())]
                     for x in self.elems]

    def encode(self, mat: ResidueMatrix) -> tuple[int, int, int, int]:
        return tuple(self.index[self.ring.reduce(e)]
                     for e in mat.entries)  # type: ignore[return-value]

    def mat_mul(self, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
        """Product of the matrices in the first four entries of x and y."""
        mul, add = self.mul, self.add
        a, b, c, d = x[:4]
        e, f, g, h = y[:4]
        return (add[mul[a][e]][mul[b][g]], add[mul[a][f]][mul[b][h]],
                add[mul[c][e]][mul[d][g]], add[mul[c][f]][mul[d][h]])

    def mat_conj(self, x: Sequence[int]) -> tuple[int, ...]:
        conj = self.conj
        return (conj[x[0]], conj[x[1]], conj[x[2]], conj[x[3]])


@dataclass
class MatrixGroup:
    """A finished closure: the polytope symmetry group in matrix form.

    ``elements`` lists every group element as an encoded tuple
    (e0, e1, e2, e3, star) in a fixed sorted order; ``generators`` indexes
    the images of the defining generators inside that list.
    """

    modulus: EisensteinInt
    scalars: ScalarGroup
    kind: str  # "regular" | "chiral"
    ring: ResidueRing
    elements: tuple[tuple[int, ...], ...]
    generator_codes: tuple[tuple[int, ...], ...]
    sigma_codes: tuple[tuple[int, ...], ...]
    arith: _Arith = field(repr=False)
    _scalar_rows: tuple[list[int], ...] = ()  # arith.mul rows of A's members

    @property
    def order(self) -> int:
        return len(self.elements)

    def canonical(self, code: tuple[int, ...]) -> tuple[int, ...]:
        a, b, c, d, star = code
        return min([(m[a], m[b], m[c], m[d], star) for m in self._scalar_rows])

    def multiply(self, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        arith = self.arith
        product = arith.mat_mul(x, arith.mat_conj(y) if x[4] else y)
        return self.canonical(product + (x[4] ^ y[4],))

    def identity_code(self) -> tuple[int, ...]:
        return self.canonical(
            self.arith.encode(identity_matrix(self.ring)) + (0,))

    def coset_action(self, stabilizer_gens: Sequence[tuple[int, ...]],
                     gens: Sequence[tuple[int, ...]]) -> list[list[int]]:
        """Right multiplication by ``gens`` on the right cosets of
        <stabilizer_gens>, one image list per generator; coset 0 is the
        subgroup."""
        return face_action(self.identity_code(), gens, self.multiply,
                           stabilizer_gens)


def generate_group(
        m: EisensteinInt,
        A: ScalarGroup | None = None,
        gens: Sequence[ResidueMatrix] | None = None,
        max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> MatrixGroup:
    """BFS closure of the generators modulo scalars in A.

    For regular (m, A) the entrywise-conjugation element is adjoined, so the
    result is the full polytope symmetry group; for chiral (m, A) it is the
    rotation group.  Raises OverflowResult past ``max_elements``.
    """
    sigmas = tuple(gens) if gens is not None else find_generators(m)
    ring = sigmas[0].ring
    if A is None:
        A = ScalarGroup(ring)
    if EisensteinInt(-1, 0) not in A:
        raise ConfigurationError("scalar group must contain -1")
    kind = regularity_test(m, A)
    arith = _Arith(ring)
    scalar_rows = tuple(arith.mul[arith.index[ring.reduce(a)]]
                        for a in A.members)

    group = MatrixGroup(
        modulus=m, scalars=A, kind=kind, ring=ring,
        elements=(), generator_codes=(), sigma_codes=(), arith=arith,
        _scalar_rows=scalar_rows)

    sigma_codes = [group.canonical(arith.encode(s) + (0,)) for s in sigmas]
    gen_codes = list(sigma_codes)
    if kind == "regular":
        gen_codes.append(group.canonical(
            arith.encode(identity_matrix(ring)) + (1,)))

    try:
        seen = orbit([group.identity_code()], gen_codes, group.multiply,
                     max_elements)
    except ValueError:
        raise OverflowResult(
            f"closure exceeded {max_elements} elements") from None
    group.elements = tuple(sorted(seen))
    group.generator_codes = tuple(gen_codes)
    group.sigma_codes = tuple(sigma_codes)
    return group


def recover_reflection_codes(group: MatrixGroup) -> tuple[tuple[int, ...], ...] | None:
    """Search for an involution r with r sigma1 r = sigma1^-1 and
    r sigma2 r = sigma2^-1; if found return the four involutory generator
    codes (sigma1*r, r, r*sigma2, r*sigma2*sigma3), else None.

    Only regular instances admit such an r; for chiral ones this returns
    None (the search domain is the conjugation-flagged coset, empty there).
    """
    s1, s2, s3 = group.sigma_codes
    ident = group.identity_code()

    def inv(code: tuple[int, ...]) -> tuple[int, ...]:
        # Small element orders here; repeated multiplication suffices.
        acc, prev = code, ident
        while acc != ident:
            prev = acc
            acc = group.multiply(acc, code)
        return prev

    s1i, s2i = inv(s1), inv(s2)
    for r in group.elements:
        if not r[4]:
            continue
        if group.multiply(r, r) != ident:
            continue
        if group.multiply(group.multiply(r, s1), r) != s1i:
            continue
        if group.multiply(group.multiply(r, s2), r) != s2i:
            continue
        rho1 = r
        rho0 = group.multiply(s1, r)
        rho2 = group.multiply(r, s2)
        rho3 = group.multiply(rho2, s3)
        rhos = (rho0, rho1, rho2, rho3)
        if all(group.multiply(x, x) == ident for x in rhos):
            return rhos
    return None
