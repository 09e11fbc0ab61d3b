"""Builders for the named finitely presented groups used in the pipeline:

* string Coxeter groups [p1, p2, p3] (and rank-3 [p1, p2]),
* the regular toroidal maps {3,6}_(s,0), {3,6}_(s,s) and their {6,3} duals,
* universal locally toroidal 4-polytopes {{3,6}_s, {6,3}_t},
* the order-1296 polytope {{3,3}, {3,6}_(3,0)}.

The toroidal translation words below were determined once by a bounded
search over short words in the rank-3 generators and validated by coset
enumeration (quotient order 12*v for three parameter values per family);
``tools/find_toroidal_words.py`` reproduces the search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fpgroup import Presentation, Word, gen_word


@dataclass(frozen=True)
class SchlafliType:
    """Schlafli symbol {p1, p2} or {p1, p2, p3}."""

    p1: int
    p2: int
    p3: int | None = None

    def __post_init__(self):
        entries = [self.p1, self.p2] + ([self.p3] if self.p3 is not None else [])
        if any(p < 2 for p in entries):
            raise ValueError(f"Schlafli entries must be >= 2, got {entries}")

    def __str__(self) -> str:
        if self.p3 is None:
            return f"{{{self.p1},{self.p2}}}"
        return f"{{{self.p1},{self.p2},{self.p3}}}"


@dataclass(frozen=True)
class ToroidalParams:
    """Parameters (s, t) of a toroidal map {3,6}_(s,t) or {6,3}_(s,t)."""

    s: int
    t: int
    family: str = "3,6"  # "3,6" or "6,3"

    def __post_init__(self):
        if self.family not in ("3,6", "6,3"):
            raise ValueError(f"family must be '3,6' or '6,3', got {self.family!r}")
        if self.s < 0 or self.t < 0:
            raise ValueError("parameters must be nonnegative")
        if self.v <= 1:
            raise ValueError(f"degenerate parameters ({self.s},{self.t}): s^2+st+t^2 must exceed 1")

    @property
    def v(self) -> int:
        return self.s * self.s + self.s * self.t + self.t * self.t

    @property
    def is_regular_form(self) -> bool:
        return self.s * self.t * (self.s - self.t) == 0

    def normalized(self) -> "ToroidalParams":
        """(0,s) -> (s,0) and (s,t) as given otherwise."""
        if self.s == 0:
            return ToroidalParams(self.t, 0, self.family)
        return self

    def __str__(self) -> str:
        return f"{{{self.family}}}_({self.s},{self.t})"


class ChiralFormUnsupported(ValueError):
    """Raised for (s,t) with s*t*(s-t) != 0: no presentation route exists here."""


RHO_NAMES = ("r0", "r1", "r2", "r3")

# Frozen translation words, in rank-3 generator indices (0, 1, 2) of a
# {3,6} map group <r0, r1, r2>.  T(s,0) = X_A^s, T(s,s) = X_B^s with
#   X_A = (r0 r1 r2)^2          (translation by one lattice unit)
#   X_B = (r0 r1 r2 r1 r2)^2    (translation by a (1,1)-type vector)
_TRANSLATION_S0: Word = gen_word(0, 1, 2) * 2
_TRANSLATION_SS: Word = gen_word(0, 1, 2, 1, 2) * 2


def coxeter_string(p1: int, p2: int, p3: int) -> Presentation:
    """The string Coxeter group [p1, p2, p3] on involutions r0..r3."""
    SchlafliType(p1, p2, p3)
    rels = [
        gen_word(0) * 2, gen_word(1) * 2, gen_word(2) * 2, gen_word(3) * 2,
        gen_word(0, 1) * p1,
        gen_word(1, 2) * p2,
        gen_word(2, 3) * p3,
        gen_word(0, 2) * 2,
        gen_word(0, 3) * 2,
        gen_word(1, 3) * 2,
    ]
    return Presentation(RHO_NAMES, tuple(rels))


def coxeter_string_rank3(p1: int, p2: int) -> Presentation:
    """The string Coxeter group [p1, p2] on involutions r0..r2."""
    SchlafliType(p1, p2)
    rels = [
        gen_word(0) * 2, gen_word(1) * 2, gen_word(2) * 2,
        gen_word(0, 1) * p1,
        gen_word(1, 2) * p2,
        gen_word(0, 2) * 2,
    ]
    return Presentation(RHO_NAMES[:3], tuple(rels))


def _substitute(word: Word, mapping: dict[int, int]) -> Word:
    """Rename generators of a word; mapping is on generator indices."""
    return tuple(2 * mapping[x // 2] + (x % 2) for x in word)


def toroidal_relator(params: ToroidalParams) -> Word:
    """The extra relator T(s,t) defining the regular toroidal map.

    For {3,6}_(s,t) the word is over generator indices (0, 1, 2); for the
    dual family {6,3}_(s,t) the generator roles 0 and 2 are exchanged.
    Only regular-form parameters ((s,0) or (s,s)) are supported.
    """
    params = params.normalized()
    if not params.is_regular_form:
        raise ChiralFormUnsupported(
            f"({params.s},{params.t}) is chiral-form; only (s,0) and (s,s) have"
            " a presentation here")
    if params.t == 0:
        base = _TRANSLATION_S0 * params.s
    else:
        base = _TRANSLATION_SS * params.s
    if params.family == "6,3":
        base = _substitute(base, {0: 2, 1: 1, 2: 0})
    return base


def toroidal_map(params: ToroidalParams) -> Presentation:
    """Presentation of the full (reflection) group of the toroidal map."""
    params = params.normalized()
    p1, p2 = (3, 6) if params.family == "3,6" else (6, 3)
    base = coxeter_string_rank3(p1, p2)
    return Presentation(base.names, base.relators + (toroidal_relator(params),))


def universal_locally_toroidal(s: ToroidalParams, t: ToroidalParams) -> Presentation:
    """Presentation of Aut of the universal polytope {{3,6}_s, {6,3}_t}.

    The facet relator T(s) lives in <r0, r1, r2>; the vertex-figure relator
    is the dual word of T(t) with roles r0<->r3 and r1<->r2 exchanged.
    """
    s = ToroidalParams(s.s, s.t, "3,6").normalized()
    t = ToroidalParams(t.s, t.t, "3,6").normalized()
    base = coxeter_string(3, 6, 3)
    facet = toroidal_relator(s)
    vertex_figure = _substitute(toroidal_relator(t), {0: 3, 1: 2, 2: 1})
    return Presentation(base.names, base.relators + (facet, vertex_figure))


def simplex_toroidal_1296() -> Presentation:
    """Presentation of Aut of {{3,3}, {3,6}_(3,0)} (order 1296)."""
    base = coxeter_string(3, 3, 6)
    vertex_figure = _substitute(
        toroidal_relator(ToroidalParams(3, 0)), {0: 1, 1: 2, 2: 3})
    return Presentation(base.names, base.relators + (vertex_figure,))


#: Table rows (s, t) of the known finite universal polytopes {{3,6}_s, {6,3}_t},
#: in publication order.
TABLE1_ROWS: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = (
    ((1, 1), (1, 1)),
    ((1, 1), (3, 0)),
    ((2, 0), (2, 0)),
    ((2, 0), (2, 2)),
    ((3, 0), (3, 0)),
    ((3, 0), (2, 2)),
    ((3, 0), (4, 0)),
)
