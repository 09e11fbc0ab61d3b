"""The frozen generator triple and the matrix-group closures: defining
relations, order certificates at four moduli, regularity verdicts,
canonicalization invariance, and the right-regular action on the
elements, checked against the element-at-a-time tuple arithmetic
(``NaiveArithmetic``); the index tables and the relation check, checked
against Eisenstein-integer arithmetic reduced by ``reference.reduce``."""

import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from medial.cli import parse_eisenstein_product
from medial.eisenstein import (
    EisensteinInt,
    ResidueRing,
    ScalarGroup,
    format_eisenstein,
    parse_eisenstein,
    vertex_count,
)
from medial.matgroup import (
    RELATION_WORDS,
    SIGMA_TRIPLE,
    ConfigurationError,
    MatrixGroup,
    OverflowResult,
    _Arith,
    find_generators,
    generate_group,
    recover_reflection_codes,
    regularity_test,
)
from medial.permgroup import Permutation, PermutationGroup, code_orbit
from reference import orbit, reduce

RNG = random.Random(11)

CHIRAL_M = parse_eisenstein("1-w") * parse_eisenstein("1+3w")


def reference_matmul(ring, x, y):
    """The 2x2 product of entry tuples, reduced entry by entry."""
    a, b, c, d = x
    e, f, g, h = y
    return tuple(reduce(z, ring.modulus)
                 for z in (a * e + b * g, a * f + b * h,
                           c * e + d * g, c * f + d * h))


def reference_relations(ring, triple=SIGMA_TRIPLE):
    """The triple reduced mod the ring's modulus, and each relation word
    evaluated on it with Eisenstein-integer arithmetic and
    ``reference.reduce``: (name, entries, whether the entries are
    +-identity)."""
    m = ring.modulus
    gens = [tuple(reduce(z, m) for z in mat) for mat in triple]
    zero, one = (reduce(EisensteinInt(a, 0), m) for a in (0, 1))
    identity = (one, zero, zero, one)
    negated = tuple(reduce(-z, m) for z in identity)
    words = []
    for name, word in RELATION_WORDS:
        acc = identity
        for i in word:
            acc = reference_matmul(ring, acc, gens[i])
        words.append((name, acc, acc in (identity, negated)))
    return gens, words


class NaiveArithmetic:
    """The element-at-a-time arithmetic of a matrix group, the reference
    for its int64 codes.  An element (M, star) is the tuple
    (e0, e1, e2, e3, star) of the ring positions of M's entries and the
    conjugation flag, in its canonical form: the least tuple over the
    scalar multiples of M.  ``identity``, ``sigmas`` and ``generators``
    come from the frozen triple reduced mod the group's modulus."""

    def __init__(self, group):
        self.group = group
        arith = group.arith
        ring = arith.ring
        index = {x: i for i, x in enumerate(ring.elements)}
        # Place values of e0..e3 in a packed code; star is bit 0.
        self.size = len(ring.elements)
        self.places = [2 * self.size ** k for k in (3, 2, 1, 0)]
        self.mul, self.add, self.conj = (t.tolist() for t in arith.arrays)
        self.scalar_rows = [self.mul[index[reduce(a, ring.modulus)]]
                            for a in group.scalars.members]
        one, zero = (index[reduce(EisensteinInt(a, 0), ring.modulus)]
                     for a in (1, 0))
        self.identity = self.canonical((one, zero, zero, one, 0))
        self.sigmas = [self.canonical(tuple(index[z] for z in s) + (0,))
                       for s in reference_relations(ring)[0]]
        self.generators = list(self.sigmas)
        if group.kind == "regular":
            self.generators.append(self.canonical((one, zero, zero, one, 1)))

    def canonical(self, code):
        a, b, c, d, star = code
        return min((m[a], m[b], m[c], m[d], star) for m in self.scalar_rows)

    def naive_multiply(self, x, y):
        """(M, c) * (N, d) = (M * conj^c(N), c xor d), canonical."""
        mul, add = self.mul, self.add
        a, b, c, d = x[:4]
        e, f, g, h = [self.conj[i] for i in y[:4]] if x[4] else y[:4]
        return self.canonical((
            add[mul[a][e]][mul[b][g]], add[mul[a][f]][mul[b][h]],
            add[mul[c][e]][mul[d][g]], add[mul[c][f]][mul[d][h]],
            x[4] ^ y[4]))

    def decode(self, code):
        """The tuple of a packed code."""
        code = int(code)
        return tuple(code // p % self.size for p in self.places) \
            + (code & 1,)

    def encode(self, element):
        return sum(e * p for e, p in zip(element, self.places)) + element[4]

    def elements(self):
        return [self.decode(c) for c in self.group.codes.tolist()]


def test_relations_hold_integrally():
    # Large modulus: the relations then certify the integral statement for
    # every entry of every relation word (entries are tiny by construction).
    find_generators(_Arith(ResidueRing(parse_eisenstein("30"))))


@pytest.mark.parametrize("m", ["3", "2-2w", "(1-w)*(1+3w)", "3-3w", "30"])
def test_generators_match_reduced_eisenstein_arithmetic(m):
    arith = _Arith(ResidueRing(parse_eisenstein_product(m)))
    gens = find_generators(arith)
    elems = arith.ring.elements
    reference, words = reference_relations(arith.ring)
    assert [tuple(elems[i] for i in row) for row in gens] == reference
    for (name, word), (_, entries, verdict) in zip(RELATION_WORDS, words):
        acc = arith.identity
        for i in word:
            acc = arith.matmul(acc, gens[i])
        assert tuple(elems[i] for i in acc) == entries
        assert verdict, name


@pytest.mark.parametrize("m", ["3", "2-2w", "(1-w)*(1+3w)", "3-3w"])
def test_index_tables_match_reduced_eisenstein_arithmetic(m):
    arith = _Arith(ResidueRing(parse_eisenstein_product(m)))
    ring = arith.ring
    elems = ring.elements
    mul, add, conj = (t.tolist() for t in arith.arrays)
    m = ring.modulus
    assert [[elems[k] for k in row] for row in mul] == \
        [[reduce(x * y, m) for y in elems] for x in elems]
    assert [[elems[k] for k in row] for row in add] == \
        [[reduce(x + y, m) for y in elems] for x in elems]
    assert [elems[k] for k in conj] == \
        [reduce(x.conjugate(), m) for x in elems]
    assert [elems[k] for k in arith.neg] == [reduce(-x, m) for x in elems]
    zero, one = (reduce(EisensteinInt(a, 0), m) for a in (0, 1))
    assert [elems[k] for k in arith.identity] == [one, zero, zero, one]


@pytest.mark.slow
def test_sigma_triple_search_finds_the_frozen_triple():
    # The search script, about 2.5 s; its hit may flip the signs of sigma1
    # and sigma3, as its docstring allows.
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "tools/find_sigma_triple.py"],
                         cwd=root, capture_output=True, text=True,
                         check=True).stdout
    hit = {name: tuple(EisensteinInt(int(a), int(b)) for a, b in re.findall(
        r"EisensteinInt\((-?\d+), (-?\d+)\)", entries))
        for name, entries in re.findall(r"(sigma\d) = (.*)", out)}
    s1, s2, s3 = SIGMA_TRIPLE
    assert hit["sigma1"] in (s1, tuple(-z for z in s1))
    assert hit["sigma2"] == s2
    assert hit["sigma3"] in (s3, tuple(-z for z in s3))
    assert "order mod 3-3w: 4374" in out


@pytest.mark.parametrize("m,order,kind", [
    ("3", 324, "regular"),
    ("2-2w", 720, "regular"),
    ("3-3w", 8748, "regular"),
])
def test_group_orders_regular(m, order, kind):
    m = parse_eisenstein(m)
    g = generate_group(m)
    assert (g.kind, g.order) == (kind, order)


def test_group_order_chiral():
    g = generate_group(CHIRAL_M)
    assert (g.kind, g.order) == ("chiral", 2016)


def test_rotation_subgroup_has_index_2_when_regular():
    g = generate_group(parse_eisenstein("3"))
    right = g.cayley_table(g.sigma_codes)
    identity = int(np.searchsorted(g.codes, g.identity))
    rotations = code_orbit([identity], lambda x: right[x].ravel())
    assert len(rotations) * 2 == g.order
    assert (g.codes[rotations] & 1 == 0).all()


@pytest.mark.parametrize("m,verdict", [
    ("3", "regular"),
    ("2-2w", "regular"),
    ("3-3w", "regular"),
])
def test_regularity_verdicts(m, verdict):
    m = parse_eisenstein(m)
    A = ScalarGroup(ResidueRing(m))
    assert regularity_test(m, A) == verdict


def test_chiral_verdict():
    A = ScalarGroup(ResidueRing(CHIRAL_M))
    assert regularity_test(CHIRAL_M, A) == "chiral"


def test_precondition_norm_3k():
    for bad in ("1-w", "2", "5"):  # norms 3, 4, 25
        m = parse_eisenstein(bad)
        with pytest.raises(ConfigurationError, match="need norm = 3k"):
            find_generators(_Arith(ResidueRing(m)))
        with pytest.raises(ConfigurationError, match="need norm = 3k"):
            generate_group(m)


def test_scalars_from_another_ring_are_refused():
    # A's ring must be Z[w]/(m), the same ideal: not the ring of another
    # modulus, nor of the conjugate ideal of the same norm; an associate
    # of m, here 3w for 3, names the same ring.
    for m, other in ((EisensteinInt(3, 0), EisensteinInt(2, -2)),
                     (CHIRAL_M.conjugate(), CHIRAL_M)):
        with pytest.raises(ConfigurationError) as info:
            generate_group(m, ScalarGroup(ResidueRing(other)))
        assert str(info.value) == (f"scalars mod {format_eisenstein(other)}"
                                   f" do not act mod {format_eisenstein(m)}")
    g = generate_group(EisensteinInt(0, 3),
                       ScalarGroup(ResidueRing(EisensteinInt(3, 0))))
    assert (g.kind, g.order) == ("regular", 324)


def test_relation_failure_is_named():
    broken = list(SIGMA_TRIPLE)
    broken[0] = (EisensteinInt(1, 0), EisensteinInt(1, 0),
                 EisensteinInt(0, 0), EisensteinInt(1, 0))
    failed = []
    for m in ("3", "2-2w", "(1-w)*(1+3w)", "3-3w", "30"):
        ring = ResidueRing(parse_eisenstein_product(m))
        # The first relation that fails with reduced Eisenstein
        # arithmetic, with the entries it gives there.
        name, entries, _ = next(w for w in reference_relations(ring, broken)[1]
                                if not w[2])
        a, b, c, d = map(format_eisenstein, entries)
        with pytest.raises(ConfigurationError) as info:
            find_generators(_Arith(ring), broken)
        assert str(info.value) == (f"relation {name} fails mod"
                                   f" {format_eisenstein(ring.modulus)}:"
                                   f" got [[{a}, {b}], [{c}, {d}]]")
        failed.append(name)
    assert failed[0] == "(sigma1 sigma2)^2"


def test_canonicalization_scalar_invariance():
    m = parse_eisenstein("3-3w")
    ring = ResidueRing(m)
    A = ScalarGroup(ring, [parse_eisenstein("w")])
    g = generate_group(m, A)
    naive = NaiveArithmetic(g)
    index = {x: i for i, x in enumerate(ring.elements)}
    for _ in range(50):
        code = int(RNG.choice(g.codes))
        element = naive.decode(code)
        a = RNG.choice(A.members)
        scaled = tuple(index[reduce(a * ring.elements[i], m)]
                       for i in element[:4])
        assert naive.canonical(scaled + (element[4],)) == element
        assert g._pack(np.array(scaled), element[4]) == code


def test_order_matches_vertex_count_formula():
    # |group| = (N/2) * 12 for regular, (N/2) * 6 for chiral.
    for m, stab in ((parse_eisenstein("3"), 12),
                    (parse_eisenstein("2-2w"), 12),
                    (CHIRAL_M, 6)):
        A = ScalarGroup(ResidueRing(m))
        g = generate_group(m, A)
        assert g.order == vertex_count(m, A) // 2 * stab


def test_cayley_action_order_equals_element_count():
    for m in ("3", "2-2w"):
        g = generate_group(parse_eisenstein(m))
        # Right-regular action of the generators on the element list.
        naive = NaiveArithmetic(g)
        elements = naive.elements()
        index = {code: i for i, code in enumerate(elements)}
        perms = [Permutation([index[naive.naive_multiply(x, s)]
                              for x in elements])
                 for s in naive.generators]
        right = g.cayley_table(g.generator_codes)
        assert right.T.tolist() == [p.images.tolist() for p in perms]
        assert PermutationGroup(perms, degree=g.order).order() == g.order


@pytest.mark.parametrize("m", [parse_eisenstein("3"),
                               parse_eisenstein("2-2w"), CHIRAL_M])
def test_closure_matches_element_at_a_time_orbit(m):
    g = generate_group(m)
    naive = NaiveArithmetic(g)
    assert naive.decode(g.identity) == naive.identity
    assert [naive.decode(s) for s in g.generator_codes] == naive.generators
    oracle = orbit([naive.identity], naive.generators, naive.naive_multiply)
    assert naive.elements() == sorted(oracle)
    with pytest.raises(OverflowResult):
        generate_group(m, max_elements=g.order - 1)
    assert generate_group(m, max_elements=g.order).order == g.order


def test_overflow_cap():
    with pytest.raises(OverflowResult):
        generate_group(parse_eisenstein("3-3w"), max_elements=100)


def test_error_inside_the_closure_is_not_an_overflow(monkeypatch):
    # Only the element cap and the deadline overflow; a ValueError raised
    # while multiplying comes out as itself, not as a closure overflow
    # (exit 2 in the CLI).
    def broken(self, x, y):
        raise ValueError("broken product")

    monkeypatch.setattr(MatrixGroup, "_product", broken)
    with pytest.raises(ValueError, match="broken product"):
        generate_group(parse_eisenstein("3"))


def test_reflection_recovery_regular_only():
    g3 = generate_group(parse_eisenstein("3"))
    rhos = recover_reflection_codes(g3)
    assert rhos is not None
    naive = NaiveArithmetic(g3)
    for code in map(naive.decode, rhos):
        assert naive.naive_multiply(code, code) == naive.identity
    assert recover_reflection_codes(generate_group(CHIRAL_M)) is None


def naive_recover_reflection_codes(group):
    """The element-at-a-time reflection search, the reference for
    ``recover_reflection_codes``: the first conjugation-flagged involution
    r inverting sigma1 and sigma2 by conjugation whose four generators are
    involutions, as element tuples."""
    naive = NaiveArithmetic(group)
    s1, s2, s3 = naive.sigmas
    ident, mul, elements = naive.identity, naive.naive_multiply, \
        naive.elements()

    def inv(code):
        return next(y for y in elements if mul(code, y) == ident)

    s1i, s2i = inv(s1), inv(s2)
    for r in elements:
        if (not r[4] or mul(r, r) != ident or mul(mul(r, s1), r) != s1i
                or mul(mul(r, s2), r) != s2i):
            continue
        rhos = (mul(s1, r), r, mul(r, s2), mul(mul(r, s2), s3))
        if all(mul(x, x) == ident for x in rhos):
            return rhos
    return None


@pytest.mark.parametrize("m,scalars", [
    ("3", ()), ("2-2w", ()), ("3-3w", ()), ("3-3w", ("w",)), ("6", ()),
    ("(1-w)*(1+3w)", ()),
])
def test_reflection_recovery_matches_element_search(m, scalars):
    m = parse_eisenstein_product(m)
    A = ScalarGroup(ResidueRing(m), [parse_eisenstein(a) for a in scalars])
    g = generate_group(m, A)
    codes = recover_reflection_codes(g)
    naive = NaiveArithmetic(g)
    assert (None if codes is None else tuple(map(naive.decode, codes))) \
        == naive_recover_reflection_codes(g)


def test_generators_require_unit_determinant():
    arith = _Arith(ResidueRing(parse_eisenstein("3")))
    singular = list(SIGMA_TRIPLE)
    singular[1] = (EisensteinInt(1, 0), EisensteinInt(0, 0),
                   EisensteinInt(0, 0), EisensteinInt(0, 0))
    with pytest.raises(ConfigurationError) as info:
        find_generators(arith, singular)
    assert str(info.value) == "matrix determinant 0 is not a unit mod 3"
    # 1 - w divides 3, so a determinant 1 - w is no unit mod 3 either; the
    # message names its reduced form.
    singular[1] = (EisensteinInt(1, -1), EisensteinInt(0, 0),
                   EisensteinInt(0, 0), EisensteinInt(1, 0))
    det = format_eisenstein(reduce(EisensteinInt(1, -1), arith.ring.modulus))
    with pytest.raises(ConfigurationError) as info:
        find_generators(arith, singular)
    assert str(info.value) == f"matrix determinant {det} is not a unit mod 3"
