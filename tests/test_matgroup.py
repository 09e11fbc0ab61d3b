"""The frozen generator triple and the matrix-group closures: the defining
relations, proved once over Z[w]; order certificates at four moduli,
regularity verdicts, canonicalization invariance, and the right-regular
action on the elements, checked against the element-at-a-time tuple
arithmetic (``NaiveArithmetic``); the index tables and the reduced triple,
checked against Eisenstein-integer arithmetic reduced by
``reference.reduce``."""

import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from medial import cli
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
from medial.permgroup import Permutation, PermutationGroup, code_cayley_table
from reference import elements, orbit, reduce

RNG = random.Random(11)

CHIRAL_M = parse_eisenstein("1-w") * parse_eisenstein("1+3w")


#: The defining relation words over generator indices 0..2.
RELATION_WORDS = (
    ("sigma1^3", (0, 0, 0)),
    ("sigma2^6", (1, 1, 1, 1, 1, 1)),
    ("sigma3^3", (2, 2, 2)),
    ("(sigma1 sigma2)^2", (0, 1, 0, 1)),
    ("(sigma2 sigma3)^2", (1, 2, 1, 2)),
    ("(sigma1 sigma2 sigma3)^2", (0, 1, 2, 0, 1, 2)),
)

#: The reflection word r = star sigma2 sigma1^2 sigma2 over generator
#: indices 0..2, and R, with sigma2 sigma1^2 sigma2 = -conj(R) over Z[w].
REFLECTION_WORD = (1, 0, 0, 1)
REFLECTION_R = (EisensteinInt(0, 2), EisensteinInt(1, 2),
                EisensteinInt(-1, -2), EisensteinInt(-2, -2))

IDENTITY = (EisensteinInt(1, 0), EisensteinInt(0, 0),
            EisensteinInt(0, 0), EisensteinInt(1, 0))


def integral_matmul(x, y):
    """The 2x2 product of entry tuples over Z[w]."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def subgroup_table(group, gens):
    """The Cayley table of the subgroup of ``group`` generated by the coded
    elements ``gens``, on those generators, and the row of its identity."""
    columns = np.array(gens)[:, None]
    codes, right = code_cayley_table(
        group.identity, lambda x: group._product(x, columns))
    return right, int(np.searchsorted(codes, group.identity))


def reduced_triple(m):
    """SIGMA_TRIPLE reduced mod m entry by entry by ``reference.reduce``."""
    return [tuple(reduce(z, m) for z in mat) for mat in SIGMA_TRIPLE]


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
        index = {x: i for i, x in enumerate(elements(ring))}
        # Place values of e0..e3 in a packed code; star is bit 0.
        self.size = len(index)
        self.places = [2 * self.size ** k for k in (3, 2, 1, 0)]
        self.mul, self.add, self.conj = (t.tolist() for t in arith.arrays)
        self.scalar_rows = [self.mul[index[reduce(a, ring.modulus)]]
                            for a in group.scalars.members]
        one, zero = (index[reduce(EisensteinInt(a, 0), ring.modulus)]
                     for a in (1, 0))
        self.identity = self.canonical((one, zero, zero, one, 0))
        self.sigmas = [self.canonical(tuple(index[z] for z in s) + (0,))
                       for s in reduced_triple(ring.modulus)]
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


def test_frozen_triple_is_proved_over_the_eisenstein_integers():
    # Each relation word is exactly the identity matrix over Z[w], and the
    # determinants are the units 1, -1 and 1.  So the triple reduced mod
    # any m satisfies the relations modulo any scalar group, with
    # invertible matrices: find_generators only reduces it.
    for name, word in RELATION_WORDS:
        acc = IDENTITY
        for i in word:
            acc = integral_matmul(acc, SIGMA_TRIPLE[i])
        assert acc == IDENTITY, name
    assert [a * d - b * c for a, b, c, d in SIGMA_TRIPLE] == \
        [EisensteinInt(1, 0), EisensteinInt(-1, 0), EisensteinInt(1, 0)]


def test_reflection_word_is_proved_over_the_eisenstein_integers():
    # r = (R, star) up to -1.  R conj(R) = I makes r an involution, and
    # (R conj(s)) (conj(R) s) = I makes r s one, so r s r = s^-1, for s in
    # sigma1, sigma2 and sigma2 sigma3: recover_reflection_codes needs no
    # search, modulo any m and any conjugation-stable scalar group.
    def conj(x):
        return tuple(z.conjugate() for z in x)

    s1, s2, s3 = SIGMA_TRIPLE
    word = IDENTITY
    for i in REFLECTION_WORD:
        word = integral_matmul(word, SIGMA_TRIPLE[i])
    assert word == tuple(-z for z in conj(REFLECTION_R))
    assert integral_matmul(REFLECTION_R, conj(REFLECTION_R)) == IDENTITY
    for s in (s1, s2, integral_matmul(s2, s3)):
        assert integral_matmul(integral_matmul(REFLECTION_R, conj(s)),
                               integral_matmul(conj(REFLECTION_R), s)) \
            == IDENTITY


@pytest.mark.parametrize("m", ["3", "2-2w", "(1-w)*(1+3w)", "3-3w", "30"])
def test_generators_match_reduced_eisenstein_arithmetic(m):
    arith = _Arith(ResidueRing(parse_eisenstein_product(m)))
    gens = find_generators(arith)
    classes = elements(arith.ring)
    assert [tuple(classes[i] for i in row) for row in gens] == \
        reduced_triple(arith.ring.modulus)
    for name, word in RELATION_WORDS:
        acc = arith.identity
        for i in word:
            acc = arith.matmul(acc, gens[i])
        assert acc.tolist() == arith.identity.tolist(), name


@pytest.mark.parametrize("m", ["3", "2-2w", "(1-w)*(1+3w)", "3-3w"])
def test_index_tables_match_reduced_eisenstein_arithmetic(m):
    arith = _Arith(ResidueRing(parse_eisenstein_product(m)))
    ring = arith.ring
    elems = elements(ring)
    mul, add, conj = (t.tolist() for t in arith.arrays)
    m = ring.modulus
    assert [[elems[k] for k in row] for row in mul] == \
        [[reduce(x * y, m) for y in elems] for x in elems]
    assert [[elems[k] for k in row] for row in add] == \
        [[reduce(x + y, m) for y in elems] for x in elems]
    assert [elems[k] for k in conj] == \
        [reduce(x.conjugate(), m) for x in elems]
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
    columns = np.array(g.sigma_codes)[:, None]
    rotations, _ = code_cayley_table(g.identity,
                                     lambda x: g._product(x, columns))
    assert len(rotations) * 2 == g.order
    assert (rotations & 1 == 0).all()


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
        with pytest.raises(ConfigurationError, match="need norm = 3k"):
            generate_group(parse_eisenstein(bad))


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


def test_canonicalization_scalar_invariance():
    m = parse_eisenstein("3-3w")
    ring = ResidueRing(m)
    A = ScalarGroup(ring, [parse_eisenstein("w")])
    g = generate_group(m, A)
    naive = NaiveArithmetic(g)
    classes = elements(ring)
    index = {x: i for i, x in enumerate(classes)}
    for _ in range(50):
        code = int(RNG.choice(g.codes))
        element = naive.decode(code)
        a = RNG.choice(A.members)
        scaled = tuple(index[reduce(a * classes[i], m)]
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
                 for s in map(naive.decode, g.generator_codes)]
        assert g.right.T.tolist() == [p.images.tolist() for p in perms]
        assert PermutationGroup(perms, degree=g.order).order() == g.order


@pytest.mark.parametrize("m", [parse_eisenstein("3"),
                               parse_eisenstein("2-2w"), CHIRAL_M])
def test_closure_matches_element_at_a_time_orbit(m):
    g = generate_group(m)
    naive = NaiveArithmetic(g)
    assert naive.decode(g.identity) == naive.identity
    assert [naive.decode(s) for s in g.sigma_codes] == naive.sigmas
    # A regular group is closed over its reflections, which generate the
    # sigmas and the conjugation: the same group as the oracle's.
    assert g.generator_codes == (recover_reflection_codes(g)
                                 or g.sigma_codes)
    oracle = orbit([naive.identity], naive.generators, naive.naive_multiply)
    assert naive.elements() == sorted(oracle)
    with pytest.raises(OverflowResult):
        generate_group(m, max_elements=g.order - 1)
    assert generate_group(m, max_elements=g.order).order == g.order


def test_overflow_cap():
    with pytest.raises(OverflowResult):
        generate_group(parse_eisenstein("3-3w"), max_elements=100)


@pytest.mark.parametrize("key,order,generators,singles", [
    ("eisenstein:m=3:A=", 324, 4, 8),
    ("eisenstein:m=(1-w)*(1+3w):A=", 2016, 3, 0)])
def test_build_multiplies_each_element_once(monkeypatch, tmp_path, key,
                                            order, generators, singles):
    # The closure keeps its products as the Cayley table, so a build takes
    # |G| products per generator, besides the few single products that
    # give a regular group's reflections; the handle multiplies nothing.
    counted = []
    product = MatrixGroup._product

    def counting(self, x, y):
        counted.append(np.broadcast(np.asarray(x), np.asarray(y)).size)
        return product(self, x, y)

    monkeypatch.setattr(MatrixGroup, "_product", counting)
    out = tmp_path / "build.txt"
    assert cli.main(["build", key, "--output", str(out)]) == 0
    assert f"group_order: {order}\n" in out.read_text()
    assert sum(counted) <= order * generators + singles


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
