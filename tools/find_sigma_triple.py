"""One-off search that determined the frozen 2x2 generator triple over Z[w].

By Cayley-Hamilton, a 2x2 matrix M with trace t and determinant d satisfies
M^2 = t*M - d*I.  Hence M has projective order 2 iff t = 0, order 3 iff
t^2 = d, and order 6 iff t^2 = 3d.  Requiring the rotation relations
  sigma1^3 = sigma2^6 = sigma3^3 = (sigma1 sigma2)^2 = (sigma2 sigma3)^2
           = (sigma1 sigma2 sigma3)^2 = 1   (all modulo the scalars +-1)
to hold for the integral matrices themselves pins the determinants:
(XY)^2 = -det(XY)*I for traceless XY, so det(sigma1)*det(sigma2) = -1 with
both dets units, and similarly for the other products; together with the
square/3-square trace conditions this forces
  det sigma1 = det sigma3 = 1,  trace = +-1          (projective order 3)
  det sigma2 = -1,              trace = +-(1+2w)     (projective order 6)
Each generator may be flipped in sign for free, so we normalize the traces
to +1 resp. 1+2w and search all entry values a + b*w with |a|, |b| <= 3.
Candidates passing the traceless-product filters are validated by the
orders of the generated linear projective (mod +-1) groups at three moduli:
  m = 3 -> 162,   m = 2-2w -> 360,   m = 3-3w -> 4374.
The full symmetry groups of the package double these (324, 720, 8748) by
adjoining the conjugation-linear element; medial.matgroup performs that
extension, and the test suite proves the relations over Z[w].  Generators
may be flipped in sign freely, so a hit here may differ from the frozen
SIGMA_TRIPLE by signs on sigma1 and sigma3; both conventions generate the
same groups.

Run from the repository root:  python3 tools/find_sigma_triple.py
"""

import itertools
import sys

sys.path.insert(0, "src")

from medial.eisenstein import ONE, EisensteinInt, ResidueRing

BOUND = 3
ZERO = EisensteinInt(0, 0)
MINUS_ONE = EisensteinInt(-1, 0)
TRACE6 = EisensteinInt(1, 2)  # 1 + 2w, a square root of -3


def mat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def trace(x):
    return x[0] + x[3]


def det(x):
    return x[0] * x[3] - x[1] * x[2]


def in_box(z):
    return abs(z.a) <= BOUND and abs(z.b) <= BOUND


def matrices_with(tr, dt):
    """All 2x2 matrices over the entry box with the given trace and det."""
    box = [EisensteinInt(a, b) for a in range(-BOUND, BOUND + 1)
           for b in range(-BOUND, BOUND + 1)]
    out = []
    for p in box:
        s = tr - p
        if not in_box(s):
            continue
        target = p * s - dt  # q * r
        for q in box:
            if q == ZERO:
                if target == ZERO:
                    out.extend((p, q, r, s) for r in box)
                continue
            # need r = target / q exactly
            num_norm = target.norm()
            if num_norm % q.norm():
                continue
            prod = target * q.conjugate()
            n = q.norm()
            if prod.a % n or prod.b % n:
                continue
            r = EisensteinInt(prod.a // n, prod.b // n)
            if in_box(r):
                out.append((p, q, r, s))
    return out


def projective_group_order(ring, gens, cap):
    def reduce_mat(x):
        return tuple(ring.reduce(e) for e in x)

    def canonical(x):
        neg = tuple(ring.reduce(-e) for e in x)
        key = tuple((e.a, e.b) for e in x)
        nkey = tuple((e.a, e.b) for e in neg)
        return x if key <= nkey else neg

    gens = [canonical(reduce_mat(g)) for g in gens]
    ident = canonical(reduce_mat((ONE, ZERO, ZERO, ONE)))
    seen = {ident}
    frontier = [ident]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = canonical(reduce_mat(mat_mul(x, g)))
            if y not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(y)
                frontier.append(y)
    return len(seen)


def main():
    s3_pool = matrices_with(ONE, ONE)           # projective order 3
    s6_pool = matrices_with(TRACE6, MINUS_ONE)  # projective order 6
    print(f"order-3 pool: {len(s3_pool)}, order-6 pool: {len(s6_pool)}")

    ring3 = ResidueRing(EisensteinInt(3, 0))
    ring22 = ResidueRing(EisensteinInt(2, -2))

    checked = 0
    for s1, s2 in itertools.product(s3_pool, s6_pool):
        if trace(mat_mul(s1, s2)):
            continue
        s12 = mat_mul(s1, s2)
        for s3 in s3_pool:
            if trace(mat_mul(s2, s3)):
                continue
            if trace(mat_mul(s12, s3)):
                continue
            checked += 1
            if projective_group_order(ring3, [s1, s2, s3], 163) != 162:
                continue
            if projective_group_order(ring22, [s1, s2, s3], 361) != 360:
                continue
            print(f"FOUND (after {checked} trace-filtered triples):")
            for name, s in (("sigma1", s1), ("sigma2", s2), ("sigma3", s3)):
                print(f"  {name} = {s}")
            ring33 = ResidueRing(EisensteinInt(3, -3))
            print("  order mod 3-3w:",
                  projective_group_order(ring33, [s1, s2, s3], 8749))
            return
    print(f"no candidate found ({checked} trace-filtered triples)")


if __name__ == "__main__":
    main()
