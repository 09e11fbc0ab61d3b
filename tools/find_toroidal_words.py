"""One-off search that determined the frozen toroidal translation words.

For each family ((s,0) and (s,s)) we look for a short word X over the
rank-3 generators such that adding X^s to [3,6] yields a quotient of order
12*v (v = s^2 + s*t + t^2) for three parameter values.  Candidates of
length <= 8 settle the (s,0) family; the (s,s) family needs the product of
two unit translations in adjacent lattice directions, built algebraically.

Run from the repository root:  python3 tools/find_toroidal_words.py
"""

import itertools
import sys

sys.path.insert(0, "src")

from medial.fpgroup import Presentation, coset_enumeration, gen_word
from medial.permgroup import OverflowResult

NAMES = ("r0", "r1", "r2")


def rank3_pres(extra):
    rels = [gen_word(0) * 2, gen_word(1) * 2, gen_word(2) * 2,
            gen_word(0, 1) * 3, gen_word(1, 2) * 6, gen_word(0, 2) * 2]
    return Presentation(NAMES, tuple(rels) + tuple(extra))


def accepts(X, cases):
    """True when X^s gives order ``want`` for every case; an enumeration
    past 16 * want cosets rejects X."""
    for s, want in cases:
        try:
            t = coset_enumeration(rank3_pres([X * s]), [],
                                  max_cosets=16 * want)
        except OverflowResult:
            return False
        if t.num_cosets != want:
            return False
    return True


def reduce_involutory(w):
    out = []
    for x in w:
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def main():
    cases_s0 = [(2, 48), (3, 108), (4, 192)]
    cases_ss = [(1, 36), (2, 144), (3, 324)]

    print("searching (s,0) words of length <= 8 ...")
    for length in range(2, 9):
        hits = [X for X in itertools.product((0, 2, 4), repeat=length)
                if accepts(X, cases_s0)]
        if hits:
            print("  length", length, "->", hits[0])
            break

    print("testing algebraic (s,s) candidates ...")
    t_unit = gen_word(0, 1, 2) * 2
    s2, s2i = gen_word(1, 2), (4, 2)
    for name, X in [
        ("t * s2^-1 t s2", reduce_involutory(t_unit + s2i + t_unit + s2)),
        ("t * s2 t s2^-1", reduce_involutory(t_unit + s2 + t_unit + s2i)),
    ]:
        print("  ", name, X, "accepted" if accepts(X, cases_ss) else "rejected")


if __name__ == "__main__":
    main()
