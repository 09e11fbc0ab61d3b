"""The fixed inputs of the benchmark and the facts each is checked against.

Every expected value here comes from a source made apart from the program:

* universal rows: N and the verdict from Table 1 of the paper (rows 1-7,
  with row 7 unclassified);
* Eisenstein inputs: N from the closed-form vertex count, evaluated by
  ``checks.eisenstein_vertex_count`` from the prime factors listed here;
* every regular input: |G| = 6N, since each of the N/2 1-faces of a
  {3,6,3} polytope has a stabilizer <rho0, rho2, rho3> of order 2*6 = 12;
  every chiral input: |G| = 3N, the rotation subgroup has index 2.

The keys are fixed; no input depends on a random seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    key: str
    # Table 1 value for universal rows; None where N comes from the formula.
    table_n: int | None = None
    # Expected label, where an independent source gives one.
    verdict: str | None = None
    # Eisenstein inputs: the modulus a+bw as (a, b) and its prime factors
    # as ((a, b), multiplicity), units dropped.
    modulus: tuple[int, int] | None = None
    primes: tuple[tuple[tuple[int, int], int], ...] = ()
    # The 54-vertex graph the paper identifies with the Gray graph.
    gray: bool = False

    @property
    def is_eisenstein(self) -> bool:
        return self.modulus is not None


def universal(s, t, n, verdict=None, gray=False) -> Instance:
    return Instance(f"universal:3,6:{s[0]},{s[1]}:{t[0]},{t[1]}",
                    table_n=n, verdict=verdict, gray=gray)


def eisenstein(expr, modulus, primes, verdict=None, gray=False) -> Instance:
    return Instance(f"eisenstein:m={expr}:A=", modulus=modulus,
                    primes=tuple(primes), verdict=verdict, gray=gray)


LAMBDA = (1, -1)  # 1 - w, the prime of norm 3

ROW1 = universal((1, 1), (1, 1), 18, "3+")
ROW2 = universal((1, 1), (3, 0), 54, "ss-(4,3)", gray=True)
ROW3 = universal((2, 0), (2, 0), 40, "3+")
ROW4 = universal((2, 0), (2, 2), 120, "ss-(3,3)")
ROW5 = universal((3, 0), (3, 0), 486, "3+")
ROW6 = universal((3, 0), (2, 2), 6912, "ss-(3,3)")
ROW7 = universal((3, 0), (4, 0), 40320)

# The Gray graph is semisymmetric (Bouwer, 1968); which type is 4-arc
# transitive is not fixed by that source, so only the class is pinned.
M3 = eisenstein("3", (3, 0), [(LAMBDA, 2)], verdict="ss", gray=True)
M2_2W = eisenstein("2-2w", (2, -2), [((2, 0), 1), (LAMBDA, 1)])
CHIRAL_672 = eisenstein("(1-w)*(1+3w)", (4, 5), [(LAMBDA, 1), ((1, 3), 1)])
M3_3W = eisenstein("3-3w", (3, -3), [(LAMBDA, 3)])
M6 = eisenstein("6", (6, 0), [((2, 0), 1), (LAMBDA, 2)])
M4_4W = eisenstein("4-4w", (4, -4), [((2, 0), 2), (LAMBDA, 1)])
CHIRAL_4368 = eisenstein("(1-w)*(1+4w)", (5, 7), [(LAMBDA, 1), ((1, 4), 1)])

UNIVERSAL_SMALL = (ROW1, ROW2, ROW3, ROW4, ROW5)
