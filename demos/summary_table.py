"""Reproduce the summary table of medial layer graphs of the known finite
universal polytopes of type {{3,6}_(s), {6,3}_(t)}.

Each row names a pair of toroidal parameters (facet and vertex-figure),
builds the universal polytope from its presentation (coset enumeration
over the stabilizer of a 1-face), extracts the trivalent medial layer
graph on its 1- and 2-faces, and classifies its symmetry:

    symmetric graphs get a label t^+ / t^- (arc-transitivity + sign),
    semisymmetric graphs a per-type pair ss-(t1, t2).

The first six rows take a few seconds together.  The last row (N = 40320)
is built but its classification exceeds the default search cap, so it
reports "undecided" — matching the known computational limit for that
instance.

Run from the repository root:  python3 demos/summary_table.py
"""

import time

from medial.catalog import TABLE1_ROWS, ToroidalParams, universal_locally_toroidal
from medial.graphsym import classify
from medial.polytope import handle_from_presentation, medial_layer_graph


def main():
    print(f"{'facet':>8} {'vertex fig':>10} {'group':>8} {'N':>6}"
          f" {'verdict':>10} {'seconds':>8}")
    for s, t in TABLE1_ROWS:
        start = time.monotonic()
        pres = universal_locally_toroidal(ToroidalParams(*s),
                                          ToroidalParams(*t))
        handle = handle_from_presentation(pres, f"{s}-{t}")
        graph = medial_layer_graph(handle)
        verdict = classify(graph)
        print(f"{str(s):>8} {str(t):>10} {handle.group_order:>8}"
              f" {graph.n:>6} {verdict.label():>10}"
              f" {time.monotonic() - start:>8.1f}")


if __name__ == "__main__":
    main()
