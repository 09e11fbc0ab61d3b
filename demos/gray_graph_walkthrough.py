"""The 54-vertex story, end to end.

A single Eisenstein modulus, m = 3, drives the whole pipeline:

1. reduce the frozen 2x2 generator triple mod 3 and close it under
   multiplication (with the conjugation-linear extension) into a group of
   order 324;
2. recover four reflection generators, certify the string C-group
   conditions, and read off an abstract regular 4-polytope of type {3,6,3};
3. take the incidence graph between its 1-faces and 2-faces: a trivalent
   bipartite graph on 54 vertices;
4. recognize that graph: it is isomorphic to the incidence graph of the
   27 columns and 27 cubelets of the 3x3x3 cube — the classical Gray
   graph, the smallest cubic semisymmetric graph;
5. classify it: |Aut| = 1296 = 4 x 324, two vertex orbits, one edge orbit,
   per-type arc-transitivity (4, 3).

Run from the repository root:  python3 demos/gray_graph_walkthrough.py
"""

from medial.eisenstein import parse_eisenstein
from medial.graphsym import automorphism_group, classify, gray_oracle, is_isomorphic
from medial.matgroup import generate_group
from medial.polytope import (
    graph_automorphisms,
    handle_from_matrix_group,
    medial_layer_graph,
)


def main():
    print("== 1. matrix group mod 3 ==")
    mg = generate_group(parse_eisenstein("3"))
    print(f"closure: {mg.order} elements, kind = {mg.kind}")

    print("\n== 2. polytope from reflections ==")
    handle = handle_from_matrix_group(mg)
    print(f"type {handle.schlafli}, symmetry group of order"
          f" {handle.group_order}, fully validated as a string C-group")
    print(f"self-dual: {handle.self_dual}"
          " (a self-dual source could not give a semisymmetric graph)")

    print("\n== 3. medial layer graph ==")
    graph = medial_layer_graph(handle)
    n1 = int((graph.types == 1).sum())
    print(f"N = {graph.n} vertices ({n1} of each type), trivalent,"
          " bipartite, connected")

    print("\n== 4. identification with the cube incidence graph ==")
    oracle = gray_oracle()
    iso, witness = is_isomorphic(graph, oracle)
    print(f"isomorphic to the 27-columns / 27-cubelets graph: {iso}")
    print("witness bijection (first 12 images):",
          " ".join(str(v) for v in witness[:12]), "...")

    print("\n== 5. symmetry classification ==")
    # The Aut search starts from the polytope group's generators and looks
    # only for the automorphisms outside it.
    aut = automorphism_group(graph, known=graph_automorphisms(handle))
    verdict = classify(graph, aut)
    print(f"|Aut| = {aut.order} = {aut.order // handle.group_order}"
          f" x {handle.group_order}")
    print(f"index |Aut : G| = {aut.order // handle.group_order}: the graph"
          " has symmetries that no polytope symmetry induces")
    print(f"vertex orbits: {len(aut.vertex_orbits)}, verdict:"
          f" {verdict.verdict}, label: {verdict.label()}")
    print("edge-transitive but not vertex-transitive: every symmetry"
          " preserves the two layers, yet all 81 edges form one orbit.")


if __name__ == "__main__":
    main()
