"""A chiral source polytope and its semisymmetric medial layer graph.

The Eisenstein modulus m = (1-w)(1+3w) (norm 21) is divisible by the
ramified prime 1-w but is not real up to units, so complex conjugation
does not normalize the reduced matrix group: the construction yields a
*chiral* polytope — maximal rotation symmetry, no reflections.  Its
rotation group stays linear (no conjugation extension) and has order 2016.

The medial layer graph on its 672 vertices is still edge- but not
vertex-transitive.  Because no symmetry can exchange the two layers, the
graph is semisymmetric, here of type (2, 2).

Run from the repository root:  python3 demos/chiral_instance.py
"""

from medial.eisenstein import format_eisenstein, parse_eisenstein
from medial.graphsym import automorphism_group, classify
from medial.matgroup import generate_group
from medial.polytope import (
    graph_automorphisms,
    handle_from_matrix_group,
    medial_layer_graph,
)


def main():
    m = parse_eisenstein("1-w") * parse_eisenstein("1+3w")
    print(f"modulus m = {format_eisenstein(m)} (norm {m.norm()})")

    mg = generate_group(m)
    print(f"matrix group: order {mg.order}, kind = {mg.kind}")

    # The handle is built only once (R') and (C') hold for the rotation
    # generators and no outer automorphism realizes the reflection twist:
    # the polytope is chiral, not directly regular.
    handle = handle_from_matrix_group(mg)
    print(f"polytope type {handle.schlafli}; rotation group order"
          f" {handle.group_order}; (R') and (C') hold and the rotation group"
          " is not directly regular: no reflection exists")

    # The rotation group acts on the graph; the Aut search starts from its
    # generators and looks only for the automorphisms outside it.
    graph = medial_layer_graph(handle)
    aut = automorphism_group(graph, known=graph_automorphisms(handle))
    verdict = classify(graph, aut)
    print(f"medial layer graph: N = {graph.n}, |Aut| = {aut.order},"
          f" vertex orbits = {len(aut.vertex_orbits)}")
    print(f"index |Aut : G| = {aut.order // handle.group_order}: every"
          " automorphism comes from the rotation group")
    print(f"verdict: {verdict.verdict}, label {verdict.label()}")


if __name__ == "__main__":
    main()
