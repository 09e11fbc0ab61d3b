"""End-to-end acceptance run: every primary criterion, one pass/fail line
each.  Criteria 2 and 4 include the long-running instances (about 5–7 s
for criterion 2 on 2 cores, most of it the automorphism search and
classification of row 6) and are still run by default; the whole module
is sized for a single laptop session."""

import random

from medial.catalog import (
    ToroidalParams,
    coxeter_string,
    toroidal_map,
    universal_locally_toroidal,
)
from medial.eisenstein import (
    EisensteinInt,
    ResidueRing,
    ScalarGroup,
    parse_eisenstein,
    vertex_count,
)
from medial.fpgroup import Presentation, coset_enumeration, gen_word
from medial.graphsym import (
    automorphism_group,
    base_arc,
    classify,
    gray_oracle,
    is_isomorphic,
    shunts_and_sign,
    t_arc_count,
    validate,
)
from medial.matgroup import generate_group
from medial.permgroup import Permutation, PermutationGroup
from medial.polytope import (
    handle_from_matrix_group,
    handle_from_presentation,
    medial_layer_graph,
)
from reference import (chain, elements, naive_closure, reduce,
                       stabilizer_sequence)

CHIRAL_M = parse_eisenstein("1-w") * parse_eisenstein("1+3w")


def report(number, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def universal_graph(s, t, **kw):
    pres = universal_locally_toroidal(ToroidalParams(*s), ToroidalParams(*t))
    handle = handle_from_presentation(pres, f"{s}-{t}", **kw)
    return handle, medial_layer_graph(handle)


def test_criterion_1_table_rows_1_to_5():
    expected = {
        ((1, 1), (1, 1)): (18, "3+"),
        ((1, 1), (3, 0)): (54, "ss-(4,3)"),
        ((2, 0), (2, 0)): (40, "3+"),
        ((2, 0), (2, 2)): (120, "ss-(3,3)"),
        ((3, 0), (3, 0)): (486, "3+"),
    }
    got = {}
    for (s, t), (n, label) in expected.items():
        _, g = universal_graph(s, t)
        c = classify(g)
        got[(s, t)] = (g.n, c.label())
    report(1, got == expected,
           f"table rows 1-5 (N, verdict) = {sorted(got.values())}")


def test_criterion_2_extended_row_and_undecided_row():
    _, g6 = universal_graph((3, 0), (2, 2))
    c6 = classify(g6)
    _, g7 = universal_graph((3, 0), (4, 0))
    c7 = classify(g7)  # default vertex cap: must come back undecided
    ok = (g6.n, c6.label()) == (6912, "ss-(3,3)") \
        and (g7.n, c7.verdict) == (40320, "undecided")
    report(2, ok, f"row 6 = ({g6.n}, {c6.label()}),"
                  f" row 7 = ({g7.n}, {c7.verdict})")


def test_criterion_3_gray_pipeline():
    handle = handle_from_matrix_group(generate_group(parse_eisenstein("3")))
    graph = medial_layer_graph(handle)
    iso, witness = is_isomorphic(graph, gray_oracle())
    aut = automorphism_group(graph)
    ok = (iso and witness is not None and handle.group_order == 324
          and aut.order == 1296 and aut.order // handle.group_order == 4)
    report(3, ok, f"isomorphic={iso}, |Aut|={aut.order},"
                  f" group order={handle.group_order},"
                  f" index={aut.order // handle.group_order}")


def test_criterion_4_eisenstein_orders():
    results = {}
    for text, group_order, n, aut_order in (
            ("2-2w", 720, 120, 720),
            ("3", 324, 54, 1296),
            ("3-3w", 8748, 1458, 34992)):
        m = parse_eisenstein(text)
        mg = generate_group(m)
        handle = handle_from_matrix_group(mg)
        graph = medial_layer_graph(handle)
        A = ScalarGroup(ResidueRing(m))
        aut = automorphism_group(graph)
        results[text] = (
            mg.order == group_order,
            graph.n == n and vertex_count(m, A) == n,
            aut.order == aut_order,
        )
    ok = all(all(v) for v in results.values())
    report(4, ok, f"orders/N/|Aut| checks per modulus: {results}")


def test_criterion_5_toroidal_oracle():
    ok = True
    for s, t in ((1, 1), (2, 0), (3, 0), (2, 2)):
        params = ToroidalParams(s, t)
        v = s * s + s * t + t * t
        pres = toroidal_map(params)
        full = coset_enumeration(pres)
        counts = [coset_enumeration(pres, [gen_word(i) for i in sub]).num_cosets
                  for sub in ((1, 2), (0, 2), (0, 1))]
        rot = coset_enumeration(pres, [gen_word(0, 1), gen_word(1, 2)])
        ok = ok and full.num_cosets == 12 * v \
            and counts == [v, 3 * v, 2 * v] \
            and full.num_cosets // rot.num_cosets == 6 * v
    report(5, ok, "v, 3v edges, 2v faces, 6v rotations, 12v full"
                  " for (1,1),(2,0),(3,0),(2,2)")


def _symmetric_structure_suite(g, c):
    aut = automorphism_group(g)
    assert c.aut_order == 3 * g.n * 2 ** (c.t - 1)
    expected = [1] + [2 ** j for j in range(1, c.t)] + [3 * 2 ** (c.t - 1)]
    arc = base_arc(g, int(g.vertices_of_type(1)[0]), c.t)
    assert stabilizer_sequence(g, aut, arc) == expected
    group = chain(aut)
    assert group.prefix_stabilizer_orders(arc.vertices)[-1] == 1
    shunts_and_sign(g, arc)  # raises if the sign is not well-defined
    for r in range(1, c.t + 1):
        total = t_arc_count(g, 1, r) + t_arc_count(g, 2, r)
        orbit = c.aut_order // group.prefix_stabilizer_orders(
            base_arc(g, int(g.vertices_of_type(1)[0]), r).vertices)[r + 1]
        assert orbit == total
    # One arc orbit cannot cover all (t+1)-arcs.
    longer = base_arc(g, int(g.vertices_of_type(1)[0]), c.t + 1)
    orbit = c.aut_order // group.prefix_stabilizer_orders(
        longer.vertices)[c.t + 2]
    assert orbit < t_arc_count(g, 1, c.t + 1) + t_arc_count(g, 2, c.t + 1)


def test_criterion_6_symmetric_structure_suite():
    k33 = validate([[3, 4, 5]] * 3 + [[0, 1, 2]] * 3, [1, 1, 1, 2, 2, 2])
    cases = [k33]
    for s, t in (((1, 1), (1, 1)), ((2, 0), (2, 0)), ((3, 0), (3, 0))):
        cases.append(universal_graph(s, t)[1])
    checked = []
    for g in cases:
        c = classify(g)
        assert c.verdict == "symmetric"
        _symmetric_structure_suite(g, c)
        checked.append((g.n, c.label()))
    report(6, True, f"order formula, stabilizer tower, sharp transitivity,"
                    f" sign on {checked}")


def test_criterion_7_non_self_dual_gives_two_orbits():
    orbit_counts = {}
    for s, t in (((1, 1), (3, 0)), ((2, 0), (2, 2))):
        _, g = universal_graph(s, t)
        orbit_counts[f"universal{s}{t}"] = len(
            automorphism_group(g).vertex_orbits)
    for m in (parse_eisenstein("3"), parse_eisenstein("2-2w"), CHIRAL_M):
        g = medial_layer_graph(handle_from_matrix_group(generate_group(m)))
        orbit_counts[f"m norm {m.norm()}"] = len(
            automorphism_group(g).vertex_orbits)
    ok = all(v == 2 for v in orbit_counts.values())
    report(7, ok, f"vertex orbit counts: {orbit_counts}")


def test_criterion_8_oracle_equivalences():
    rng = random.Random(5)
    ok = True
    # Permutation group orders vs naive closure.
    for _ in range(3):
        gens = [Permutation(tuple(rng.sample(range(7), 7))) for _ in range(2)]
        ok = ok and PermutationGroup(gens).order() == len(naive_closure(gens))
    # Coset enumeration vs known orders.
    s3 = Presentation(("a", "b"), (gen_word(0) * 2, gen_word(1) * 2,
                                   gen_word(0, 1) * 3))
    ok = ok and coset_enumeration(s3).num_cosets == 6
    ok = ok and coset_enumeration(coxeter_string(3, 3, 3)).num_cosets == 120
    for s, t in ((1, 1), (2, 2)):
        v = s * s + s * t + t * t
        table = coset_enumeration(toroidal_map(ToroidalParams(s, t)))
        ok = ok and table.num_cosets == 12 * v
    # Residue ring cardinality vs brute-force reduction over a box.
    for text in ("3", "2-2w", "2+3w"):
        m = parse_eisenstein(text)
        ring = ResidueRing(m)
        bound = abs(m.a) + abs(m.b) + 2
        classes = {reduce(EisensteinInt(a, b), m)
                   for a in range(-bound, bound + 1)
                   for b in range(-bound, bound + 1)}
        ok = ok and classes == set(elements(ring)) \
            and len(classes) == m.norm()
    report(8, ok, "permutation orders vs naive closure; coset enumeration"
                  " vs S3/simplex/toroidal; residue cardinality vs brute"
                  " force")
