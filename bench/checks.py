"""Output checks written apart from the program: its own Eisenstein
arithmetic, its own numpy graph tests and the structural laws every verdict
must obey.  Each check returns a list of problems; empty means it passed."""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

from instances import Instance

# -- Eisenstein integers a + b*w, w^2 = -1 - w --------------------------------

UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))


def e_mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c - b * d)


def e_norm(x) -> int:
    a, b = x
    return a * a - a * b + b * b


def e_conj(x):
    a, b = x
    return (a - b, -b)


def associated(x, y) -> bool:
    return any(e_mul(u, x) == tuple(y) for u in UNITS)


def eisenstein_kind(inst: Instance) -> str:
    """Regular exactly when the modulus is associated with its conjugate."""
    m = inst.modulus
    return "regular" if associated(m, e_conj(m)) else "chiral"


def eisenstein_vertex_count(inst: Instance, scalars: int = 2) -> tuple[int, list[str]]:
    """N = 2 norm(m)^3 / (12 |A|) * prod over the primes pi | m of
    (1 - norm(pi)^-2), with A = {1, -1}; also checks the listed factors."""
    problems = []
    product = (1, 0)
    for p, e in inst.primes:
        for _ in range(e):
            product = e_mul(product, p)
    if not associated(product, inst.modulus):
        problems.append(f"listed primes multiply to {product},"
                        f" not a unit times {inst.modulus}")
    primes = [p for p, _ in inst.primes]
    for i, p in enumerate(primes):
        if any(associated(p, q) for q in primes[:i]):
            problems.append(f"prime {p} is listed twice")
    total = Fraction(2 * e_norm(inst.modulus) ** 3, 12 * scalars)
    for p in primes:
        total *= 1 - Fraction(1, e_norm(p) ** 2)
    if total.denominator != 1:
        problems.append(f"vertex count {total} is not an integer")
    return int(total), problems


def expected_n(inst: Instance) -> tuple[int, list[str]]:
    if inst.is_eisenstein:
        return eisenstein_vertex_count(inst)
    return inst.table_n, []


def expected_kind(inst: Instance) -> str:
    return eisenstein_kind(inst) if inst.is_eisenstein else "regular"


def expected_group_order(inst: Instance, n: int) -> int:
    return (6 if expected_kind(inst) == "regular" else 3) * n


# -- graphs ---------------------------------------------------------------------

def graph_problems(adj: np.ndarray, n: int) -> list[str]:
    """Cubic, simple, symmetric, connected, bipartite with equal halves."""
    adj = np.asarray(adj, dtype=np.int64)
    if adj.shape != (n, 3):
        return [f"adjacency has shape {adj.shape}, expected ({n}, 3)"]
    if adj.min() < 0 or adj.max() >= n:
        return ["neighbour id out of range"]
    rows = np.sort(adj, axis=1)
    if (rows[:, 0] == rows[:, 1]).any() or (rows[:, 1] == rows[:, 2]).any():
        return ["repeated edge"]
    tails = np.repeat(np.arange(n), 3)
    heads = adj.ravel()
    if (tails == heads).any():
        return ["loop"]
    if not np.array_equal(np.sort(tails * n + heads),
                          np.sort(heads * n + tails)):
        return ["adjacency is not symmetric"]
    color = np.full(n, -1)
    color[0] = 0
    frontier = np.array([0])
    while frontier.size:
        nbrs = adj[frontier]
        fresh = color[nbrs] < 0
        targets = nbrs[fresh]
        color[targets] = np.repeat(1 - color[frontier], 3).reshape(-1, 3)[fresh]
        frontier = np.unique(targets)
    problems = []
    if (color < 0).any():
        problems.append("graph is disconnected")
    elif (color[adj] == color[:, None]).any():
        problems.append("graph is not bipartite")
    elif 2 * int((color == 0).sum()) != n:
        problems.append("colour classes have unequal sizes")
    return problems


def same_edges(adj_a: np.ndarray, adj_b: np.ndarray) -> bool:
    return np.array_equal(np.sort(np.asarray(adj_a), axis=1),
                          np.sort(np.asarray(adj_b), axis=1))


def is_gray_graph(adj: np.ndarray) -> bool:
    """Isomorphic to the LCF graph [-25,7,-7,13,-13,25]^9 (networkx)."""
    import networkx as nx

    g = nx.Graph()
    g.add_edges_from((v, int(w)) for v in range(len(adj)) for w in adj[v])
    return nx.is_isomorphic(g, nx.LCF_graph(54, [-25, 7, -7, 13, -13, 25], 9))


# -- verdicts --------------------------------------------------------------------

_SYMMETRIC = re.compile(r"^([1-5])([+-])$")
_SEMI = re.compile(r"^ss-\((\d),(\d)\)$")


def verdict_problems(inst: Instance, label: str, aut_order: int, n: int,
                     group_order: int, ordered: bool = True) -> list[str]:
    """|G| divides |Aut| with index 1, 2 or 4; a symmetric t-arc-regular
    cubic graph has |Aut| = 3N 2^(t-1); a semisymmetric one is transitive on
    the (N/2) 3 2^(t_j-1) t_j-arcs from each side; and the label matches
    the one expected, as an unordered pair where the types are a convention."""
    problems = []
    if aut_order % group_order or aut_order // group_order not in (1, 2, 4):
        problems.append(f"|Aut| = {aut_order} is not 1, 2 or 4 times"
                        f" |G| = {group_order}")
    sym, semi = _SYMMETRIC.match(label), _SEMI.match(label)
    if sym:
        t = int(sym.group(1))
        if aut_order != 3 * n * 2 ** (t - 1):
            problems.append(f"symmetric {label} but |Aut| = {aut_order}"
                            f" != 3N 2^(t-1) = {3 * n * 2 ** (t - 1)}")
    elif semi:
        for t in (int(semi.group(1)), int(semi.group(2))):
            if t < 1 or aut_order % (n // 2 * 3 * 2 ** (t - 1)):
                problems.append(f"{label}: |Aut| = {aut_order} is not a"
                                f" multiple of the {t}-arc count from a side")
    else:
        problems.append(f"verdict {label!r} is neither symmetric nor"
                        " semisymmetric")
    want = inst.verdict
    if want == "ss":
        if not semi:
            problems.append(f"expected a semisymmetric verdict, got {label}")
    elif want is not None and label != want:
        if ordered or not (semi and _SEMI.match(want) and sorted(semi.groups())
                           == sorted(_SEMI.match(want).groups())):
            problems.append(f"verdict {label} differs from Table 1's {want}")
    return problems
