"""Symmetry groups of 4-polytopes and their medial layer graphs.

A regular 4-polytope is encoded by a string C-group: four involutions
rho0..rho3 satisfying the string relations

    rho_i^2 = (rho0 rho2)^2 = (rho0 rho3)^2 = (rho1 rho3)^2 = identity,
    (rho0 rho1)^p1 = (rho1 rho2)^p2 = (rho2 rho3)^p3 = identity,       (R)

together with the intersection condition

    <rho_i : i in I> ^ <rho_i : i in J> = <rho_i : i in I^J>            (C)

for all I, J subsets of {0,1,2,3}.  A chiral (or directly regular)
polytope is encoded by its rotation group: sigma1..sigma3 with

    sigma_j^{p_j} = (s1 s2)^2 = (s2 s3)^2 = (s1 s2 s3)^2 = identity,    (R')
    <s1> ^ <s2> = 1 = <s2> ^ <s3>,  <s1,s2> ^ <s2,s3> = <s2>.           (C')

The medial layer graph has the 1-faces and 2-faces as vertices and
face incidence as adjacency; faces are realized as cosets of the standard
stabilizer subgroups and incidence as the orbit of the base coset pair
under simultaneous right multiplication by the group generators.

Both construction routes end in one integer Cayley table of the group,
``right[g, j]`` = element g times generator j.  The presentation route
enumerates the cosets of the base facet stabilizer, or of the base 1-face
stabilizer where the facets' do not certify, or else of the trivial
subgroup, which always certifies, and reads the table off the orbit of one
tuple of those cosets, once the orbit's size proves that the group acts
on it regularly (``_certified_cayley_table``).  The matrix route takes
one vectorized product per generator.  From there one path
(``_checked_handle``) validates the group, computes the four face
actions, the incidences and the diamond check, all as numpy array
operations on the table, and keeps the face count of each rank;
``medial_layer_graph`` passes the orbit of the base 1-face/2-face pair,
as edges, to ``graphsym.from_edges``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .catalog import SchlafliType
from .fpgroup import (
    DEFAULT_MAX_COSETS,
    Presentation,
    coset_enumeration,
    gen_word,
)
from .matgroup import (
    DEFAULT_MAX_ELEMENTS,
    MatrixGroup,
    recover_reflection_codes,
)
from .permgroup import (
    OverflowResult,
    code_cayley_table,
    code_orbit,
    face_action,
)

# The validation functions (validate_string_cgroup, validate_rotation_group,
# self_duality_test, is_directly_regular, generator_map_homomorphism) take
# the group as an integer Cayley table ``right``, ``right[x, j]`` = element
# x times generator j, whose columns are exactly the generators, and the
# row of its identity.  The rows of the table may hold more than the
# generators reach from the identity; every check runs on the subgroup
# they do reach, as numpy operations on the table.


class PolytopeValidationError(ValueError):
    """A generator system fails its defining relations or intersections."""


def _times(right: np.ndarray, x, word: Iterable[int]):
    """The rows x (one row or an array of them) times the generators of
    ``word`` in turn."""
    for g in word:
        x = right[x, g]
    return x


def _word_order(right: np.ndarray, identity: int, word: Sequence[int]) -> int:
    """Order of the product of ``word``."""
    x, k = _times(right, identity, word), 1
    while x != identity:
        x, k = _times(right, x, word), k + 1
    return k


def validate_string_cgroup(right: np.ndarray, identity: int) -> SchlafliType:
    """The type of rho0..rho3, the columns of the Cayley table ``right``
    with identity row ``identity``, once relations (R) and intersections
    (C) hold.

    The intersection condition only needs checking for proper subsets I, J
    (a full-index side intersects trivially), so the group itself is never
    closed here.
    """
    if right.shape[1] != 4:
        raise PolytopeValidationError(f"need 4 generators, got {right.shape[1]}")
    for i in range(4):
        x = right[identity, i]
        if x == identity or right[x, i] != identity:
            raise PolytopeValidationError(f"rho{i} is not an involution")
    for i, j in ((0, 2), (0, 3), (1, 3)):
        if _times(right, identity, (i, j) * 2) != identity:
            raise PolytopeValidationError(
                f"(rho{i} rho{j})^2 != identity (commuting relation fails)")
    p1, p2, p3 = (_word_order(right, identity, (j, j + 1)) for j in range(3))
    # (C) only needs proper subsets: a full-index side intersects trivially.
    subsets = [frozenset(c) for k in range(4)
               for c in itertools.combinations(range(4), k)]
    _check_intersections(right, identity, [f"rho{i}" for i in range(4)],
                         list(itertools.product(subsets, repeat=2)))
    return SchlafliType(p1, p2, p3)


def _check_intersections(right: np.ndarray, identity: int,
                         names: Sequence[str],
                         pairs: Sequence[tuple[frozenset, frozenset]]) -> None:
    """<gens_I> ^ <gens_J> = <gens_(I^J)> for each pair (I, J) of column
    index sets, checked in the order given.

    Every subgroup involved is closed at once: one ``code_orbit`` on codes
    s * |rows| + x of (subgroup s, element x), where a step multiplies x
    by the columns of s only.  <gens_(I^J)> lies in both sides, so the
    condition holds exactly when the intersection has its order.
    """
    subsets = sorted({s for I, J in pairs for s in (I, J, I & J)}, key=sorted)
    position = {s: k for k, s in enumerate(subsets)}
    n = len(right)
    uses = np.array([[j in s for j in range(right.shape[1])]
                     for s in subsets])

    def step(codes: np.ndarray) -> np.ndarray:
        s, x = np.divmod(codes, n)
        return (s[:, None] * n
                + np.where(uses[s], right[x], x[:, None])).ravel()

    s, x = np.divmod(code_orbit(np.arange(len(subsets)) * n + identity,
                                step), n)
    _, x = np.unique(x, return_inverse=True)
    member = np.zeros((len(subsets), x.max() + 1), dtype=np.int64)
    member[s, x] = 1
    common = member @ member.T  # |<gens_I> ^ <gens_J>|, by position
    first, second, meet = np.array([(position[I], position[J], position[I & J])
                                    for I, J in pairs]).T
    wrong = np.flatnonzero(common[first, second] != common[meet, meet])
    if len(wrong):
        k = wrong[0]
        I, J = pairs[k]

        def span(s: frozenset) -> str:
            return "<" + ",".join(names[i] for i in sorted(s)) + ">" if s \
                else "1"

        raise PolytopeValidationError(
            f"intersection condition fails: {span(I)} ^ {span(J)} has"
            f" order {common[first[k], second[k]]}, {span(I & J)} has"
            f" order {common[meet[k], meet[k]]}")


def validate_rotation_group(right: np.ndarray,
                            identity: int) -> SchlafliType:
    """The type of sigma1..sigma3, the columns of the Cayley table
    ``right`` with identity row ``identity``, once relations (R') and
    intersections (C') hold."""
    if right.shape[1] != 3:
        raise PolytopeValidationError(f"need 3 generators, got {right.shape[1]}")
    for name, word in (("(sigma1 sigma2)^2", (0, 1)),
                       ("(sigma2 sigma3)^2", (1, 2)),
                       ("(sigma1 sigma2 sigma3)^2", (0, 1, 2))):
        if _times(right, identity, word * 2) != identity:
            raise PolytopeValidationError(f"{name} != identity")
    p1, p2, p3 = (_word_order(right, identity, (j,)) for j in range(3))
    # (C'): <s1> ^ <s2> = 1 = <s2> ^ <s3> and <s1,s2> ^ <s2,s3> = <s2>.
    pairs = [(frozenset(I), frozenset(J))
             for I, J in (((0,), (1,)), ((1,), (2,)), ((0, 1), (1, 2)))]
    _check_intersections(right, identity, ("sigma1", "sigma2", "sigma3"),
                         pairs)
    if 1 in (p1, p2, p3):
        raise PolytopeValidationError(
            f"sigma{(p1, p2, p3).index(1) + 1} is the identity")
    return SchlafliType(p1, p2, p3)


def generator_map_homomorphism(
        right: np.ndarray, identity: int, start: int,
        images: Sequence[Sequence[int]]) -> np.ndarray | None:
    """The map x |-> start * phi(x) on the subgroup that the columns of
    the Cayley table ``right`` reach from the row ``identity``, as an
    array over the rows that holds -1 off that subgroup; phi is the
    endomorphism taking column j to the product of the word ``images[j]``
    over the columns.  None when phi does not extend to one.

    With ``start`` the identity this is phi itself; with ``start`` an
    element s and each generator its own image, it is the left translation
    x |-> s x.  The map grows one breadth-first level at a time: x times
    column j gets the value of x times the word ``images[j]``, and phi
    extends exactly when no element gets two values.
    """
    mapping = np.full(len(right), -1, dtype=np.int64)
    mapping[identity] = start
    frontier = np.array([identity])
    while len(frontier):
        targets = right[frontier].ravel()
        values = np.stack([_times(right, mapping[frontier], word)
                           for word in images], axis=1).ravel()
        order = np.argsort(targets, kind="stable")
        targets, values = targets[order], values[order]
        repeat = targets[1:] == targets[:-1]
        known = mapping[targets]
        if (values[1:][repeat] != values[:-1][repeat]).any() \
                or ((known >= 0) & (known != values)).any():
            return None
        fresh = known < 0
        mapping[targets[fresh]] = values[fresh]
        frontier = np.unique(targets[fresh])
    return mapping


def _is_injective(mapping: np.ndarray | None) -> bool:
    """Whether a ``generator_map_homomorphism`` map exists and takes no
    value twice."""
    if mapping is None:
        return False
    values = mapping[mapping >= 0]
    return len(np.unique(values)) == len(values)


def is_directly_regular(right: np.ndarray, identity: int) -> bool:
    """Whether the rotation group admits the involutory reflection twist

        sigma1 |-> sigma1^-1,  sigma2 |-> sigma1^2 sigma2,  sigma3 |-> sigma3

    as an automorphism NOT induced by conjugation with a group element
    (an inner twist would not enlarge the symmetry group).

    The twist images are words over the sigmas, and the left translations
    of the inner check are found by propagation from the identity, so
    only the sigma columns of ``right`` are ever read.
    """
    p1 = _word_order(right, identity, (0,))
    words = [(0,) * (p1 - 1), (0, 0, 1), (2,)]
    twist = generator_map_homomorphism(right, identity, identity, words)
    if not _is_injective(twist):
        return False
    # Involutory: applying the twist to each target must give the generator.
    for j, word in enumerate(words):
        if twist[_times(right, identity, word)] != right[identity, j]:
            return False
    # Inner check: conjugation by some group element realizing the twist,
    # h^-1 s h = t, that is s h = h t, with s h read off the left
    # translation by s.
    inner = np.flatnonzero(twist >= 0)
    for j, word in enumerate(words):
        left = generator_map_homomorphism(right, identity,
                                          right[identity, j], [(0,), (1,), (2,)])
        inner = inner[left[inner] == _times(right, inner, word)]
    return not len(inner)


def self_duality_test(right: np.ndarray, identity: int) -> bool:
    """Whether rho_j |-> rho_{3-j} extends to a group automorphism."""
    return _is_injective(generator_map_homomorphism(
        right, identity, identity, [(3,), (2,), (1,), (0,)]))


# ---------------------------------------------------------------------------
# Handles: face-coset actions feeding the medial layer graph
# ---------------------------------------------------------------------------

#: Parabolic subgroup generator indices (regular kind): the stabilizer of
#: the base j-face omits rho_j.
_PARABOLIC = {0: (1, 2, 3), 1: (0, 2, 3), 2: (0, 1, 3), 3: (0, 1, 2)}

#: The subgroups whose cosets the presentation route certifies, tried in
#: order: the base facet's stabilizer, the largest, so the fewest cosets;
#: then the base 1-face's, whose own relators always present a finite
#: group, <rho0> x <rho2, rho3> of order 4 p3; last the trivial subgroup,
#: whose cosets are the elements, so that its bound is 1 and G acts on
#: them regularly.
_CERTIFYING_SUBGROUPS = (_PARABOLIC[3], _PARABOLIC[1], ())

#: Chiral face stabilizers, as columns of the Cayley table of s1, s2, s3,
#: s1 s2 and s2 s3: <s2, s3>, <s1 s2, s3>, <s1, s2 s3> and <s1, s2>.
_CHIRAL_STABILIZERS = {0: (1, 2), 1: (3, 2), 2: (0, 4), 3: (0, 1)}


@dataclass
class PolytopeHandle:
    """Coset actions of the symmetry group on 1-faces and 2-faces.

    ``rank1_images``/``rank2_images`` hold, per group generator, a row of
    images of the corresponding face-coset action; the base faces are coset
    0 of each action and are incident by construction.
    """

    label: str
    kind: str  # "regular" | "chiral"
    schlafli: SchlafliType
    group_order: int
    rank1_images: np.ndarray  # shape (generators, 1-faces)
    rank2_images: np.ndarray  # shape (generators, 2-faces)
    face_counts: tuple[int, int, int, int]  # of ranks 0, 1, 2 and 3
    self_dual: bool | None = None  # regular kind only

    def __post_init__(self):
        # A 1-face's stabilizer in the full group is <rho0> x <rho2, rho3>,
        # of order 4 p3, and a 2-face's is <rho0, rho1> x <rho3>, of order
        # 4 p1; the rotation group has half the order and half of each.
        n1, n2 = self.face_counts[1:3]
        h = 1 if self.kind == "regular" else 2
        expect = (self.group_order * h // (4 * self.schlafli.p3),
                  self.group_order * h // (4 * self.schlafli.p1))
        if (n1, n2) != expect:
            raise PolytopeValidationError(
                f"{self.label}: face counts ({n1}, {n2}) inconsistent with"
                f" group order {self.group_order} and type {self.schlafli},"
                f" which give {expect}")


def handle_from_presentation(
        pres: Presentation,
        label: str,
        max_cosets: int = DEFAULT_MAX_COSETS,
        max_elements: int = DEFAULT_MAX_ELEMENTS,
        deadline: float | None = None) -> PolytopeHandle:
    """Regular route: the Cayley table of the group read off a certified
    orbit of base cosets (``_certified_cayley_table``), then everything on
    the table.

    The cosets of each subgroup of ``_CERTIFYING_SUBGROUPS`` are
    enumerated in turn, the base facet stabilizer's first, until one
    certifies; a group that cannot act faithfully on its facets, such as
    Table 1 rows 1 and 3, falls through to the base 1-face stabilizer, and
    one that neither stabilizer certifies to the trivial subgroup.  The
    handle does not depend on which subgroup certifies: ``face_action``
    numbers the cosets by a breadth-first search over the generators.
    ``_checked_handle`` validates the group on the table.  ``max_cosets``
    bounds each enumeration and ``max_elements`` each base orbit; past
    either, or past ``deadline`` (a ``time.monotonic()`` value),
    OverflowResult is raised.

    The trivial subgroup, last, never returns None: its bound's
    enumeration defines one coset, so it fails only past the deadline,
    and then the orbit stops at its first level; else the bound is 1 and
    the orbit has exactly index = |G| points, or raises past
    ``max_elements``.  So the loop always ends in a table.
    """
    for subgroup in _CERTIFYING_SUBGROUPS:
        table = _certified_cayley_table(pres, subgroup, max_cosets,
                                        max_elements, deadline)
        if table is not None:
            break
    right, identity = table
    return _checked_handle(label, "regular", right, identity, range(4),
                           _PARABOLIC)


def _certified_cayley_table(
        pres: Presentation, subgroup: tuple[int, ...], max_cosets: int,
        max_elements: int, deadline: float | None
) -> tuple[np.ndarray, int] | None:
    """The Cayley table of the group of ``pres`` on its generators, and the
    row of the identity, from the cosets of the subgroup H generated by
    the generators ``subgroup``; None when the certificate fails.

    The relators in H's generators alone present a group that H is a
    quotient of, so its order, from a small enumeration, bounds |H|, and
    bound * index bounds |G|.  The orbit of a tuple of cosets has at most
    |G| elements, so an orbit with bound * index elements proves that G
    acts on it regularly: its points are the group elements.  The orbit
    falls short when G does not act faithfully on the cosets, as on the 3
    facets of Table 1 row 1, or when the bound exceeds |H|.  The tuple is
    the cosets 0, 1, ..., k - 1, with k as large as the index and int64
    mixed-radix codes allow.

    The orbit is closed even when the bound's enumeration overflows and
    nothing can certify, so that an orbit past ``max_elements`` raises
    OverflowResult.
    """
    columns = coset_enumeration(pres, [gen_word(g) for g in subgroup],
                                max_cosets=max_cosets,
                                deadline=deadline).columns
    ngens, index = columns.shape
    # A bound above max_elements // index could only certify an orbit
    # past max_elements, so its enumeration stops there.
    bound = _subgroup_order_bound(
        pres, subgroup, min(max_cosets, max(1, max_elements // index)),
        deadline)
    k = 1
    while k < index and index ** (k + 1) <= 2 ** 63:
        k += 1
    place = index ** np.arange(k - 1, -1, -1, dtype=np.int64)
    base = np.arange(k) @ place

    def stepper(generators: Iterable[int]) -> Callable:
        """Images of tuple codes under each of ``generators``."""
        def step(codes: np.ndarray) -> np.ndarray:
            digits = codes[:, None] // place % index
            return np.concatenate([columns[g][digits] @ place
                                   for g in generators])
        return step

    elements = code_orbit([base], stepper(range(ngens)), max_elements,
                          deadline)
    if bound is None or len(elements) != bound * index:
        return None
    return (code_cayley_table(elements, [stepper((g,))
                                         for g in range(ngens)]),
            int(np.searchsorted(elements, base)))


def _subgroup_order_bound(pres: Presentation, subgroup: tuple[int, ...],
                          max_cosets: int, deadline: float | None
                          ) -> int | None:
    """The order of the group presented by the generators ``subgroup`` and
    the relators of ``pres`` in them alone, or None when its enumeration
    overflows."""
    position = {g: i for i, g in enumerate(subgroup)}
    relators = tuple(tuple(2 * position[x >> 1] + (x & 1) for x in w)
                     for w in pres.relators
                     if all(x >> 1 in position for x in w))
    names = tuple(pres.names[g] for g in subgroup)
    try:
        return coset_enumeration(Presentation(names, relators), (),
                                 max_cosets=max_cosets,
                                 deadline=deadline).num_cosets
    except OverflowResult:
        return None


def handle_from_matrix_group(mg: MatrixGroup, label: str | None = None) -> PolytopeHandle:
    """Eisenstein route: the Cayley table of the matrix group on the
    generators that the faces need, then everything on the table.

    Regular instances take the four reflections, fixed words in the
    sigmas and the conjugation (``recover_reflection_codes``).  Chiral
    instances take the columns s1, s2, s3, s1 s2 and s2 s3: the sigmas
    act, and the rotation stabilizers of the faces are generated by pairs
    of these columns.  Only the sigma columns are
    matrix products; x s1 s2 and x s2 s3 are gathers on them.
    """
    if label is None:
        label = f"eisenstein m={mg.modulus}"
    if mg.kind == "regular":
        right = mg.cayley_table(recover_reflection_codes(mg))
        acting, stabilizers = range(4), _PARABOLIC
    else:
        right = mg.cayley_table(mg.sigma_codes)
        right = np.column_stack([right, right[right[:, 0], 1],
                                 right[right[:, 1], 2]])
        acting, stabilizers = range(3), _CHIRAL_STABILIZERS
    return _checked_handle(label, mg.kind, right,
                           int(np.searchsorted(mg.codes, mg.identity)),
                           acting, stabilizers)


def _checked_handle(label: str, kind: str, right: np.ndarray, identity: int,
                    acting: Sequence[int],
                    stabilizers: dict[int, tuple[int, ...]]) -> PolytopeHandle:
    """The one path of both routes from the Cayley table ``right`` of the
    group (its identity row ``identity``), whose first columns ``acting``
    are the generators: validation, then the face action of those columns
    on the cosets of the columns ``stabilizers[rank]``, for each rank, and
    the handle on the rank-1 and rank-2 actions once the face counts and
    the diamond condition hold.

    A regular group is checked for (R) and (C) and tested for
    self-duality; a chiral one is checked for (R') and (C') and must not
    be directly regular, which would contradict its ``chiral`` label.
    """
    generators = right[:, :len(acting)]
    if kind == "regular":
        schlafli = validate_string_cgroup(generators, identity)
        self_dual = self_duality_test(generators, identity)
    else:
        schlafli = validate_rotation_group(generators, identity)
        if is_directly_regular(generators, identity):
            raise PolytopeValidationError(
                f"{label}: labelled chiral, but its rotation group is"
                " directly regular")
        self_dual = None
    actions = [face_action(right, identity, acting, stabilizers[rank])
               for rank in range(4)]
    handle = PolytopeHandle(
        label=label, kind=kind, schlafli=schlafli, group_order=len(right),
        rank1_images=actions[1], rank2_images=actions[2],
        face_counts=tuple(len(action[0]) for action in actions),
        self_dual=self_dual)
    _diamond_check(actions, label)
    return handle


def _diamond_check(actions: Sequence[np.ndarray], label: str) -> None:
    """Between any two incident faces two ranks apart there are exactly 2
    intermediate faces, and every 1-face (2-face) lies in exactly 2
    vertices (cells, respectively).  ``actions[r]`` acts on the r-faces."""
    inc = {(a, b): _pair_orbit(actions[a], actions[b])
           for a, b in ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3))}
    for low, mid, high in ((0, 1, 2), (1, 2, 3)):
        width = len(actions[high][0])
        # One (f, h) per middle face g with f below g and h above it.
        below, above = _join(inc[(low, mid)], inc[(mid, high)])
        middles = np.sort(below * width + above)
        pairs = inc[(low, high)] @ np.array([width, 1])
        found = (np.searchsorted(middles, pairs, "right")
                 - np.searchsorted(middles, pairs, "left"))
        wrong = np.flatnonzero(found != 2)
        if len(wrong):
            raise PolytopeValidationError(
                f"{label}: diamond condition fails between ranks"
                f" {low} and {high}: {found[wrong[0]]} middle faces")
    for rank, neighbor, faces in ((1, 0, inc[(0, 1)][:, 1]),
                                  (2, 3, inc[(2, 3)][:, 0])):
        if set(np.unique(faces, return_counts=True)[1].tolist()) != {2}:
            raise PolytopeValidationError(
                f"{label}: rank-{rank} faces do not have exactly 2 incident"
                f" rank-{neighbor} faces")


def _join(left: np.ndarray, right: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """For the pair arrays left = (f, g) and right = (g, h), the (f, h) of
    every pair of rows that share g."""
    right = right[np.argsort(right[:, 0], kind="stable")]
    start = np.searchsorted(right[:, 0], left[:, 1], "left")
    stop = np.searchsorted(right[:, 0], left[:, 1], "right")
    counts = stop - start
    rows = np.repeat(np.arange(len(left)), counts)
    offsets = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
    return left[rows, 0], right[start[rows] + offsets, 1]


def _pair_orbit(images1: Sequence[Sequence[int]],
                images2: Sequence[Sequence[int]]) -> np.ndarray:
    """Orbit of the pair of base faces under simultaneous generator action,
    as the rows (face1, face2) of an array in ascending order."""
    images1, images2 = np.asarray(images1), np.asarray(images2)
    width = images2.shape[1]

    def step(codes: np.ndarray) -> np.ndarray:
        first, second = np.divmod(codes, width)
        return (images1[:, first] * width + images2[:, second]).ravel()

    return np.stack(np.divmod(code_orbit([0], step), width), axis=1)


def medial_layer_graph(handle: PolytopeHandle):
    """The bipartite cubic incidence graph of 1-faces (type 1) and 2-faces
    (type 2), with 2-face vertices numbered after the 1-face block.  Only
    a polytope of type {3,q,3} has one: its faces then lie in 3 faces of
    the other rank."""
    from . import graphsym

    if (handle.schlafli.p1, handle.schlafli.p3) != (3, 3):
        raise PolytopeValidationError(
            f"{handle.label}: type {handle.schlafli} is not {{3,q,3}}, so"
            " it has no cubic medial layer graph")
    _, n1, n2, _ = handle.face_counts
    x, y = _pair_orbit(handle.rank1_images, handle.rank2_images).T
    try:
        graph = graphsym.from_edges(n1 + n2, x, n1 + y, [1] * n1 + [2] * n2)
    except graphsym.GraphError as exc:
        raise PolytopeValidationError(
            f"{handle.label}: medial construction inconsistent: {exc}") from exc
    if not _has_cycle_through(graph, (0, n1), 2 * handle.schlafli.p2):
        raise PolytopeValidationError(
            f"{handle.label}: no {2 * handle.schlafli.p2}-cycle through the"
            " base edge")
    return graph


def graph_automorphisms(handle: PolytopeHandle) -> np.ndarray:
    """The group's generators as automorphisms of ``medial_layer_graph``:
    one image array a row, each generator's 1-face action followed by its
    2-face action on the vertices numbered after the 1-faces."""
    return np.concatenate([handle.rank1_images,
                           handle.face_counts[1] + handle.rank2_images],
                          axis=1)


def _has_cycle_through(graph, edge: tuple[int, int], length: int) -> bool:
    """Whether a simple cycle of the given length passes through the edge."""
    u, v = edge
    target = length - 1

    def dfs(current: int, depth: int, visited: set[int]) -> bool:
        if depth == target:
            return current == u
        for w in graph.adj[current]:
            w = int(w)
            if w == u and depth + 1 == target:
                return True
            if w not in visited and w != u:
                if dfs(w, depth + 1, visited | {w}):
                    return True
        return False

    return dfs(v, 0, {v})
