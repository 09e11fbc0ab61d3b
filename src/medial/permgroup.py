"""Permutation groups on finite domains.

Permutations are numpy image arrays.  Closures go through ``orbit``, the
package's one closure primitive, or, for points coded as integers, through
its array form ``code_orbit``, one breadth-first level per numpy pass: the
point orbits of a group, and in ``graphsym`` its orbits on arcs, are
``code_orbit`` over the generators' image arrays.  ``code_cayley_table``
reads the Cayley table, ``right[g, j]`` = element g times generator j,
off such an orbit when it is a whole group; both construction routes end
in one.  ``face_action`` is the one action on the cosets of a subgroup,
and every face action of either route is computed on such a table.  The
pipeline needs nothing else from this module.

A deterministic Schreier-Sims stabilizer chain (base points chosen in
ascending domain order, or as prescribed) gives exact orders, membership,
prefix-stabilizer orders and transporters.  No pipeline stage builds one:
the chain is the independent oracle that the tests check orbit counts,
closures and automorphism groups against.
"""

from __future__ import annotations

import time
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np


class Permutation:
    """A permutation of {0, ..., n-1}, stored as its image array."""

    __slots__ = ("images", "_hash")

    def __init__(self, images: Sequence[int] | np.ndarray):
        arr = np.asarray(images, dtype=np.int32)
        self.images = arr
        self.images.setflags(write=False)
        self._hash: int | None = None

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n, dtype=np.int32))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = np.arange(n, dtype=np.int32)
        for cyc in cycles:
            for i, x in enumerate(cyc):
                images[x] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return int(self.images[point])

    def __mul__(self, other: "Permutation") -> "Permutation":
        """self * other: apply self first, then other."""
        return Permutation(other.images[self.images])

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.images)
        inv[self.images] = np.arange(len(self.images), dtype=np.int32)
        return Permutation(inv)

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.images, np.arange(len(self.images))))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.images, other.images)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.images.tobytes())
        return self._hash

    def order(self) -> int:
        seen = np.zeros(self.degree, dtype=bool)
        result = 1
        for start in range(self.degree):
            if seen[start]:
                continue
            length = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = int(self.images[x])
                length += 1
            result = _lcm(result, length)
        return result

    def cycles(self) -> list[tuple[int, ...]]:
        seen = np.zeros(self.degree, dtype=bool)
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = []
            x = start
            while not seen[x]:
                seen[x] = True
                cyc.append(x)
                x = int(self.images[x])
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation{self.cycle_string()}"


def _lcm(a: int, b: int) -> int:
    import math

    return a * b // math.gcd(a, b)


class _ChainLevel:
    """One level of a stabilizer chain: base point, orbit and transversal."""

    __slots__ = ("base", "orbit", "transversal", "gens")

    def __init__(self, base: int, gens: list[Permutation], n: int):
        self.base = base
        self.gens = gens
        self.orbit: dict[int, None] = {base: None}
        self.transversal: dict[int, Permutation] = {base: Permutation.identity(n)}
        self.extend_orbit(gens)

    def extend_orbit(self, new_gens: list[Permutation]) -> list[int]:
        added = []
        frontier = list(self.orbit)
        gens = self.gens
        while frontier:
            nxt = []
            for p in frontier:
                t = self.transversal[p]
                for g in gens:
                    q = g(p)
                    if q not in self.orbit:
                        self.orbit[q] = None
                        self.transversal[q] = t * g
                        nxt.append(q)
                        added.append(q)
            frontier = nxt
        return added


class PermutationGroup:
    """Group generated by permutations, with a lazily built stabilizer chain."""

    def __init__(self, generators: Sequence[Permutation], degree: int | None = None,
                 base: Sequence[int] = ()):  # base: prescribed prefix of base points
        gens = [g for g in generators if not g.is_identity()]
        if degree is None:
            if not generators:
                raise ValueError("degree required for a trivial group with no generators")
            degree = generators[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError("generators act on different domains")
        self.degree = degree
        self.generators = gens
        self._base_prefix = list(base)
        self._levels: list[_ChainLevel] | None = None

    # -- stabilizer chain ----------------------------------------------------

    def _build_chain(self) -> list[_ChainLevel]:
        if self._levels is not None:
            return self._levels
        n = self.degree
        levels: list[_ChainLevel] = []
        gens = list(self.generators)
        prescribed = list(self._base_prefix)

        def next_base(current_gens: list[Permutation]) -> int | None:
            # Prescribed points become base points unconditionally and in
            # order, so a prescribed prefix maps onto a chain prefix (needed
            # by prefix_stabilizer_orders and transporter).
            if prescribed:
                return prescribed.pop(0)
            for b in range(n):
                if any(g(b) != b for g in current_gens):
                    return b
            return None

        def sift(levels_from: int, g: Permutation) -> Permutation | None:
            """Reduce g through levels; None when g sifts to identity."""
            h = g
            for lvl in levels[levels_from:]:
                img = h(lvl.base)
                if img not in lvl.orbit:
                    return h
                h = h * lvl.transversal[img].inverse()
            return None if h.is_identity() else h

        def add_generator(idx: int, g: Permutation) -> None:
            # Incremental Schreier-Sims: add g at level idx, close with
            # Schreier generators.
            if idx == len(levels):
                b = next_base([g])
                assert b is not None
                levels.append(_ChainLevel(b, [g], n))
                lvl = levels[idx]
                new_pts = list(lvl.orbit)
            else:
                lvl = levels[idx]
                lvl.gens.append(g)
                new_pts = lvl.extend_orbit(lvl.gens)
                # Old orbit points also yield new Schreier generators with g.
                new_pairs = [(p, h) for p in lvl.orbit for h in (g,)]
                for p, h in new_pairs:
                    _schreier(idx, p, h)
            for p in new_pts:
                for h in lvl.gens:
                    _schreier(idx, p, h)

        def _schreier(idx: int, p: int, g: Permutation) -> None:
            lvl = levels[idx]
            u = lvl.transversal[p]
            q = g(p)
            sg = u * g * lvl.transversal[q].inverse()
            rest = sift(idx + 1, sg)
            if rest is not None:
                add_generator(idx + 1, rest)

        for g in gens:
            rest = sift(0, g)
            if rest is not None:
                add_generator(0, rest)
        self._levels = levels
        return levels

    # -- queries ---------------------------------------------------------

    def order(self) -> int:
        result = 1
        for lvl in self._build_chain():
            result *= len(lvl.orbit)
        return result

    def __contains__(self, g: Permutation) -> bool:
        return self.is_member(g)

    def is_member(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        h = g
        for lvl in self._build_chain():
            img = h(lvl.base)
            if img not in lvl.orbit:
                return False
            h = h * lvl.transversal[img].inverse()
        return h.is_identity()

    def point_orbits(self) -> list[set[int]]:
        """The orbits on points, in the order of their least points."""
        images = np.array([g.images for g in self.generators],
                          dtype=np.int64).reshape(-1, self.degree)
        out: list[set[int]] = []
        covered = np.zeros(self.degree, dtype=bool)
        for p in range(self.degree):
            if not covered[p]:
                points = code_orbit([p], lambda x: images[:, x].ravel())
                covered[points] = True
                out.append(set(points.tolist()))
        return out

    def prefix_stabilizer_orders(self, points: Sequence[int]) -> list[int]:
        """Orders of the pointwise stabilizers of points[:k] for k = 0..len,
        from a single chain built with the points as a prescribed base."""
        pts = list(points)
        sub = PermutationGroup(self.generators, degree=self.degree, base=pts)
        levels = sub._build_chain()
        cur = sub.order()
        orders = [cur]
        for k in range(len(pts)):
            if k < len(levels) and levels[k].base == pts[k]:
                cur //= len(levels[k].orbit)
            orders.append(cur)
        return orders

    def transporter(self, src: tuple[int, ...], dst: tuple[int, ...]) -> Permutation | None:
        """Some g in the group with src[i]^g = dst[i] for all i, or None."""
        sub = PermutationGroup(self.generators, degree=self.degree, base=list(src))
        return _transporter_search(sub._build_chain(), self.degree, list(src), list(dst))


def _transporter_search(levels: list[_ChainLevel], n: int,
                        src: list[int], dst: list[int]) -> Permutation | None:
    """Backtracking over a chain built with base prefix src."""

    def rec(idx: int, g: Permutation) -> Permutation | None:
        if idx == len(src):
            return g
        p, want = src[idx], dst[idx]
        if idx >= len(levels):
            # Stabilizer of the earlier points is trivial from here on.
            return rec(idx + 1, g) if g(p) == want else None
        lvl = levels[idx]
        assert lvl.base == p
        for q in lvl.orbit:
            if g(q) == want:
                found = rec(idx + 1, lvl.transversal[q] * g)
                if found is not None:
                    return found
        return None

    return rec(0, Permutation.identity(n))


def orbit(seeds: Iterable[Hashable], gens: Sequence, act: Callable,
          limit: int | None = None) -> set:
    """Closure of ``seeds`` under ``x -> act(x, g)`` for every g in ``gens``.

    With the identity as the seed and right multiplication as ``act`` this
    is the subgroup generated by ``gens``, in whatever form the elements
    take.  Raises ValueError once the orbit would exceed ``limit`` points.
    """
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = act(x, g)
            if y not in seen:
                if limit is not None and len(seen) >= limit:
                    raise ValueError(f"orbit exceeds limit {limit}")
                seen.add(y)
                frontier.append(y)
    return seen


def code_orbit(seeds: Sequence[int], step: Callable[[np.ndarray], np.ndarray],
               limit: int | None = None,
               deadline: float | None = None) -> np.ndarray:
    """``orbit`` for points coded as integers, one breadth-first level at a
    time in numpy; returns the orbit as a sorted int64 array.

    ``step`` maps an array of codes to the codes of their images under
    every generator, in any order and with repeats.  Raises ValueError once
    the orbit would exceed ``limit`` points, as ``orbit`` does, and
    TimeoutError when a level starts past ``deadline`` (a
    ``time.monotonic()`` value).
    """
    seen = _sorted_distinct(np.asarray(seeds, dtype=np.int64))
    frontier = seen
    while len(frontier):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("time budget exceeded")
        images = _sorted_distinct(step(frontier))
        at = np.searchsorted(seen, images)
        known = at < len(seen)
        known[known] = seen[at[known]] == images[known]
        frontier = images[~known]
        if limit is not None and len(seen) + len(frontier) > limit:
            raise ValueError(f"orbit exceeds limit {limit}")
        # Both parts are sorted, so the stable sort is a linear merge.
        seen = np.sort(np.concatenate([seen, frontier]), kind="stable")
    return seen


def _sorted_distinct(codes: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array, by one sort: numpy's hash-based
    unique is many times slower on codes spread over a wide range."""
    codes = np.sort(codes)
    if len(codes) == 0:  # a step with no generators yields no images
        return codes
    return codes[np.concatenate([[True], codes[1:] != codes[:-1]])]


def code_cayley_table(codes: np.ndarray,
                      steps: Sequence[Callable[[np.ndarray], np.ndarray]]
                      ) -> np.ndarray:
    """The Cayley table of a group whose elements are the sorted int64
    ``codes``: ``right[i, j]`` is the index in ``codes`` of
    ``steps[j](codes)[i]``, element i times generator j.

    Raises ValueError when a step maps an element outside ``codes``.
    """
    right = np.empty((len(codes), len(steps)), dtype=np.int64)
    for j, step in enumerate(steps):
        images = step(codes)
        at = np.minimum(np.searchsorted(codes, images), len(codes) - 1)
        if (codes[at] != images).any():
            raise ValueError(f"generator {j} maps an element outside the group")
        right[:, j] = at
    return right


def face_action(right: np.ndarray, identity: int, gens: Sequence[int],
                stabilizer: Sequence[int]) -> np.ndarray:
    """Right multiplication by the columns ``gens`` of the Cayley table
    ``right`` on the right cosets of the subgroup generated by the columns
    ``stabilizer``, as one row of images per generator.

    ``right[x, j]`` is the element x times generator j, elements being the
    row indices and ``identity`` the row of the identity.  Coset 0 is the
    subgroup itself.  The cosets are found level by level from it, each as
    the block of an earlier coset multiplied by a generator, so the whole
    group is visited once and no coset table is enumerated; new cosets are
    numbered in the order of the (coset, generator) pair that first reaches
    them.
    """
    right = np.asarray(right)
    gens = list(gens)
    stabilizer = list(stabilizer)
    block = code_orbit([identity],
                       lambda x: right[x][:, stabilizer].ravel())
    coset_of = np.full(len(right), -1, dtype=np.int64)
    coset_of[block] = 0
    levels = [block[None, :]]
    count = 1
    while len(levels[-1]):
        # moved[p * len(gens) + j] is block p of the level times gens[j].
        moved = right[levels[-1]][:, :, gens].transpose(0, 2, 1)
        moved = moved.reshape(-1, len(block))
        moved = moved[coset_of[moved[:, 0]] < 0]
        _, first = np.unique(moved.min(axis=1), return_index=True)
        fresh = moved[np.sort(first)]
        coset_of[fresh] = np.arange(count, count + len(fresh))[:, None]
        count += len(fresh)
        levels.append(fresh)
    representatives = np.concatenate(levels)[:, 0]
    return coset_of[right[representatives][:, gens]].T


def naive_closure(generators: Sequence[Permutation], limit: int = 2000000) -> list[Permutation]:
    """Brute-force closure; the oracle against which chain orders are checked."""
    if not generators:
        return []
    ident = Permutation.identity(generators[0].degree)
    return sorted(orbit([ident], generators, Permutation.__mul__, limit),
                  key=lambda p: p.images.tobytes())
