"""Finitely presented groups and Todd-Coxeter coset enumeration.

Words are tuples of letters; letter 2*g is generator g, letter 2*g + 1 its
inverse.  Enumeration follows the HLT strategy (relator scanning with
definition), with in-place coincidence processing.  An enumeration that
defines more cosets than its limit, dead ones included, or runs past its
deadline raises ``permgroup.OverflowResult``; a ``CosetTable`` is always
complete.

A generator with the relator ``x x`` is an involution and gets a single
table column, its own inverse, as in the standard enumerators (Holt, Eick
& O'Brien, *Handbook of Computational Group Theory*, ch. 5); its ``x x``
relators are then not scanned.  Every other generator has a column for
itself and one for its inverse.  On the Table 1 presentations, whose four
generators are all involutions, this about halves the enumeration time.
The finished table keeps one int64 row of images per generator
(``CosetTable.columns``); an inverse letter acts by the inverse
permutation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .permgroup import OverflowResult

Word = tuple[int, ...]

DEFAULT_MAX_COSETS = 10**7


def _is_square(w: Word) -> bool:
    """True for a relator ``x x``, which makes x an involution."""
    return len(w) == 2 and w[0] == w[1]


def gen_word(*gens: int) -> Word:
    """Word from 0-based generator indices (all positive occurrences)."""
    return tuple(2 * g for g in gens)


@dataclass(frozen=True)
class Presentation:
    """Generator names plus relator words."""

    names: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        width = 2 * len(self.names)
        for w in self.relators:
            if not w:
                raise ValueError("empty relator")
            if any(x < 0 or x >= width for x in w):
                raise ValueError(f"relator letter out of range: {w}")

    @property
    def ngens(self) -> int:
        return len(self.names)


# -- coset enumeration --------------------------------------------------------


@dataclass
class CosetTable:
    """A complete coset table.

    ``columns`` is an (ngens, num_cosets) int64 array: ``columns[g, c]`` is
    the image of coset c under generator g, each row a permutation of
    {0, ..., num_cosets - 1}, and coset 0 is the subgroup.
    """

    columns: np.ndarray = field(repr=False)
    cosets_defined: int = 0

    @property
    def num_cosets(self) -> int:
        return self.columns.shape[1]


class _Enumerator:
    """HLT coset enumerator (single use).

    Table entries are indexed by column: ``col`` maps each letter to its
    column and ``inv`` each column to its inverse column (one self-inverse
    column per involution, as the module docstring says).
    """

    def __init__(self, pres: Presentation, subgens: tuple[Word, ...],
                 max_cosets: int, deadline: float | None):
        involutions = {w[0] >> 1 for w in pres.relators if _is_square(w)}
        col: list[int] = []
        inv: list[int] = []
        for g in range(pres.ngens):
            c = len(inv)
            if g in involutions:
                col += (c, c)
                inv.append(c)
            else:
                col += (c, c + 1)
                inv += (c + 1, c)
        self.col = col
        self.inv = inv
        self.width = len(inv)
        self.relators = [tuple(col[x] for x in w) for w in pres.relators
                         if not _is_square(w)]
        self.sub_columns = [tuple(col[x] for x in w) for w in subgens]
        self.max_cosets = max_cosets
        self.deadline = deadline
        self.table: list[list[int]] = [[-1] * self.width]
        self.p = [0]
        self.queue: list[int] = []

    # union-find over cosets; p[i] <= i always
    def rep(self, k: int) -> int:
        lam = k
        p = self.p
        while p[lam] != lam:
            lam = p[lam]
        mu = k
        while p[mu] != lam:
            p[mu], mu = lam, p[mu]
        return lam

    def define(self, alpha: int, x: int) -> int:
        beta = len(self.table)
        self.table.append([-1] * self.width)
        self.p.append(beta)
        self.table[alpha][x] = beta
        self.table[beta][self.inv[x]] = alpha
        return beta

    def merge(self, k: int, lam: int):
        phi, psi = self.rep(k), self.rep(lam)
        if phi != psi:
            mu, nu = (phi, psi) if phi < psi else (psi, phi)
            self.p[nu] = mu
            self.queue.append(nu)

    def coincidence(self, alpha: int, beta: int):
        table = self.table
        inv = self.inv
        self.merge(alpha, beta)
        while self.queue:
            gamma = self.queue.pop()
            for x in range(self.width):
                delta = table[gamma][x]
                if delta == -1:
                    continue
                xi = inv[x]
                table[delta][xi] = -1
                mu = self.rep(gamma)
                nu = self.rep(delta)
                if table[mu][x] != -1:
                    self.merge(nu, table[mu][x])
                elif table[nu][xi] != -1:
                    self.merge(mu, table[nu][xi])
                else:
                    table[mu][x] = nu
                    table[nu][xi] = mu

    def scan(self, alpha: int, w: Word):
        table = self.table
        inv = self.inv
        f, i = alpha, 0
        b, j = alpha, len(w) - 1
        while True:
            while i <= j and (nxt := table[f][w[i]]) != -1:
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and (nxt := table[b][inv[w[j]]]) != -1:
                b = nxt
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                # deduction closing the gap
                table[f][w[i]] = b
                table[b][inv[w[i]]] = f
                return
            self.define(f, w[i])

    def compact(self) -> np.ndarray:
        """The live cosets renumbered 0, 1, ..., as the (ngens, live)
        array of each generator's images.

        Raises RuntimeError on an entry that is undefined or points at a
        dead coset: both map to -1, since ``remap[-1]`` is its spare last
        slot.
        """
        p = np.array(self.p)
        live = np.flatnonzero(p == np.arange(len(p)))
        remap = np.full(len(p) + 1, -1)
        remap[live] = np.arange(len(live))
        rows = [self.table[c] for c in live.tolist()]
        images = remap[np.array(rows, dtype=np.int64)]
        unclosed = np.flatnonzero((images == -1).any(axis=1))
        if len(unclosed):
            raise RuntimeError("coset table is not closed at coset"
                               f" {live[unclosed[0]]}")
        return np.ascontiguousarray(images[:, self.col[0::2]].T)

    def run(self) -> CosetTable:
        for w in self.sub_columns:
            self.scan(0, w)
        relators = self.relators
        alpha = 0
        while alpha < len(self.table):
            if alpha % 512 == 0 and self.deadline is not None \
                    and time.monotonic() > self.deadline:
                raise OverflowResult("time budget exceeded")
            if self.p[alpha] != alpha:
                alpha += 1
                continue
            for w in relators:
                self.scan(alpha, w)
                if self.p[alpha] != alpha:
                    break
            if self.p[alpha] == alpha:
                for x in range(self.width):
                    if self.table[alpha][x] == -1:
                        self.define(alpha, x)
            if len(self.table) > self.max_cosets:
                raise OverflowResult(f"coset limit {self.max_cosets} exceeded")
            alpha += 1
        return CosetTable(self.compact(), cosets_defined=len(self.table))


def coset_enumeration(pres: Presentation, subgens: list[Word] | tuple[Word, ...] = (),
                      max_cosets: int = DEFAULT_MAX_COSETS,
                      deadline: float | None = None) -> CosetTable:
    """Enumerate cosets of the subgroup generated by ``subgens``.

    Returns the complete table (index = num_cosets).  Raises OverflowResult
    past ``max_cosets`` cosets or ``deadline``, a ``time.monotonic()``
    value.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    subgens = tuple(tuple(w) for w in subgens)
    width = 2 * pres.ngens
    for w in subgens:
        if any(x < 0 or x >= width for x in w):
            raise ValueError(f"subgroup word letter out of range: {w}")
    return _Enumerator(pres, subgens, max_cosets, deadline).run()
