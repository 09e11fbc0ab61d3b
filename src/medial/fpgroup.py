"""Finitely presented groups and Todd-Coxeter coset enumeration.

Words are tuples of letters; letter 2*g is generator g, letter 2*g + 1 its
inverse.  Enumeration follows the HLT strategy (relator scanning with
fill), with in-place coincidence processing and a single lookahead pass
when the coset limit is reached.  Overflow is a first-class result, not an
exception.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field

from .permgroup import Permutation, PermutationGroup

Word = tuple[int, ...]

DEFAULT_MAX_COSETS = 10**7


def inv_letter(x: int) -> int:
    return x ^ 1


def invert_word(w: Word) -> Word:
    return tuple(inv_letter(x) for x in reversed(w))


def word_power(w: Word, n: int) -> Word:
    if n < 0:
        return invert_word(w) * (-n)
    return w * n


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

    def word_to_str(self, w: Word) -> str:
        parts = []
        for x in w:
            name = self.names[x // 2]
            parts.append(name if x % 2 == 0 else f"{name}^-1")
        return " ".join(parts)

    def parse_word(self, text: str) -> Word:
        return parse_word(text, self.names)

    def __str__(self) -> str:
        rels = ", ".join(self.word_to_str(w) for w in self.relators)
        return f"gens: {' '.join(self.names)}; rels: {rels}"


# -- word / presentation parsing ---------------------------------------------


class _Lexer:
    def __init__(self, text: str, names: tuple[str, ...]):
        self.text = text
        self.pos = 0
        # Greedy, longest-name-first matching lets single-letter names be
        # juxtaposed (e.g. "(ab)^3") while multi-char names need spaces.
        self.names = sorted(names, key=len, reverse=True)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take_name(self) -> str | None:
        self.skip_ws()
        for name in self.names:
            if self.text.startswith(name, self.pos):
                self.pos += len(name)
                return name
        return None

    def take_int(self) -> int:
        self.skip_ws()
        m = re.match(r"[+-]?\d+", self.text[self.pos:])
        if not m:
            raise ValueError(f"expected integer at {self.text[self.pos:]!r}")
        self.pos += m.end()
        return int(m.group())


def parse_word(text: str, names: tuple[str, ...] | list[str]) -> Word:
    """Parse e.g. ``r0 r1 r2 r1^-1`` or ``(ab)^3 b^2``."""
    names = tuple(names)
    index = {n: i for i, n in enumerate(names)}
    lx = _Lexer(text, names)

    def word(depth: int) -> Word:
        out: list[int] = []
        while True:
            ch = lx.peek()
            if ch is None or ch == ")" or ch == ",":
                break
            if ch == "(":
                lx.pos += 1
                inner = word(depth + 1)
                if lx.peek() != ")":
                    raise ValueError(f"unbalanced parenthesis in {text!r}")
                lx.pos += 1
                out.extend(_exponent(lx, inner))
            else:
                name = lx.take_name()
                if name is None:
                    raise ValueError(f"unknown token at {lx.text[lx.pos:]!r} in {text!r}")
                out.extend(_exponent(lx, (2 * index[name],)))
        return tuple(out)

    w = word(0)
    lx.skip_ws()
    if lx.pos != len(text.strip()) and lx.pos < len(lx.text):
        remaining = lx.text[lx.pos:].strip()
        if remaining:
            raise ValueError(f"trailing input {remaining!r} in {text!r}")
    return w


def _exponent(lx: _Lexer, base: Word) -> Word:
    if lx.peek() == "^":
        lx.pos += 1
        return word_power(base, lx.take_int())
    return base


def parse_presentation(text: str) -> Presentation:
    """Parse ``gens: a b c; rels: a^2, (ab)^3, ...``."""
    m = re.match(r"\s*gens\s*:\s*(.*?)\s*;\s*rels\s*:\s*(.*)\s*$", text, re.DOTALL)
    if not m:
        raise ValueError("presentation must look like 'gens: ...; rels: ...'")
    names = tuple(m.group(1).split())
    if len(set(names)) != len(names) or not names:
        raise ValueError("generator names must be nonempty and distinct")
    rel_texts = [r.strip() for r in m.group(2).split(",") if r.strip()]
    relators = tuple(parse_word(r, names) for r in rel_texts)
    return Presentation(names=names, relators=relators)


# -- coset enumeration --------------------------------------------------------


@dataclass
class CosetTable:
    """Result of a coset enumeration.

    When complete, ``rows[c][x]`` is the image of coset c under letter x
    (letters as in the module docstring) and the action of every generator
    is a permutation of {0, ..., num_cosets - 1} fixing the subgroup as
    coset 0.
    """

    presentation: Presentation
    subgroup_words: tuple[Word, ...]
    status: str  # "complete" | "overflow"
    num_cosets: int
    rows: list[list[int]] = field(repr=False, default_factory=list)
    reason: str = ""
    cosets_defined: int = 0

    @property
    def is_complete(self) -> bool:
        return self.status == "complete"

    def apply_word(self, coset: int, w: Word) -> int:
        for x in w:
            coset = self.rows[coset][x]
        return coset

    def generator_permutations(self) -> list[Permutation]:
        if not self.is_complete:
            raise RuntimeError("coset table is not complete")
        return [
            Permutation([self.rows[c][2 * g] for c in range(self.num_cosets)])
            for g in range(self.presentation.ngens)
        ]

    def permutation_representation(self) -> PermutationGroup:
        return PermutationGroup(self.generator_permutations(), degree=self.num_cosets)


def subgroup_order(table: CosetTable, full_order: int) -> int:
    """Order of the enumerated subgroup inside a group of known order."""
    if not table.is_complete:
        raise RuntimeError("coset table is not complete")
    if full_order % table.num_cosets != 0:
        raise ArithmeticError(
            f"index {table.num_cosets} does not divide order {full_order}")
    return full_order // table.num_cosets


class _Enumerator:
    """HLT coset enumerator (single use)."""

    def __init__(self, pres: Presentation, subgens: tuple[Word, ...],
                 max_cosets: int, deadline: float | None):
        self.pres = pres
        self.subgens = subgens
        self.width = 2 * pres.ngens
        self.max_cosets = max_cosets
        self.deadline = deadline
        self.table: list[list[int]] = [[-1] * self.width]
        self.p = [0]
        self.n_live = 1
        self.queue: list[int] = []
        self.timed_out = False

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
        self.n_live += 1
        self.table[alpha][x] = beta
        self.table[beta][inv_letter(x)] = alpha
        return beta

    def merge(self, k: int, lam: int):
        phi, psi = self.rep(k), self.rep(lam)
        if phi != psi:
            mu, nu = (phi, psi) if phi < psi else (psi, phi)
            self.p[nu] = mu
            self.n_live -= 1
            self.queue.append(nu)

    def coincidence(self, alpha: int, beta: int):
        table = self.table
        self.merge(alpha, beta)
        while self.queue:
            gamma = self.queue.pop()
            for x in range(self.width):
                delta = table[gamma][x]
                if delta == -1:
                    continue
                table[delta][inv_letter(x)] = -1
                mu = self.rep(gamma)
                nu = self.rep(delta)
                if table[mu][x] != -1:
                    self.merge(nu, table[mu][x])
                elif table[nu][inv_letter(x)] != -1:
                    self.merge(mu, table[nu][inv_letter(x)])
                else:
                    table[mu][x] = nu
                    table[nu][inv_letter(x)] = mu

    def scan(self, alpha: int, w: Word, fill: bool):
        table = self.table
        f, i = alpha, 0
        b, j = alpha, len(w) - 1
        while True:
            while i <= j and table[f][w[i]] != -1:
                f = table[f][w[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and table[b][inv_letter(w[j])] != -1:
                b = table[b][inv_letter(w[j])]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                # deduction closing the gap
                table[f][w[i]] = b
                table[b][inv_letter(w[i])] = f
                return
            if not fill:
                return
            self.define(f, w[i])

    def over_limit(self) -> bool:
        return len(self.table) > self.max_cosets

    def check_deadline(self) -> bool:
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.timed_out = True
            return True
        return False

    def lookahead(self):
        """Scan every relator at every live coset without defining cosets."""
        alpha = 0
        while alpha < len(self.table):
            if self.p[alpha] == alpha:
                for w in self.pres.relators:
                    self.scan(alpha, w, fill=False)
                    if self.p[alpha] != alpha:
                        break
            alpha += 1

    def compact(self) -> tuple[list[list[int]], int]:
        live = [c for c in range(len(self.table)) if self.p[c] == c]
        remap = {c: i for i, c in enumerate(live)}
        rows = []
        for c in live:
            rows.append([
                -1 if v == -1 else remap[self.rep(v)] for v in self.table[c]
            ])
        return rows, len(live)

    def run(self) -> CosetTable:
        for w in self.subgens:
            self.scan(0, w, fill=True)
        relators = self.pres.relators
        alpha = 0
        did_lookahead = False
        overflow = False
        while alpha < len(self.table):
            if alpha % 512 == 0 and self.check_deadline():
                overflow = True
                break
            if self.p[alpha] != alpha:
                alpha += 1
                continue
            for w in relators:
                self.scan(alpha, w, fill=True)
                if self.p[alpha] != alpha:
                    break
            if self.p[alpha] == alpha:
                for x in range(self.width):
                    if self.table[alpha][x] == -1:
                        self.define(alpha, x)
            if self.over_limit():
                if not did_lookahead:
                    self.lookahead()
                    did_lookahead = True
                if self.over_limit():
                    overflow = True
                    break
            alpha += 1
        if overflow:
            reason = "time budget exceeded" if self.timed_out else \
                f"coset limit {self.max_cosets} exceeded"
            return CosetTable(
                presentation=self.pres, subgroup_words=self.subgens,
                status="overflow", num_cosets=self.n_live, rows=[],
                reason=reason, cosets_defined=len(self.table))
        rows, n = self.compact()
        assert all(v != -1 for row in rows for v in row)
        return CosetTable(
            presentation=self.pres, subgroup_words=self.subgens,
            status="complete", num_cosets=n, rows=rows,
            cosets_defined=len(self.table))


def coset_enumeration(pres: Presentation, subgens: list[Word] | tuple[Word, ...] = (),
                      max_cosets: int = DEFAULT_MAX_COSETS,
                      time_budget: float | None = None) -> CosetTable:
    """Enumerate cosets of the subgroup generated by ``subgens``.

    Returns a complete table (index = num_cosets) or an overflow result when
    the coset limit or time budget is hit.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    subgens = tuple(tuple(w) for w in subgens)
    width = 2 * pres.ngens
    for w in subgens:
        if any(x < 0 or x >= width for x in w):
            raise ValueError(f"subgroup word letter out of range: {w}")
    deadline = None if time_budget is None else time.monotonic() + time_budget
    return _Enumerator(pres, subgens, max_cosets, deadline).run()
