"""Finitely presented groups: presentations, abelianization, coset enumeration.

The enumeration is the classic HLT strategy over the trivial subgroup
with a lookahead pass when the coset limit is hit (Havas-Lindsey-Trotter
relator scanning; see Holt, "Handbook of Computational Group Theory",
ch. 5 for the textbook formulation).  The strategy is frozen so results
and coset counts are reproducible:

* cosets are defined at the leftmost undefined position of the current
  relator scan, relators processed in presentation order; a scan resumes
  its forward and backward paths after each definition;
* after relator scans, remaining row entries are filled in alphabet
  order (g1, g1^-1, g2, ...);
* coincidences merge toward the smaller coset number;
* when the live-coset limit is hit, one lookahead pass rescans every
  relator at every live coset without defining; enumeration resumes
  only if the pass freed space.

Abelianization takes the integer Smith normal form in exact arithmetic:
pivot on an entry of least absolute value, clear its row and column,
then sort the diagonal into a divisor chain by pairwise gcd/lcm swaps.

Enumeration is single-threaded per call; distinct calls share no state.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .surface import exact_ints
from .words import Word, exponent_sums, free_reduce, parse_word


@dataclass(frozen=True)
class GroupPresentation:
    """Finite generator list plus relator words."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        declared = set(self.generators)
        for relator in self.relators:
            for name, _sign in relator:
                if name not in declared:
                    raise ValueError(f"unknown generator {name!r} in relator")


def surface_group(g: int) -> GroupPresentation:
    """The closed genus-g surface group on generators a1..ag, b1..bg.

    The single relator is the chain form
    bg~ ... b1~ (a1 b1 a1~)(a2 b2 a2~) ... (ag bg ag~).
    """
    (g,) = exact_ints((g,), "genus")
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    head = " ".join(f"b{i}~" for i in range(g, 0, -1))
    tail = " ".join(f"a{i} b{i} a{i}~" for i in range(1, g + 1))
    relator = parse_word(head + " " + tail)
    generators = tuple(f"a{i}" for i in range(1, g + 1)) + tuple(
        f"b{i}" for i in range(1, g + 1)
    )
    return GroupPresentation(generators=generators, relators=(relator,))


def quotient_by_cycles(
    p: GroupPresentation, cycles: list[Word] | tuple[Word, ...]
) -> GroupPresentation:
    """Quotient by the normal closure of the given words (append relators)."""
    return GroupPresentation(
        generators=p.generators, relators=p.relators + tuple(cycles)
    )


# -- abelianization ---------------------------------------------------------


@dataclass(frozen=True)
class AbelianInvariants:
    """Divisor chain d1 | d2 | ... of H1; entries > 1, with 0 = free factor.

    The group is trivial iff the chain is empty; the order is the product
    of the entries when none is zero, infinite otherwise.
    """

    divisors: tuple[int, ...]

    @property
    def is_trivial(self) -> bool:
        return not self.divisors

    @property
    def order(self) -> int | None:
        return None if 0 in self.divisors else math.prod(self.divisors)


def _smith_diagonal(rows: list[list[int]]) -> list[int]:
    """Positive diagonal d1 | d2 | ... of the Smith normal form.

    A remainder left by clearing is smaller than its pivot, so it becomes
    a later pivot and the rounds end.  diag(a, b) and diag(gcd, lcm) have
    the same cokernel and the Smith form is unique, so the swaps give it.
    """
    m = [list(r) for r in rows]
    diagonal = []
    while True:
        nonzero = [
            (abs(v), i, j) for i, row in enumerate(m) for j, v in enumerate(row) if v
        ]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        pivot = m[i][j]
        for k, row in enumerate(m):
            q = row[j] // pivot
            if q and k != i:
                m[k] = [a - q * b for a, b in zip(row, m[i])]
        for col, v in enumerate(m[i]):
            q = v // pivot
            if q and col != j:
                for row in m:
                    row[col] -= q * row[j]
        if sum(map(bool, m[i])) == 1 and sum(bool(row[j]) for row in m) == 1:
            diagonal.append(abs(pivot))
            del m[i]
            for row in m:
                del row[j]
    for a in range(len(diagonal)):
        for b in range(a + 1, len(diagonal)):
            d = math.gcd(diagonal[a], diagonal[b])
            diagonal[a], diagonal[b] = d, diagonal[a] * diagonal[b] // d
    return diagonal


def abelianization(p: GroupPresentation) -> AbelianInvariants:
    """Divisor chain of the cokernel of the relator exponent matrix."""
    sums = map(exponent_sums, p.relators)
    rows = [[row.get(name, 0) for name in p.generators] for row in sums]
    diagonal = _smith_diagonal(rows)
    torsion = tuple(d for d in diagonal if d > 1)
    free_rank = len(p.generators) - len(diagonal)
    return AbelianInvariants(torsion + (0,) * free_rank)


# -- coset enumeration ------------------------------------------------------


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of a coset enumeration over the trivial subgroup.

    ``order`` is the number of live cosets when the table closed, or None
    when the limit was exceeded (which is data, not an error).
    ``cosets_defined`` counts every coset ever defined, dead ones
    included.
    """

    order: int | None
    cosets_defined: int
    max_cosets: int

    @property
    def closed(self) -> bool:
        return self.order is not None


class _TableFull(Exception):
    pass


class _CosetTable:
    """HLT coset table over the trivial subgroup.

    Columns alternate generator and inverse: column 2k is generator k,
    column 2k+1 its inverse.  ``p`` is the union-find array of the
    coincidence machinery; a coset is live iff p[k] == k.
    """

    def __init__(self, ncols: int, max_cosets: int):
        self.ncols = ncols
        self.max_cosets = max_cosets
        self.table: list[list[int | None]] = [[None] * ncols]
        self.p = [0]
        self.live = 1
        self.defined = 1

    def rep(self, k: int) -> int:
        p = self.p
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def define(self, alpha: int, x: int) -> None:
        if self.live >= self.max_cosets:
            raise _TableFull
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(beta)
        self.live += 1
        self.defined += 1
        self.table[alpha][x] = beta
        self.table[beta][x ^ 1] = alpha

    def _merge(self, k: int, lam: int, queue: deque) -> None:
        phi, psi = self.rep(k), self.rep(lam)
        if phi == psi:
            return
        mu, nu = (phi, psi) if phi < psi else (psi, phi)
        self.p[nu] = mu
        self.live -= 1
        queue.append(nu)

    def coincidence(self, alpha: int, beta: int) -> None:
        queue: deque = deque()
        self._merge(alpha, beta, queue)
        while queue:
            gamma = queue.popleft()
            row = self.table[gamma]
            for x in range(self.ncols):
                delta = row[x]
                if delta is None:
                    continue
                self.table[delta][x ^ 1] = None
                mu = self.rep(gamma)
                nu = self.rep(delta)
                if self.table[mu][x] is not None:
                    self._merge(nu, self.table[mu][x], queue)
                elif self.table[nu][x ^ 1] is not None:
                    self._merge(mu, self.table[nu][x ^ 1], queue)
                else:
                    self.table[mu][x] = nu
                    self.table[nu][x ^ 1] = mu

    def scan(self, alpha: int, word: tuple[int, ...], fill: bool) -> None:
        """Scan ``word`` at coset alpha; with fill, define cosets at gaps.

        f is alpha word[:i] and b is alpha word[j+1:]^-1.  A ``define`` only
        adds entries, so each pass resumes both paths where the last stopped.
        """
        table = self.table
        f, i, b, j = alpha, 0, alpha, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f = table[f][word[i]]
                i += 1
            while j >= i and table[b][word[j] ^ 1] is not None:
                b = table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                if f != b:
                    self.coincidence(f, b)
                return
            if i == j:
                # deduction: one gap closes without a new coset
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            if not fill:
                return
            self.define(f, word[i])

    def scan_relators(self, alpha: int, relators, fill: bool) -> bool:
        """Scan each relator at coset alpha while it lives; whether it still does."""
        p = self.p
        for relator in relators:
            if p[alpha] != alpha:
                return False
            self.scan(alpha, relator, fill)
        return p[alpha] == alpha


def _relator_columns(p: GroupPresentation) -> list[tuple[int, ...]]:
    column = {name: 2 * k for k, name in enumerate(p.generators)}
    return [
        tuple(column[name] + (sign < 0) for name, sign in reduced)
        for reduced in map(free_reduce, p.relators)
        if reduced
    ]


def todd_coxeter(p: GroupPresentation, max_cosets: int = 10**6) -> EnumerationResult:
    """Enumerate cosets of the trivial subgroup; certify the group order.

    Returns Order(k) (``order=k``) when the table closes with k live
    cosets, or ``order=None`` when closing would need more than
    ``max_cosets`` live cosets even after lookahead.  Deterministic for a
    fixed presentation.
    """
    (max_cosets,) = exact_ints((max_cosets,), "max_cosets")
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    relators = _relator_columns(p)
    table = _CosetTable(2 * len(p.generators), max_cosets)

    alpha = 0
    while alpha < len(table.table):
        try:
            if table.scan_relators(alpha, relators, fill=True):
                row = table.table[alpha]
                for x in range(table.ncols):
                    if row[x] is None:
                        table.define(alpha, x)
        except _TableFull:
            before = table.live
            for gamma in range(len(table.table)):
                table.scan_relators(gamma, relators, fill=False)
            if table.live >= before or table.live >= max_cosets:
                return EnumerationResult(
                    order=None,
                    cosets_defined=table.defined,
                    max_cosets=max_cosets,
                )
            continue  # retry the same coset with the freed space
        alpha += 1
    return EnumerationResult(
        order=table.live, cosets_defined=table.defined, max_cosets=max_cosets
    )
