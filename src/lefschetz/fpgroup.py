"""Finitely presented groups: presentations, abelianization, coset enumeration.

The enumeration is the classic HLT strategy over the trivial subgroup
with a lookahead pass when the coset limit is hit (Havas-Lindsey-Trotter
relator scanning; see Holt, "Handbook of Computational Group Theory",
ch. 5 for the textbook formulation).  The strategy is frozen so results
and coset counts are reproducible:

* cosets are defined at the leftmost undefined position of the current
  relator scan, relators processed in presentation order;
* after relator scans, remaining row entries are filled in alphabet
  order (g1, g1^-1, g2, ...);
* coincidences merge toward the smaller coset number;
* when the live-coset limit is hit, one lookahead pass rescans every
  relator at every live coset without defining; enumeration resumes
  only if the pass freed space.

Abelianization runs an integer Smith normal form with exact big-integer
arithmetic, pivoting on the entry of smallest nonzero absolute value to
bound coefficient growth.

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


def _smith_diagonal(rows: list[list[int]], ncols: int) -> list[int]:
    """Positive diagonal d1 | d2 | ... of the Smith normal form."""
    m = [list(r) for r in rows]
    nrows = len(m)
    t = 0
    while t < nrows and t < ncols:
        while True:
            pivot = None
            best = None
            for i in range(t, nrows):
                row = m[i]
                for j in range(t, ncols):
                    v = abs(row[j])
                    if v and (best is None or v < best):
                        best, pivot = v, (i, j)
            if pivot is None:
                return [m[i][i] for i in range(t)]
            i0, j0 = pivot
            m[t], m[i0] = m[i0], m[t]
            if j0 != t:
                for row in m:
                    row[t], row[j0] = row[j0], row[t]
            if m[t][t] < 0:
                m[t] = [-v for v in m[t]]
            d = m[t][t]
            for i in range(t + 1, nrows):
                q = m[i][t] // d
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
            if any(m[i][t] for i in range(t + 1, nrows)):
                continue  # a remainder smaller than the pivot appeared
            for j in range(t + 1, ncols):
                q = m[t][j] // d
                if q:
                    for i in range(t, nrows):
                        m[i][j] -= q * m[i][t]
            if any(m[t][j] for j in range(t + 1, ncols)):
                continue
            violation = next(
                (
                    i
                    for i in range(t + 1, nrows)
                    if any(m[i][j] % d for j in range(t + 1, ncols))
                ),
                None,
            )
            if violation is None:
                break
            m[t] = [a + b for a, b in zip(m[t], m[violation])]
        t += 1
    return [m[i][i] for i in range(t)]


def abelianization(p: GroupPresentation) -> AbelianInvariants:
    """Divisor chain of the cokernel of the relator exponent matrix."""
    sums = map(exponent_sums, p.relators)
    rows = [[row.get(name, 0) for name in p.generators] for row in sums]
    diagonal = _smith_diagonal(rows, len(p.generators))
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
        """Scan ``word`` at coset alpha; with fill, define cosets at gaps."""
        while True:
            f = alpha
            i = 0
            j = len(word) - 1
            while i <= j and self.table[f][word[i]] is not None:
                f = self.table[f][word[i]]
                i += 1
            if i > j:
                # complete forward scan; the relator must fix alpha
                if f != alpha:
                    self.coincidence(f, alpha)
                return
            b = alpha
            while j >= i and self.table[b][word[j] ^ 1] is not None:
                b = self.table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if i == j:
                # deduction: one gap closes without a new coset
                self.table[f][word[i]] = b
                self.table[b][word[i] ^ 1] = f
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
    index = {name: k for k, name in enumerate(p.generators)}
    relators = []
    for relator in p.relators:
        reduced = free_reduce(relator)
        if reduced:
            relators.append(
                tuple(
                    2 * index[name] + (0 if sign > 0 else 1)
                    for name, sign in reduced
                )
            )
    return relators


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
