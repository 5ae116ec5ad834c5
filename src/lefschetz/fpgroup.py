"""Finitely presented groups: presentations, abelianization, coset enumeration.

The enumeration is the classic HLT strategy over the trivial subgroup
with a lookahead pass when the coset limit is hit (Havas-Lindsey-Trotter
relator scanning; see Holt, "Handbook of Computational Group Theory",
ch. 5 for the textbook formulation).  The strategy is frozen so results
and coset counts are reproducible:

* one scan per coset walks every relator, in presentation order, while
  the coset lives; it defines cosets at the leftmost undefined position
  until the forward and backward walks meet;
* the same scan then fills the coset's remaining row entries in
  alphabet order (g1, g1^-1, g2, ...);
* coincidences merge toward the smaller coset number;
* when the live-coset limit is hit, one lookahead pass runs that scan
  without defining at every live coset from the current one on, skipping
  those where no relator can take a first step; the coset is retried
  only if the pass freed space.

The scan reads each table entry once: one forward walk per relator,
never restarted after a gap.  A lookahead pass is one scan call over
its cosets.  Only a coincidence can kill a coset (definitions and
deductions only add entries), so the scanned coset's liveness is
tested after each coincidence and nowhere else.

The coset table is column-major: one flat list per generator and per
inverse, indexed by coset number and grown in place, with no container
per coset.  Dead cosets keep their slots until the call returns.

Abelianization takes the integer Smith normal form in exact arithmetic:
pivot on an entry of least absolute value, clear its row and column,
then sort the diagonal into a divisor chain by pairwise gcd/lcm swaps.

Enumeration is single-threaded per call; distinct calls share no state.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import compress, repeat
from operator import ne

from .invariants import _checked_genus, exact_ints
from .words import Word, exponent_sums, free_reduce, parse_word


@dataclass(frozen=True)
class GroupPresentation:
    """Finite generator list plus relator words."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        # tuples, so a list-built value equals and hashes as its twin
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(map(tuple, self.relators)))
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        declared = set(self.generators)
        for relator in self.relators:
            for name, sign in relator:
                if name not in declared:
                    raise ValueError(f"unknown generator {name!r} in relator")
                if sign.__class__ is not int or sign not in (1, -1):
                    raise ValueError(
                        f"letter {name!r} has sign {sign!r}; "
                        "it must be the int +1 or -1"
                    )


def surface_group(g: int) -> GroupPresentation:
    """The closed genus-g surface group on generators a1..ag, b1..bg.

    The single relator is the chain form
    bg~ ... b1~ (a1 b1 a1~)(a2 b2 a2~) ... (ag bg ag~).
    """
    g = _checked_genus(*exact_ints((g,), "genus"))
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
    included; ``merged`` counts the cosets coincidences killed, so
    ``cosets_defined - merged`` cosets are live at the end.
    ``deductions`` counts scans that closed their last gap without a new
    coset, and ``lookahead_passes`` the passes run at the limit.
    """

    order: int | None
    cosets_defined: int
    max_cosets: int
    merged: int = 0
    deductions: int = 0
    lookahead_passes: int = 0

    @property
    def closed(self) -> bool:
        return self.order is not None


def todd_coxeter(p: GroupPresentation, max_cosets: int = 10**6) -> EnumerationResult:
    """Enumerate cosets of the trivial subgroup; certify the group order.

    Returns Order(k) (``order=k``) when the table closes with k live
    cosets, or ``order=None`` when closing would need more than
    ``max_cosets`` live cosets even after lookahead.  Deterministic for a
    fixed presentation.

    The table is column-major: column 2k is generator k, column 2k+1 its
    inverse, and ``cols[x][k]`` is coset k's entry in column x.  Each
    relator holds the tuples of its forward and inverse column lists, so
    a lookup is ``word[i][f]``.  ``parent`` is the union-find array of
    the coincidences: defining a coset appends to it, ``len(parent)``
    counts every coset defined, and a coset is live iff
    ``parent[k] == k``.  Dead cosets keep their slots.  Only ``merge``
    moves a root, so processing a dead coset finds its representative
    once and again after each merge it makes: 35,025 → 21,433 ``rep``
    calls on S7.

    The columns start at 64 rows and grow together by a quarter when
    full.  They grow in place and are never rebound, because the relator
    tuples and ``pairs`` hold references to the lists themselves.

    ``scan(cosets, fill)`` takes an iterable of cosets: the main loop
    passes ``(alpha,)`` and each lookahead pass makes one call on the
    cosets of ``range(alpha, len(parent))`` that some relator can act
    on.  It walks each relator forward once;
    a walk with no gap goes straight to the closing test, and a gap
    hands its ``(f, i)`` to the backward walk, deduction or definition.
    Liveness of the scanned coset is tested only after a coincidence:
    definitions and deductions only add entries, and ``rep`` compresses
    paths through dead cosets only, so nothing else can kill it.

    Lookahead starts at the current coset alpha, not at 0, and that
    changes no count.  Every live coset before alpha finished its
    main-loop scan with ``fill``, so its row is complete and every
    relator closes at it.  Definitions only add entries, and a
    coincidence keeps each edge as an edge between representatives, so
    that stays true and the skipped scans would do nothing.

    A lookahead pass also skips every coset beta with no entry in any
    relator's two quick columns, ``word[0]`` and ``back[last]``.  For a
    relator of length >= 2 the forward walk stops at i = 0 and the
    backward walk at j = last > i, so without fill nothing is defined,
    deduced or merged: the scan is a no-op and skipping it changes no
    counter.  The filter runs at C level: ``compress`` over the range,
    selected by one list iterator per quick column set to alpha with
    ``__setstate__`` (``islice`` would step through alpha entries on
    every pass).  Each stage is lazy, so beta's entries are read after
    the scan of the coset before it has finished, as the plain loop
    would read them, and deductions made during the pass are seen.  A
    relator of length 1 deduces at every coset, so a presentation with
    one keeps the plain range.
    """
    (max_cosets,) = exact_ints((max_cosets,), "max_cosets")
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    capacity = 64
    cols: list[list[int | None]] = [
        [None] * capacity for _ in range(2 * len(p.generators))
    ]
    pairs = [(col, cols[x ^ 1]) for x, col in enumerate(cols)]
    column = {name: 2 * k for k, name in enumerate(p.generators)}
    relators = []
    quick: set[int] = set()  # each relator's word[0] and back[last]
    for reduced in map(free_reduce, p.relators):
        if reduced:
            xs = [column[name] + (sign < 0) for name, sign in reduced]
            word = tuple(cols[x] for x in xs)
            back = tuple(cols[x ^ 1] for x in xs)
            relators.append((word, back, len(xs) - 1))
            quick.update((xs[0], xs[-1] ^ 1))
    # a length-1 relator acts on every coset: no column can skip one
    skips = all(last for _, _, last in relators)
    parent = [0]
    queue: deque[int] = deque()
    merged = deductions = passes = 0

    def grow() -> None:
        nonlocal capacity
        extra = capacity >> 2
        for col in cols:
            col.extend(repeat(None, extra))
        capacity += extra

    def rep(k: int) -> int:
        root = k
        while parent[root] != root:
            root = parent[root]
        while parent[k] != root:
            parent[k], k = root, parent[k]
        return root

    def merge(k: int, lam: int) -> None:
        nonlocal merged
        phi, psi = rep(k), rep(lam)
        if phi != psi:
            if psi < phi:
                phi, psi = psi, phi
            parent[psi] = phi
            merged += 1
            queue.append(psi)

    def coincidence(alpha: int, beta: int) -> None:
        merge(alpha, beta)
        while queue:
            gamma = queue.popleft()
            mu = rep(gamma)  # only a merge can move gamma's root
            for col, inv in pairs:
                delta = col[gamma]
                if delta is None:
                    continue
                inv[delta] = None
                nu = delta if parent[delta] == delta else rep(delta)
                if col[mu] is not None:
                    merge(nu, col[mu])
                    mu = rep(gamma)
                elif inv[nu] is not None:
                    merge(mu, inv[nu])
                    mu = rep(gamma)
                else:
                    col[mu] = nu
                    inv[nu] = mu

    def scan(cosets: Iterable[int], fill: bool) -> bool:
        """Scan every relator at each live coset alpha of cosets while it
        lives; with fill, define cosets at gaps, then fill the rest of
        alpha's row.

        f is alpha word[:i] and b is alpha word[j+1:]^-1.  A definition
        at gap i sets ``word[i][f]`` and ``back[i][beta]`` for a fresh
        beta, then moves f to beta at i + 1 without walking on.
        Relators are freely reduced, so letter i + 1 never inverts letter
        i: ``word[i + 1]`` is never the list ``back[i]`` that holds
        beta's only entry, and the next forward lookup would always hit a
        gap.  The backward walk resumes where it stopped and can step at
        once, when letter j inverts letter i and b is the old f.
        Returns False when a definition would pass the live limit.
        """
        nonlocal deductions
        for alpha in cosets:
            if parent[alpha] != alpha:
                continue
            for word, back, last in relators:
                f = alpha
                i = 0
                for col in word:
                    nxt = col[f]
                    if nxt is None:
                        break
                    f = nxt
                    i += 1
                else:  # no gap: only the closing test is left
                    if f != alpha:
                        coincidence(f, alpha)
                        if parent[alpha] != alpha:
                            break
                    continue
                b, j = alpha, last
                while True:
                    while j >= i:
                        nxt = back[j][b]
                        if nxt is None:
                            break
                        b = nxt
                        j -= 1
                    if j <= i or not fill:
                        break
                    beta = len(parent)
                    if beta - merged >= max_cosets:
                        return False
                    if beta == capacity:
                        grow()
                    parent.append(beta)
                    back[i][beta] = f
                    word[i][f] = beta
                    f = beta
                    i += 1
                if j == i:
                    # deduction: one gap closes without a new coset
                    word[i][f] = b
                    back[i][b] = f
                    deductions += 1
                elif j < i and f != b:
                    coincidence(f, b)
                    if parent[alpha] != alpha:
                        break
            else:  # alpha lived through every relator
                if fill:
                    for col, inv in pairs:
                        if col[alpha] is None:
                            beta = len(parent)
                            if beta - merged >= max_cosets:
                                return False
                            if beta == capacity:
                                grow()
                            parent.append(beta)
                            col[alpha] = beta
                            inv[beta] = alpha
        return True

    alpha = 0
    while alpha < len(parent):
        # a dead alpha skips the call; scan tests it again for lookahead
        if parent[alpha] != alpha or scan((alpha,), True):
            alpha += 1
            continue
        # the table is full: lookahead, then retry alpha if space was freed
        passes += 1
        before = merged
        cosets = range(alpha, len(parent))
        if skips:
            its = [iter(cols[x]) for x in sorted(quick)]
            for it in its:
                it.__setstate__(alpha)
            empty = (None,) * len(its)
            cosets = compress(cosets, map(ne, zip(*its), repeat(empty)))
        scan(cosets, False)
        if merged == before:
            break  # nothing freed: alpha stays short of the table's end
    order = len(parent) - merged if alpha == len(parent) else None
    return EnumerationResult(
        order, len(parent), max_cosets, merged, deductions, passes
    )
