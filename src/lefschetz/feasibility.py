"""Feasibility of fiber-count vectors and minimal-fiber-count bounds.

A count vector (n, s_1, ..., s_{floor(g/2)}) for a hyperelliptic
fibration on a simply-connected 4-manifold must pass, in this frozen
order, with q = 2g + 1, e = 4 - 4g + n + s and the integer signature
numerator sigma_q = q sigma = -(g+1) n + sum_h (4h(g-h) - q) s_h:

    1. total        n + s < max_total_fibers
    2. n-lower      n >= 4g
    3. congruence   n + sum_h 2h(4h+2) s_h = 0 mod 4q (g odd), 2q (g even)
    4. sigma-int    q | sigma_q (sigma is an integer)
    5. sigma-bound  sigma_q <= (n - s - 4g) q
    6. chi-h        chi_h = (e + sigma)/4 is an integer >= 1:
                    4q | (e q + sigma_q) and e q + sigma_q >= 4q

The first failing constraint is recorded, so rejection diagnostics are
reproducible.  Stage 4 is implied by stage 3 and is never recorded: q is
odd and 2g = -1 mod q, so -2 sigma_q = n + sum_h 2h(4h+2) s_h mod q, which
the congruence makes 0.  Rows failing only the chi-h stage ("pre-chi
survivors") are reported distinctly from admitted rows, because the two
stages play different roles in the bound arguments.

One integer kernel, ``_verdict``, decides every row for
``check_counts``, ``enumerate_feasible`` and the hyperelliptic floor; it
takes the s-only sums of ``invariants._s_terms`` and adds the parts that
depend on n.  A row's sigma is ``hyperelliptic_signature``, one exact
``Fraction`` of the same numerator, and chi_h comes from it and
``euler_characteristic``; neither is cached on the row.
``enumerate_feasible`` returns sized, re-iterable lazy rows.  Each pass
builds the vectors s with sum(s) <= max_total_fibers - 1 once, as
lexicographic blocks (``_blocks``: one per prefix s_1..s_{w-1}, with
s_w rising), each entry with its s-only sums built by addition.  It
then steps n upwards, reads each block's slice of totals below
max_total_fibers - n and yields the rows one at a time.  An enumerated
row holds its verdict and one pair (n, shared block entry); its counts
are built on first read, by a descriptor on the ``counts`` slot, and
kept.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from itertools import count, repeat
from math import comb

from .invariants import (
    FiberCounts,
    _h_coefficients,
    _s_terms,
    euler_characteristic,
    exact_ints,
    hyperelliptic_signature,
    min_nonseparating_bound,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # names for annotations only; fractions loads on first use
    from fractions import Fraction

ADMITTED = "admitted"
REJECT_TOTAL = "total"
REJECT_N_LOWER = "n-lower-bound"
REJECT_CONGRUENCE = "congruence"
REJECT_SIGMA_INTEGRAL = "sigma-integrality"
REJECT_SIGMA_BOUND = "sigma-bound"
REJECT_CHI_H = "chi-h"
_VERDICTS = (ADMITTED, REJECT_TOTAL, REJECT_N_LOWER, REJECT_CONGRUENCE,
             REJECT_SIGMA_INTEGRAL, REJECT_SIGMA_BOUND, REJECT_CHI_H)


@dataclass(frozen=True)
class ConstraintProfile:
    """What to enumerate: a genus and a strict bound on the fiber total.

    Every profile is hyperelliptic, since only there do the counts fix
    sigma.  ``hyperelliptic`` is an init-only keyword, not a field: it
    accepts True, its default, and raises ValueError on anything else.
    """

    genus: int
    max_total_fibers: int
    hyperelliptic: InitVar[bool] = True

    def __post_init__(self, hyperelliptic: bool) -> None:
        genus, bound = exact_ints(
            (self.genus, self.max_total_fibers), "genus and max_total_fibers"
        )
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "max_total_fibers", bound)
        if genus < 1:
            raise ValueError(f"genus must be >= 1, got {genus}")
        if bound < 1:
            raise ValueError("max_total_fibers must be >= 1")
        if hyperelliptic is not True:
            raise ValueError(
                "profile is not hyperelliptic: sigma is determined by the "
                f"counts only for hyperelliptic fibrations, got {hyperelliptic!r}"
            )


@dataclass(frozen=True)
class FeasibilityRow:
    """One evaluated count vector and its verdict; invariants derive on read.

    The checking constructor fills ``counts`` and ``verdict``.  An
    enumerated row instead holds its verdict and, in ``_source``, the pair
    (n, entry), where entry is the block entry (g, s, *_s_terms(g, s)) that
    every row of that s shares.  Its ``counts`` slot stays unset until the
    first read, which builds the counts and keeps them (``_CountsSlot``).
    Every other attribute is a plain slot or class lookup.  Copies and
    pickles rebuild through the checking constructor.
    """

    __slots__ = ("counts", "verdict", "_source")
    counts: FiberCounts
    verdict: str

    def __post_init__(self) -> None:
        if not isinstance(self.counts, FiberCounts) or self.verdict not in _VERDICTS:
            raise ValueError(
                f"a row needs FiberCounts and a verdict in {_VERDICTS}, "
                f"got {self.counts!r} and {self.verdict!r}"
            )

    def __reduce__(self):
        return type(self), (self.counts, self.verdict)

    @property
    def sigma(self) -> Fraction:
        return hyperelliptic_signature(self.counts)[0]

    @property
    def sigma_integral(self) -> bool:
        return hyperelliptic_signature(self.counts)[1]

    @property
    def chi_h(self) -> Fraction:
        return (euler_characteristic(self.counts) + self.sigma) / 4

    @property
    def admitted(self) -> bool:
        return self.verdict == ADMITTED

    @property
    def pre_chi_survivor(self) -> bool:
        return self.verdict in (ADMITTED, REJECT_CHI_H)


class _CountsSlot:
    """``FeasibilityRow.counts``: the slot, filled on an enumerated row's
    first read.

    It wraps the slot's member descriptor and is installed after
    ``@dataclass`` has run, so the fields stay (counts, verdict).  Being a
    data descriptor, it is found before any instance lookup, and a row's
    other attributes need no fallback hook.  An empty slot is filled
    through the slot setters, as in ``_rows``: g is a checked profile
    genus, n and s come from ``range``, and s has width g // 2.
    """

    __slots__ = ("_get", "_set")

    def __init__(self, member) -> None:
        self._get, self._set = member.__get__, member.__set__

    def __get__(self, row, owner=None):
        if row is None:
            return self
        try:
            return self._get(row)
        except AttributeError:
            pass
        n, (g, s, *_) = row._source
        counts = object.__new__(FiberCounts)
        _set_genus(counts, g)
        _set_n(counts, n)
        _set_s(counts, s)
        self._set(row, counts)
        return counts

    def __set__(self, row, counts: FiberCounts) -> None:
        self._set(row, counts)


FeasibilityRow.counts = _CountsSlot(FeasibilityRow.counts)
_set_genus, _set_n, _set_s = (f.__set__ for f in (FiberCounts.genus, FiberCounts.n, FiberCounts.s))
_set_verdict, _set_source = (
    f.__set__ for f in (FeasibilityRow.verdict, FeasibilityRow._source)
)


def _verdict(g: int, n: int, terms: tuple, bound: int) -> str:
    """The first failing stage for (n, s) at genus g below ``bound``, in
    integers.  ``terms`` ends with ``_s_terms(g, s)``: it is those sums or a
    block entry (g, s, *sums), so only n's parts are added."""
    s_total, s_weighted, s_sigma_q = terms[-3:]
    total = n + s_total
    if total >= bound:
        return REJECT_TOTAL
    if n < 4 * g:
        return REJECT_N_LOWER
    q = 2 * g + 1
    if (n + s_weighted) % ((4 if g % 2 else 2) * q):
        return REJECT_CONGRUENCE
    sigma_q = s_sigma_q - (g + 1) * n
    if sigma_q > (n - s_total - 4 * g) * q:
        return REJECT_SIGMA_BOUND
    chi_4q = (4 - 4 * g + total) * q + sigma_q  # 4 q chi_h
    if chi_4q % (4 * q) or chi_4q < 4 * q:
        return REJECT_CHI_H
    return ADMITTED


def check_counts(c: FiberCounts, p: ConstraintProfile) -> FeasibilityRow:
    """Evaluate the constraint chain; verdict carries the first failure."""
    if c.genus != p.genus:
        raise ValueError(f"counts are genus {c.genus}, profile genus {p.genus}")
    return FeasibilityRow(
        c, _verdict(c.genus, c.n, _s_terms(c.genus, c.s), p.max_total_fibers)
    )


def _blocks(g: int, budget: int) -> list[tuple[int, list[tuple]]]:
    """Every s of width w = floor(g/2) with entries >= 0 and sum(s) <=
    ``budget``, as flat entries (g, s, *_s_terms(g, s)) in lexicographic
    blocks.

    There is one block per prefix s_1..s_{w-1} (one block in all for
    w <= 1), paired with the prefix's total t.  Inside a block s_w rises
    from 0 to budget - t, so for t < room the entries with total < room are
    ``block[:room - t]``.  The blocks come in lexicographic order of their
    prefixes, so read in turn they give every s in lexicographic order.
    Prefixes grow one entry at a time, and each step adds the entry's
    coefficients (``invariants._h_coefficients``) to the prefix's sums.
    Blocks are lists, so their slices are lists too: tuple slices of every
    length up to 20 pile up on CPython's per-size tuple free lists over a
    long run, which raised the ``enumerate`` benchmark's peak RSS by about
    a quarter.
    """
    if budget < 0:
        return []
    w = g // 2
    if not w:
        return [(0, [(g, (), 0, 0, 0)])]
    tails = [(x,) for x in range(budget + 1)]
    level = [((), 0, 0, 0)]  # prefixes (s, total, weighted, sigma_q)
    for h in range(1, w):
        weight, sigma_coefficient = _h_coefficients(g, h)
        level = [
            prefix
            for s, t, a, b in level
            for prefix in zip(map(s.__add__, tails[: budget - t + 1]), count(t),
                              count(a, weight), count(b, sigma_coefficient))
        ]
    weight, sigma_coefficient = _h_coefficients(g, w)
    return [
        (t, list(zip(repeat(g), map(s.__add__, tails[: budget - t + 1]), count(t),
                      count(a, weight), count(b, sigma_coefficient))))
        for s, t, a, b in level
    ]


def row_count(p: ConstraintProfile) -> int:
    """How many rows ``enumerate_feasible(p)`` returns, without building them.

    The vectors (n, s) of width w + 1, w = floor(g/2), with total <= B - 1
    number C(B + w, w + 1); the trivial vector is not a row.
    """
    return comb(p.max_total_fibers + p.genus // 2, p.genus // 2 + 1) - 1


class _LazyRows:
    """Sized, re-iterable lazy rows: each ``iter`` is a fresh ``_rows`` pass."""

    __slots__ = ("_profile",)

    def __init__(self, p: ConstraintProfile) -> None:
        self._profile = p

    def __len__(self) -> int:
        return row_count(self._profile)

    def __iter__(self):
        return _rows(self._profile)


def _rows(p: ConstraintProfile):
    """Yield every row of ``p`` in (n, s) order.

    Each row is a fresh ``object.__new__`` instance whose verdict and
    source pair (n, block entry) are written through the slot
    descriptors' own setters, which skip the frozen ``__setattr__`` and
    ``__post_init__``; its counts are built on first read
    (``_CountsSlot``), so a row costs two slot writes.  Each
    check the constructors would make holds by construction: the genus is
    a checked ``ConstraintProfile`` genus, an exact int >= 1; n and each
    s_h are exact ints >= 0 drawn from ``range``; s has width g // 2
    because the blocks are built that wide; the one vector with total 0,
    the first block's first entry at n = 0, is skipped; and each verdict
    is a stage name.  Writing the slots directly is safe because each
    instance is fresh and not yet shared, and each slot is written once.
    Every vector read at step n has total < the bound, so below n = 4g the
    verdict is the n-lower stage without a call to ``_verdict``.
    """
    g, bound = p.genus, p.max_total_fibers
    new, row_cls = object.__new__, FeasibilityRow
    set_verdict, set_source = _set_verdict, _set_source
    blocks = _blocks(g, bound - 1)
    skip = 1  # the trivial vector
    for n in range(bound):
        room = bound - n
        fixed = REJECT_N_LOWER if n < 4 * g else None
        for t, block in blocks:
            if t >= room:
                continue
            for entry in block[skip : room - t]:
                row = new(row_cls)
                set_verdict(row, fixed or _verdict(g, n, entry, bound))
                set_source(row, (n, entry))
                yield row
            skip = 0


def enumerate_feasible(p: ConstraintProfile) -> _LazyRows:
    """Evaluate every nontrivial count vector with total < the bound.

    The result is sized (``len`` is ``row_count(p)``) and re-iterable;
    rows are built as they are iterated, in lexicographic order on
    (n, s_1, s_2, ...), and include rejected ones; filter on ``admitted``
    or ``pre_chi_survivor`` as needed.
    """
    return _LazyRows(p)


# -- minimal numbers of singular fibers -------------------------------------


@dataclass(frozen=True)
class Witness:
    """A known fibration realizing a fiber count."""

    name: str
    fibers: int
    hyperelliptic: bool


@dataclass(frozen=True)
class BoundsReport:
    """Bounds on the minimal singular-fiber counts N_g (all fibrations)
    and M_g (hyperelliptic ones), on simply-connected total spaces.

    Upper bounds are None when no witness is recorded.  ``notes`` carry
    the assembly reasoning, including the open 4g+6 target for g >= 5.
    """

    genus: int
    n_lower: int
    n_upper: int | None
    m_lower: int
    m_upper: int | None
    witnesses: tuple[Witness, ...]
    notes: tuple[str, ...]

    @property
    def n_exact(self) -> int | None:
        return self.n_lower if self.n_lower == self.n_upper else None

    @property
    def m_exact(self) -> int | None:
        return self.m_lower if self.m_lower == self.m_upper else None


# Per genus: the best recorded witness (name, fibers), the hyperelliptic
# witness when that is a different fibration (otherwise the best one is
# hyperelliptic), and the note on the hyperelliptic floor.  A catalog
# witness's name starts with its entry name, and a test ties its total to
# the singular-fiber total of that entry's audited counts (boundary letters
# are not fibers) and its flag to the entry's.
_RECORDED = {
    1: (("elliptic surface E(1)", 12), None,
        "no admissible count vector exists below 12 fibers"),
    2: (("Baykur-Korkmaz genus-2 fibration", 14), None,
        "below 14 fibers only (n,s) = (8,1) and (10,0) pass the "
        "sigma constraints and both have chi_h = 0"),
    3: (("W (genus-3 hyperelliptic)", 18), None,
        "below 18 fibers only (n,s) = (16,1) passes the sigma "
        "constraints and it has chi_h = 0"),
    4: (("W1 (genus-4, nonhyperelliptic)", 23), ("W2 (genus-4 hyperelliptic)", 24),
        "below 24 fibers the admitted counts are (16,0,5), (16,4,2) "
        "and (18,2,3), with totals 21, 22 and 23"),
}


def _hyperelliptic_floor(g: int, witness_fibers: int) -> int:
    """Least admitted hyperelliptic fiber total below a witness count.

    Totals t rise from 4g, each tried on every s with n = t - sum(s) >= 4g,
    that is on each block's slice of totals below t - 4g + 1, which covers
    every row the enumerator could admit.  The first admitted total is the
    floor; when there is none the witness is optimal.
    """
    blocks = _blocks(g, witness_fibers - 1 - 4 * g)
    for t in range(4 * g, witness_fibers):
        room = t - 4 * g + 1
        for prefix_total, block in blocks:
            if prefix_total < room:
                for entry in block[: room - prefix_total]:
                    if _verdict(g, t - entry[2], entry, witness_fibers) == ADMITTED:
                        return t
    return witness_fibers


def min_fiber_bounds(g: int) -> BoundsReport:
    """Assemble the known bounds on N_g and M_g.

    g = 1..4 read the table ``_RECORDED``: the best recorded witness
    bounds N_g above and the hyperelliptic one bounds M_g above.  M_g is
    bounded below by the hyperelliptic floor, the least total the verdict
    kernel admits, searched upwards from 4g.  For g <= 2 every fibration
    is hyperelliptic, so N_g = M_g >= floor; otherwise N_g >= 4g.

    g >= 5: only the generic bounds N_g >= 4g, M_g >= 4g + 1 are known;
    whether M_g = 4g + 6 (as for g = 2, 3) is an open question, flagged
    in the notes, not a result.
    """
    (g,) = exact_ints((g,), "genus values")
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if g in _RECORDED:
        (name, fibers), hyp, floor_note = _RECORDED[g]
        best = Witness(name, fibers, hyp is None)
        hyp = Witness(*hyp, True) if hyp else best
        floor = _hyperelliptic_floor(g, hyp.fibers)
        if g <= 2:
            n_lower = floor
            note = f"every genus-{g} fibration is hyperelliptic, so N_{g} = M_{g}"
        else:
            n_lower, note = min_nonseparating_bound(g), "N lower bound from n >= 4g"
        return BoundsReport(
            genus=g, n_lower=n_lower, n_upper=best.fibers,
            m_lower=floor, m_upper=hyp.fibers,
            witnesses=(best, hyp) if hyp is not best else (best,),
            notes=(note, floor_note),
        )
    return BoundsReport(
        genus=g,
        n_lower=min_nonseparating_bound(g),
        n_upper=None,
        m_lower=4 * g + 1,
        m_upper=None,
        witnesses=(),
        notes=(
            "N lower bound from n >= 4g; M lower bound from the "
            "twist-count congruence ruling out (4g, 0)",
            f"open question (not a result): is M_{g} = {4 * g + 6}, "
            "as it is for g = 2 and 3?",
        ),
    )
