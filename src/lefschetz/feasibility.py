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
takes the s-only sums from ``invariants._s_terms`` and adds the parts
that depend on n.  A row's sigma is ``hyperelliptic_signature``, one
exact ``Fraction`` of the same numerator, and chi_h comes from it and
``euler_characteristic``; nothing is cached on the row.
``enumerate_feasible`` returns sized, re-iterable lazy rows: each pass
builds the compositions s with sum(s) <= max_total_fibers - 1 once, in
lexicographic order and each with its s-only sums, and yields the rows
one at a time while stepping n upwards.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from fractions import Fraction
from math import comb

from .invariants import (
    FiberCounts,
    _s_terms,
    euler_characteristic,
    hyperelliptic_signature,
    min_nonseparating_bound,
)
from .surface import exact_ints

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


@dataclass(frozen=True, slots=True)
class FeasibilityRow:
    """One evaluated count vector and its verdict; invariants derive on read."""

    counts: FiberCounts
    verdict: str

    def __post_init__(self) -> None:
        if not isinstance(self.counts, FiberCounts) or self.verdict not in _VERDICTS:
            raise ValueError(
                f"a row needs FiberCounts and a verdict in {_VERDICTS}, "
                f"got {self.counts!r} and {self.verdict!r}"
            )

    @property
    def sigma(self) -> Fraction:
        return hyperelliptic_signature(self.counts)[0]

    @property
    def sigma_integral(self) -> bool:
        return hyperelliptic_signature(self.counts)[1]

    @property
    def chi_h(self) -> Fraction:
        return Fraction(euler_characteristic(self.counts) + self.sigma, 4)

    @property
    def admitted(self) -> bool:
        return self.verdict == ADMITTED

    @property
    def pre_chi_survivor(self) -> bool:
        return self.verdict in (ADMITTED, REJECT_CHI_H)


def _verdict(g: int, n: int, terms: tuple[int, int, int], bound: int) -> str:
    """The first failing stage for (n, s) at genus g below ``bound``, in
    integers; ``terms`` is ``_s_terms(g, s)``, so only n's parts are added."""
    s_total, s_weighted, s_sigma_q = terms
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


def _compositions(
    g: int, budget: int
) -> list[tuple[tuple[int, ...], tuple[int, int, int]]]:
    """Each s of width floor(g/2) with entries >= 0 and sum(s) <= ``budget``,
    in lexicographic order, paired with ``_s_terms(g, s)``.

    Prefixes grow one entry at a time, each extended by 0, 1, ... up to
    what the budget leaves, so every level stays in lexicographic order.
    """
    level: list[tuple[int, ...]] = [()] if budget >= 0 else []
    for _ in range(g // 2):
        level = [s + (x,) for s in level for x in range(budget - sum(s) + 1)]
    return [(s, _s_terms(g, s)) for s in level]


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

    Counts and rows are fresh ``object.__new__`` instances filled through
    the slot descriptors' own setters, which skip the frozen
    ``__setattr__`` and ``__post_init__``.  Each check those would make
    holds by construction: the genus is a checked ``ConstraintProfile``
    genus, an exact int >= 1; n and each s_h are exact ints >= 0 drawn
    from ``range``; s has width g // 2 because the compositions are built
    that wide; the one vector with total 0 (s = 0 at n = 0) is skipped;
    and each verdict is a stage name.  Writing the slots directly is safe
    because each instance is fresh and not yet shared, and each slot is
    written once, as the frozen ``__init__`` would write it.  Every
    vector kept at step n has total < the bound, so below n = 4g the
    verdict is the n-lower stage without a call to ``_verdict``.
    """
    g, bound = p.genus, p.max_total_fibers
    new, counts_cls, row_cls = object.__new__, FiberCounts, FeasibilityRow
    set_g, set_n, set_s = (f.__set__ for f in (counts_cls.genus, counts_cls.n, counts_cls.s))
    set_counts, set_verdict = row_cls.counts.__set__, row_cls.verdict.__set__
    vectors = _compositions(g, bound - 1)
    for n in range(bound):
        # Each step drops the s whose sum no longer fits beside n.
        vectors = [v for v in vectors if v[1][0] < bound - n]
        fixed = REJECT_N_LOWER if n < 4 * g else None
        for s, terms in vectors[1:] if n == 0 else vectors:  # n = 0: skip s = 0
            counts = new(counts_cls)
            set_g(counts, g)
            set_n(counts, n)
            set_s(counts, s)
            row = new(row_cls)
            set_counts(row, counts)
            set_verdict(row, fixed or _verdict(g, n, terms, bound))
            yield row


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
# witness gives its entry name as ``fibers`` and takes the singular-fiber
# total of the entry's audited counts (boundary letters are not fibers).
_RECORDED = {
    1: (("elliptic surface E(1)", 12), None,
        "no admissible count vector exists below 12 fibers"),
    2: (("Baykur-Korkmaz genus-2 fibration", 14), None,
        "below 14 fibers only (n,s) = (8,1) and (10,0) pass the "
        "sigma constraints and both have chi_h = 0"),
    3: (("W (genus-3 hyperelliptic)", "W"), None,
        "below 18 fibers only (n,s) = (16,1) passes the sigma "
        "constraints and it has chi_h = 0"),
    4: (("W1 (genus-4, nonhyperelliptic)", "W1"), ("W2 (genus-4 hyperelliptic)", "W2"),
        "below 24 fibers the admitted counts are (16,0,5), (16,4,2) "
        "and (18,2,3), with totals 21, 22 and 23"),
}


def _witness(name: str, fibers: int | str, hyperelliptic: bool) -> Witness:
    if isinstance(fibers, str):
        # Deferred so that enumerate, and bounds for g not in {3, 4}, load
        # neither catalog nor twists.
        from .catalog import get_entry

        fibers = get_entry(fibers).counts.total
    return Witness(name, fibers, hyperelliptic)


def _hyperelliptic_floor(g: int, witness_fibers: int) -> int:
    """Least admitted hyperelliptic fiber total below a witness count.

    Totals t rise from 4g, each tried on every s with n = t - sum(s) >= 4g,
    which covers every row the enumerator could admit.  The first admitted
    total is the floor; when there is none the witness is optimal.
    """
    vectors = _compositions(g, witness_fibers - 1 - 4 * g)
    for t in range(4 * g, witness_fibers):
        for _, terms in vectors:
            n = t - terms[0]
            if n >= 4 * g and _verdict(g, n, terms, witness_fibers) == ADMITTED:
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
        best = _witness(name, fibers, hyp is None)
        hyp = _witness(*hyp, True) if hyp else best
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
