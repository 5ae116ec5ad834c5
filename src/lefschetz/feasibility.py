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
reproducible.  Rows failing only the chi-h stage ("pre-chi survivors")
are reported distinctly from admitted rows, because the two stages play
different roles in the bound arguments.

For nonhyperelliptic profiles the signature is not determined by the
counts, so only the sigma-free constraints (total, n >= 4g) would be
meaningful; the operations below therefore require a hyperelliptic
profile and the nonhyperelliptic lower bounds in ``min_fiber_bounds``
use n >= 4g directly.

One integer kernel, ``_verdict``, decides every row for both
``check_counts`` and ``enumerate_feasible``; a row's ``Fraction`` values
(sigma, chi_h) come from the closed forms in ``invariants`` when read.
The enumerator steps n upwards and, for each n, the compositions s with
sum(s) <= max_total_fibers - 1 - n in lexicographic order, so it visits
only the rows it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .invariants import (
    FiberCounts,
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


@dataclass(frozen=True)
class ConstraintProfile:
    """What to enumerate: genus, strict fiber bound, hyperelliptic flag."""

    genus: int
    max_total_fibers: int
    hyperelliptic: bool = True

    def __post_init__(self) -> None:
        genus, bound = exact_ints(
            (self.genus, self.max_total_fibers), "genus and max_total_fibers"
        )
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "max_total_fibers", bound)
        if genus < 1:
            raise ValueError(f"genus must be >= 1, got {genus}")
        if bound < 1:
            raise ValueError("max_total_fibers must be >= 1")
        if not isinstance(self.hyperelliptic, bool):
            raise ValueError(
                f"hyperelliptic must be True or False, got {self.hyperelliptic!r}"
            )


@dataclass(frozen=True)
class FeasibilityRow:
    """One evaluated count vector and its verdict; invariants derive on read."""

    counts: FiberCounts
    verdict: str

    @cached_property  # read up to three times per printed row
    def sigma(self) -> Fraction:
        return hyperelliptic_signature(self.counts)[0]

    @property
    def sigma_integral(self) -> bool:
        return self.sigma.denominator == 1

    @property
    def chi_h(self) -> Fraction:
        return Fraction(euler_characteristic(self.counts) + self.sigma, 4)

    @property
    def admitted(self) -> bool:
        return self.verdict == ADMITTED

    @property
    def pre_chi_survivor(self) -> bool:
        return self.verdict in (ADMITTED, REJECT_CHI_H)


def _require_hyperelliptic(p: ConstraintProfile) -> None:
    if not p.hyperelliptic:
        raise ValueError(
            "profile is not hyperelliptic: sigma cannot be derived from "
            "counts alone, so only the sigma-free constraints (total, "
            "n >= 4g) would apply"
        )


def _verdict(g: int, n: int, s: tuple[int, ...], bound: int) -> str:
    """The first failing stage for (n, s) at genus g below ``bound``, in integers."""
    s_total = sum(s)
    total = n + s_total
    if total >= bound:
        return REJECT_TOTAL
    if n < 4 * g:
        return REJECT_N_LOWER
    q = 2 * g + 1
    weighted = n
    sigma_q = -(g + 1) * n
    for h, count in enumerate(s, start=1):
        weighted += 2 * h * (4 * h + 2) * count
        sigma_q += (4 * h * (g - h) - q) * count
    if weighted % ((4 if g % 2 else 2) * q):
        return REJECT_CONGRUENCE
    if sigma_q % q:
        return REJECT_SIGMA_INTEGRAL
    if sigma_q > (n - s_total - 4 * g) * q:
        return REJECT_SIGMA_BOUND
    chi_4q = (4 - 4 * g + total) * q + sigma_q  # 4 q chi_h
    if chi_4q % (4 * q) or chi_4q < 4 * q:
        return REJECT_CHI_H
    return ADMITTED


def check_counts(c: FiberCounts, p: ConstraintProfile) -> FeasibilityRow:
    """Evaluate the constraint chain; verdict carries the first failure."""
    _require_hyperelliptic(p)
    if c.genus != p.genus:
        raise ValueError(f"counts are genus {c.genus}, profile genus {p.genus}")
    return FeasibilityRow(c, _verdict(c.genus, c.n, c.s, p.max_total_fibers))


def _compositions(width: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative ``width``-tuples with sum <= ``budget``, lexicographically."""
    if width == 0:
        yield ()
        return
    for first in range(budget + 1):
        for rest in _compositions(width - 1, budget - first):
            yield (first, *rest)


def enumerate_feasible(p: ConstraintProfile) -> tuple[FeasibilityRow, ...]:
    """Evaluate every nontrivial count vector with total < the bound.

    Rows come back in lexicographic order on (n, s_1, s_2, ...) and
    include rejected ones; filter on ``admitted`` or ``pre_chi_survivor``
    as needed.
    """
    _require_hyperelliptic(p)
    g = p.genus
    bound = p.max_total_fibers
    rows = []
    for n in range(bound):
        vectors = _compositions(g // 2, bound - 1 - n)
        if n == 0:
            next(vectors)  # s = 0: the trivial fibration, not a row
        for s in vectors:
            rows.append(FeasibilityRow(FiberCounts(g, n, s), _verdict(g, n, s, bound)))
    return tuple(rows)


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
# witness gives its entry name as ``fibers`` and is counted from its word.
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
        from .catalog import get_entry  # deferred: catalog builds on this package

        fibers = len(get_entry(fibers).factorization.letters)
    return Witness(name, fibers, hyperelliptic)


def _hyperelliptic_floor(g: int, witness_fibers: int) -> int:
    """Least admitted hyperelliptic fiber total below a witness count.

    Totals t rise from 4g, each tried on every s with n = t - sum(s) >= 4g,
    which covers every row the enumerator could admit.  The first admitted
    total is the floor; when there is none the witness is optimal.
    """
    for t in range(4 * g, witness_fibers):
        for s in _compositions(g // 2, t - 4 * g):
            if _verdict(g, t - sum(s), s, witness_fibers) == ADMITTED:
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
