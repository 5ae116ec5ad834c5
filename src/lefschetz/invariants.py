"""Numeric invariants of a fibration from its fiber-count data.

Everything here is exact: integers and ``fractions.Fraction`` only, no
floating point, tolerance zero.  All functions are stateless and pure.
``fractions`` is imported by the first call that builds a rational
(``_fraction``), so a process that only tallies counts, as the catalog,
``verify``, ``pi1`` and ``bounds`` do, never loads it.

The package's two integer readers live here too: ``exact_ints`` (values
as exact ints, rejecting bools) and ``integer`` (integer text, for
``.mono`` files, options and ledgers), and so does its one genus check,
``_checked_genus``, run after an ``exact_ints`` read.  This module
imports nothing from the package, so a command that only counts fibers
loads neither ``surface`` nor ``words``.  Every process loads it, so it
also holds ``_Record``, the base of the package's immutable records.

For a genus-g fibration over the 2-sphere with n nonseparating and s_h
type-h separating vanishing cycles (s = sum s_h):

    e = 4 - 4g + n + s
    chi_h = (e + sigma) / 4
    b2+ = (e - 2 + sigma) / 2,  b2- = (e - 2 - sigma) / 2   (when b1 = 0)

The hyperelliptic signature is the closed form

    sigma = -((g+1)/(2g+1)) n + sum_h (4h(g-h)/(2g+1) - 1) s_h ,

equivalently (-(g+1) n + sum_h (4h(g-h) - (2g+1)) s_h) / (2g+1).  The
coefficients of s_h in it and in the twist-count congruence are written
once, in ``_h_coefficients``; ``_s_terms`` sums them over s, and the
feasibility chain adds n's parts to the same sums.
Note: a misprinted genus-3 specialization, (4n - s)/5, circulates; the
correct genus-3 value of the closed form is (-4n + s1)/7 and that is
what this module computes.

The ledger route covers signatures assembled additively from relator
blocks with known contributions: a separating-curve relator counts -1,
the even-genus Matsumoto relator counts -4, and named blocks carry a
user-supplied integer.  Removed (cancelled) blocks enter with negative
multiplicity.
"""

from __future__ import annotations

import operator

TYPE_CHECKING = False
if TYPE_CHECKING:  # names for annotations only; fractions loads on first use
    from fractions import Fraction

# Ledger entry kinds.
LEDGER_MATSUMOTO_EVEN = "mats"
LEDGER_SEPARATING = "sep"
LEDGER_BLOCK = "block"

_FIXED_CONTRIBUTIONS = {LEDGER_MATSUMOTO_EVEN: -4, LEDGER_SEPARATING: -1}


def exact_ints(values, what: str) -> tuple[int, ...]:
    """The values as exact ints; ValueError names the first value that is
    a bool or that ``operator.index`` refuses (no truncation).

    One test decides: not a bool, since ``operator.index`` would read one
    as 0 or 1, and accepted by ``operator.index``.  The values are read
    once into a tuple, so an iterator works too and a tuple is not copied:
    when every value is an int, that tuple is returned as is.
    """
    values = tuple(values)
    if set(map(type, values)) == {int}:
        return values
    ints = []
    for v in values:
        try:  # a bool goes in as None, which operator.index refuses
            ints.append(operator.index(None if type(v) is bool else v))
        except TypeError:
            raise ValueError(f"{what} must be integers, got {v!r}") from None
    return tuple(ints)


def _checked_genus(g: int) -> int:
    """g, an int already read by ``exact_ints``; ValueError unless g >= 1."""
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    return g


def integer(text: str) -> int:
    """The int spelled ``-?[0-9]+`` in ASCII digits; stricter than ``int()``."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isdecimal() and digits.isascii()):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


class _Record:
    """Base of the package's immutable records.

    A record's fields are its ``_fields``: its ``__match_args__``, unless
    the class names them itself (``ConstraintProfile`` matches an
    init-only keyword that it does not keep).  Two records are equal when
    they have the same class and equal fields, and a record hashes as the
    tuple of its fields.  Its repr is ``Name(field=value, ...)``.  After
    ``__init__`` no attribute can be set or deleted, and copies and
    pickles rebuild through the checking constructor.

    Each record's ``__init__`` checks and normalizes its arguments, then
    sets each field once with ``object.__setattr__``.  A slotted record
    declares its fields as ``__slots__``; any other keeps a ``__dict__``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if "_fields" not in vars(cls):
            cls._fields = cls.__match_args__
        # The tuple of the fields, read by one C-level getter: a loop of
        # attribute reads made == and hash about three times slower.
        get = operator.attrgetter(*cls._fields)
        if len(cls._fields) > 1:
            cls._values = lambda self: get(self)
        else:  # a getter of one name returns the value, not a 1-tuple
            cls._values = lambda self: (get(self),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._values())
        return f"{self.__class__.__qualname__}({', '.join([f'{n}={v!r}' for n, v in pairs])})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class FiberCounts(_Record):
    """(n, s_1, ..., s_{floor(g/2)}) for a genus-g fibration.

    All counts are nonnegative, the total is at least 1 (the fibration is
    nontrivial), and ``s`` has exactly floor(g/2) entries (empty for
    g = 1).
    """

    __slots__ = __match_args__ = ("genus", "n", "s")

    def __init__(self, genus: int, n: int, s: tuple[int, ...] = ()) -> None:
        # two reads, so a tuple of ints is kept as is, not copied
        what = "genus and fiber counts"
        genus, n = exact_ints((genus, n), what)
        s = exact_ints(s, what)
        _checked_genus(genus)
        if len(s) != genus // 2:
            raise ValueError(
                f"genus {genus} needs {genus // 2} separating "
                f"counts, got {len(s)}"
            )
        if n < 0 or min(s, default=0) < 0:
            raise ValueError("fiber counts must be nonnegative")
        if n + sum(s) < 1:
            raise ValueError("a nontrivial fibration needs at least one fiber")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s", s)

    @classmethod
    def of(cls, genus: int, n: int, *s: int) -> "FiberCounts":
        """Build counts, padding the separating vector with zeros."""
        padded = tuple(s) + (0,) * (genus // 2 - len(s))
        return cls(genus, n, padded)

    @property
    def s_total(self) -> int:
        return sum(self.s)

    @property
    def total(self) -> int:
        return self.n + self.s_total


def _fraction(numerator: int, denominator: int) -> Fraction:
    """``Fraction(numerator, denominator)``, importing ``fractions`` on the
    first call only.

    That call binds the class itself to this module-level name, so every
    later call costs what a module-level import would; an import statement
    in each caller would cost about 0.6 us a call.
    """
    global _fraction
    from fractions import Fraction as _fraction

    return _fraction(numerator, denominator)


def euler_characteristic(c: FiberCounts) -> int:
    """e = 4 - 4g + n + s."""
    return 4 - 4 * c.genus + c.total


def _h_coefficients(g: int, h: int) -> tuple[int, int]:
    """The coefficients of s_h at genus g: 2h(4h+2) in the congruence weight
    and 4h(g-h) - q, q = 2g + 1, in the signature numerator."""
    return 2 * h * (4 * h + 2), 4 * h * (g - h) - 2 * g - 1


def _s_terms(g: int, s: tuple[int, ...]) -> tuple[int, int, int]:
    """The s-only parts of the closed forms at genus g: sum(s), the congruence
    weight sum_h 2h(4h+2) s_h and the signature part sum_h (4h(g-h) - q) s_h.
    Zero counts are skipped before any arithmetic, so a long vector of
    zeros costs little."""
    weighted = sigma_q = 0
    for h, count in enumerate(s, start=1):
        if not count:
            continue
        weight, sigma_coefficient = _h_coefficients(g, h)
        weighted += weight * count
        sigma_q += sigma_coefficient * count
    return sum(s), weighted, sigma_q


def hyperelliptic_signature(c: FiberCounts) -> tuple[Fraction, bool]:
    """Exact hyperelliptic signature and whether it is an integer."""
    g = c.genus
    value = _fraction(_s_terms(g, c.s)[2] - (g + 1) * c.n, 2 * g + 1)
    return value, value.denominator == 1


class LedgerEntry(_Record):
    """One relator block: kind, multiplicity and optional value."""

    __match_args__ = ("kind", "multiplicity", "value")

    def __init__(self, kind: str, multiplicity: int = 1, value: int | None = None) -> None:
        (multiplicity,) = exact_ints((multiplicity,), "ledger multiplicities")
        if value is not None:
            (value,) = exact_ints((value,), "ledger values")
        if kind in _FIXED_CONTRIBUTIONS:
            if value is not None:
                raise ValueError(f"{kind} entries carry a fixed contribution")
        elif kind == LEDGER_BLOCK:
            if value is None:
                raise ValueError("block entries need an integer contribution")
        else:
            raise ValueError(f"unknown ledger kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "value", value)

    @property
    def contribution(self) -> int:
        if self.kind == LEDGER_BLOCK:
            return self.value
        return _FIXED_CONTRIBUTIONS[self.kind]


def endo_nagami_total(entries: tuple[LedgerEntry, ...] | list[LedgerEntry]) -> int:
    """Signed sum of block contributions: sum multiplicity * contribution."""
    return sum(e.multiplicity * e.contribution for e in entries)


class InvariantReport(_Record):
    """(e, sigma, chi_h, Betti data) under the b1 = 0 assumption.

    When the Betti arithmetic does not return nonnegative integers the
    report is marked infeasible (b2plus and b2minus are None); that is
    data, not an error, since the feasibility filter consumes it.
    """

    __match_args__ = ("e", "sigma", "chi_h", "b2plus", "b2minus", "candidate")

    def __init__(self, e: int, sigma: int, chi_h: Fraction, b2plus: int | None,
                 b2minus: int | None, candidate: str | None) -> None:
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "chi_h", chi_h)
        object.__setattr__(self, "b2plus", b2plus)
        object.__setattr__(self, "b2minus", b2minus)
        object.__setattr__(self, "candidate", candidate)

    @property
    def feasible(self) -> bool:
        return self.b2plus is not None


def chi_and_betti(e: int, sigma: int) -> InvariantReport:
    """chi_h = (e+sigma)/4 and (b2+, b2-) assuming simple connectivity.

    The candidate label CP^2 # k CP^2bar is attached when b2+ = 1, with
    k = b2-.
    """
    chi_h = _fraction(e + sigma, 4)
    twice_plus = e - 2 + sigma
    twice_minus = e - 2 - sigma
    if twice_plus % 2 == 0 and twice_plus >= 0 and twice_minus >= 0:
        b2plus = twice_plus // 2
        b2minus = twice_minus // 2
        candidate = f"CP^2 # {b2minus} CP^2bar" if b2plus == 1 else None
    else:
        b2plus = b2minus = candidate = None
    return InvariantReport(
        e=e, sigma=sigma, chi_h=chi_h, b2plus=b2plus, b2minus=b2minus,
        candidate=candidate,
    )


def twist_count_congruence(c: FiberCounts) -> bool:
    """n + sum_h 2h(4h+2) s_h = 0 mod 4(2g+1) (g odd) or 2(2g+1) (g even).

    A necessary condition on hyperelliptic fibrations, coming from the
    abelianized hyperelliptic mapping class group.
    """
    g = c.genus
    modulus = (4 if g % 2 == 1 else 2) * (2 * g + 1)
    return (c.n + _s_terms(g, c.s)[1]) % modulus == 0


def signature_bound_check(c: FiberCounts, sigma: int) -> bool:
    """sigma <= n - s - 4g, the bound on a simply-connected total space.

    The test reference for ``feasibility._verdict``'s ``REJECT_SIGMA_BOUND``
    stage, which computes the same bound in its integer kernel.
    """
    return sigma <= c.n - c.s_total - 4 * c.genus


def min_nonseparating_bound(g: int) -> int:
    """Least possible n for a fibration on a simply-connected 4-manifold: 4g."""
    return 4 * _checked_genus(*exact_ints((g,), "genus"))
