"""Catalog of named positive factorizations with per-letter kind data.

Six entries ship:

    T    genus 2, 7 letters, counts (4, 3), target t_d1 t_d2
         (the smallest genus-2 fibration; total space (T^2 x S^2) # 3 CP^2bar)
    V2   genus 2, 8 letters (B0 B1 B2 C)^2, counts (6, 2), target t_d1 t_d2
         (even Matsumoto block)
    V4   genus 4, 12 letters C^2 A0..A4 B0..B4, counts (10, 0, 2),
         target t_d1 t_d2 (even Matsumoto block)
    W    genus 3, 18 letters, counts (12, 6), target t_d1 t_d2^2
         (hyperelliptic, on an exotic CP^2 # 7 CP^2bar)
    W1   genus 4, 23 letters, counts (18, 5, 0), identity target
         (nonhyperelliptic, on an exotic CP^2 # 8 CP^2bar; carries the
         12 printed pi_1 relator words)
    W2   genus 4, 24 letters, counts (18, 6, 0), identity target
         (hyperelliptic, on an exotic CP^2 # 9 CP^2bar; carries the
         printed pi_1 relator words)

Each entry is written as its twist word; the curve table is the word's
letters in order of first appearance.  Letters without printed pi_1
words are kind-only: their homology classes are defined by figures we do
not reproduce, so they cannot be recovered from text.  Each entry's
``sep`` map names its separating letters with their types (the genus-4
Matsumoto curve C has type 2, every other one type 1); all other letters
are nonseparating.  Any mismatch between the letter tally and the
declared counts is a build-time error, which makes the transcription
self-auditing.

Name conventions: a trailing ``p`` is a prime (x1p = x1'), ``pp`` a
double prime, and ``b`` an overbar (eb = e-bar).

The catalog is immutable static data and thread-safe.
"""

from __future__ import annotations

from functools import lru_cache

from .factorization import Factorization, Target, TwistLetter, cap_boundary
from .factorization import letter_counts
from .invariants import (
    LEDGER_BLOCK,
    LEDGER_MATSUMOTO_EVEN,
    LEDGER_SEPARATING,
    FiberCounts,
    InvariantReport,
    LedgerEntry,
    _Record,
    chi_and_betti,
    endo_nagami_total,
    euler_characteristic,
    hyperelliptic_signature,
)
from .surface import NONSEP, SEP, CurveClass, SurfaceSpec, homology_of_word
from .words import parse_word

TYPE_CHECKING = False
if TYPE_CHECKING:  # names for annotations only; the group layer loads on use
    from .fpgroup import GroupPresentation


class CatalogError(RuntimeError):
    """Internal consistency failure while building the catalog."""


class NoWordData(ValueError):
    """The entry carries no printed pi_1 words to present a group with."""


class CatalogEntry(_Record):
    """One named positive factorization of the catalog.

    ``factorization`` is the twist word with its curve table, and
    ``counts`` its audited letter tally (n, s_1, ...).  ``hyperelliptic``
    selects the closed-form signature; otherwise ``ledger``, when set,
    is the signature ledger.  ``description`` and ``notes`` are the text
    the CLI prints, and ``aliases`` are other names ``get_entry``
    accepts.
    """

    __match_args__ = ("name", "description", "factorization", "counts", "hyperelliptic",
                      "ledger", "notes", "aliases")

    def __init__(self, name: str, description: str, factorization: Factorization,
                 counts: FiberCounts, hyperelliptic: bool,
                 ledger: tuple[LedgerEntry, ...] | None = None, notes: tuple[str, ...] = (),
                 aliases: tuple[str, ...] = ()) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "factorization", factorization)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "hyperelliptic", hyperelliptic)
        object.__setattr__(self, "ledger", ledger)
        object.__setattr__(self, "notes", notes)
        object.__setattr__(self, "aliases", aliases)

    @property
    def spec(self) -> SurfaceSpec:
        return self.factorization.spec


def _entry(
    name: str,
    description: str,
    genus: int,
    boundary: int,
    word: str,
    counts: tuple[int, ...],
    hyperelliptic: bool,
    *,
    sep: dict[str, int],
    target: Target = (),
    words: dict[str, str] | None = None,
    ledger: tuple[LedgerEntry, ...] | None = None,
    notes: tuple[str, ...] = (),
    aliases: tuple[str, ...] = (),
) -> CatalogEntry:
    """A catalog entry from its twist word, written with positive letters.

    The curve table is the word's letters in order of first appearance.
    ``sep`` maps each separating letter to its type; every other letter
    is nonseparating.  A curve with a printed pi_1 word in ``words``
    carries that word and its abelianization.  A key of either map that
    is no letter of the word, or a letter tally that differs from
    ``counts`` ((n, s_1, ...), padded with zeros), raises CatalogError.
    """
    words = words or {}
    table = dict.fromkeys(word.split())
    for key, named in (("sep", sep), ("words", words)):
        if stray := sorted(named.keys() - table.keys()):
            raise CatalogError(f"{name}: {key} names {stray} are not letters of the word")
    capped = SurfaceSpec(genus)
    curves = []
    for curve in table:
        pi1_word = parse_word(words[curve]) if curve in words else None
        curves.append(CurveClass(
            name=curve,
            kind=SEP if curve in sep else NONSEP,
            h=sep.get(curve),
            homology=None if pi1_word is None else homology_of_word(pi1_word, capped),
            word=pi1_word,
        ))
    f = Factorization(
        spec=SurfaceSpec(genus, boundary),
        curves=tuple(curves),
        letters=tuple(TwistLetter(curve) for curve in word.split()),
        target=target,
    )
    # Every letter is nonsep or sep, so the tally counts each one and also
    # checks the letter total.
    declared = FiberCounts.of(genus, *counts)
    tally = letter_counts(f)
    if tally != declared:
        raise CatalogError(
            f"{name}: letter tally ({tally.n}, {tally.s}) vs declared "
            f"({declared.n}, {declared.s})"
        )
    return CatalogEntry(
        name=name,
        description=description,
        factorization=f,
        counts=declared,
        hyperelliptic=hyperelliptic,
        ledger=ledger,
        notes=notes,
        aliases=aliases,
    )


_W1_WORDS = {
    "x1": "b1 b2 a2~ a1 b2 a2~ a1",
    "x1p": "b2 a2~ a3 b3 b2 a2~ a3",
    "x1b": "a1~ a2 b2 a2~ a3 b3 a3 a3 a3 a1~ a2 b2 a2~ a3",
    "x2": "a1 a1 b1 b2 b2 a2~ a1",
    "d": "b2~ a1~ a2 b2 a2~ a1",
    "dp": "b2 a3~ a2 b2~ a2~ a3",
    "B2": "a2~ [a1,b1~] a1~",
    "B2p": "a3~ a2 b2~ a2~ [a1,b1~] b2 a2~",
    "B2b": "a3~ a2 b2~ a2~ [a1,b1~] b2 b2 a2~",
    "B0pp": "b3 b4",
    "B1pp": "a4~ b4~ b3~ a3~",
    "B2pp": "a3~ [a4,b4] a4~",
}

_W2_WORDS = {
    "beta0": "b1 b2 b3 b4",
    "beta1": "a1 b1 b2 b3 b4 a4",
    "beta2": "a1 b2 b3 b4 a4 b4~",
    "beta3": "a2 b2 b3 [b4,a4] a3",
    "beta4": "a3~ a2 b2~ a2~ [a1,b1~] b2 a2~",
    "y1": "b1 b2 b2 a2~ a1 b2 b2 a2~ a1",
    "D2": "b2 a2~ [a1,b1~] a1~",
    "C": "[a1,b1]",
    "z1": "b3 a3~ a4 b4 a4~ b3 a3~ a4",
    "Cpp": "[a4,b4]",
    "B2pp": "a4~ a3 b3~ a3~ a2 b2~ a2~ [a1,b1~] b2 b3 a3~",
}


@lru_cache(maxsize=1)
def load_catalog() -> tuple[CatalogEntry, ...]:
    """All catalog entries, audited against their declared counts."""
    return (
        _entry(
            "T", "smallest genus-2 fibration block; two (-1)-sections",
            2, 2, "e x1 x2 x3 d B2 C", (4, 3), True,
            sep={"e": 1, "d": 1, "C": 1},
            target=((1, 1), (2, 1)),
            notes=("total space (T^2 x S^2) # 3 CP^2bar; not simply connected",),
        ),
        _entry(
            "V2", "even Matsumoto block, genus 2, as (B0 B1 B2 C)^2",
            2, 2, "B0 B1 B2 C B0 B1 B2 C", (6, 2), True,
            sep={"C": 1},
            target=((1, 1), (2, 1)),
            notes=(
                "equivalent rewritten shape: C^2 A0 A1 A2 B0 B1 B2 with "
                "A_i the image of B_i under the inverse twist about C",
            ),
        ),
        _entry(
            "V4", "even Matsumoto block, genus 4, rewritten shape",
            4, 2, "C C A0 A1 A2 A3 A4 B0 B1 B2 B3 B4", (10, 0, 2), True,
            sep={"C": 2},
            target=((1, 1), (2, 1)),
            notes=(
                "C splits the genus-4 surface into two genus-2 halves, so it "
                "is separating of type 2 (the name-family default of type 1 "
                "is overridden)",
            ),
        ),
        _entry(
            "W",
            "genus-3 hyperelliptic fibration with 18 fibers on an exotic "
            "CP^2 # 7 CP^2bar; one (-1)- and one (-2)-section",
            3, 2,
            "x1 x2 x3 d B2 ep x1p x2p x3p dp B2p Cp eb x1b x2b x3b db B2b",
            (12, 6), True,
            sep={"d": 1, "ep": 1, "dp": 1, "Cp": 1, "eb": 1, "db": 1},
            target=((1, 1), (2, 2)),
            aliases=("W3",),
            notes=(
                "also cited under the alias W3 in signature bookkeeping",
                "built by breeding two copies of the 7-letter genus-2 block",
            ),
        ),
        _entry(
            "W1",
            "genus-4 nonhyperelliptic fibration with 23 fibers on an "
            "exotic CP^2 # 8 CP^2bar",
            4, 0,
            "A0pp A1pp A2pp B0pp B1pp B2pp eb x1b x2b x3b db B2b "
            "x1 x2 x3 d B2 ep x1p x2p x3p dp B2p",
            (18, 5, 0), False,
            sep={"eb": 1, "db": 1, "d": 1, "ep": 1, "dp": 1},
            words=_W1_WORDS,
            ledger=(
                LedgerEntry(LEDGER_MATSUMOTO_EVEN, 1),
                LedgerEntry(LEDGER_BLOCK, 1, value=-6),
                LedgerEntry(LEDGER_SEPARATING, -3),
            ),
            notes=(
                "bred from the even genus-2 Matsumoto block and W, after "
                "cancelling the C''^2 and C' twists; signature ledger "
                "(-4) + (-6) - (-3) = -7",
                "the relator for B2pp is printed with a doubled '=1'; "
                "transcribed as a single relator",
            ),
        ),
        _entry(
            "W2",
            "genus-4 hyperelliptic fibration with 24 fibers on an exotic "
            "CP^2 # 9 CP^2bar",
            4, 0,
            "alpha0 alpha1 alpha2 alpha3 alpha4 beta0 beta1 beta2 beta3 beta4 "
            "f y1 y2 x3 d D2 C epp z1 z2 z3 dpp B2pp Cpp",
            (18, 6, 0), True,
            sep={"f": 1, "d": 1, "C": 1, "epp": 1, "dpp": 1, "Cpp": 1},
            words=_W2_WORDS,
            notes=(
                "the source twist word prints beta1 twice and omits beta2 in "
                "two places; transcribed as beta0..beta4 once each, as the "
                "even Matsumoto block requires and as the relator list "
                "(which defines beta2) confirms",
                "all six separating letters have type 1, consistent with "
                "s2 = 0",
            ),
        ),
    )


def get_entry(name: str) -> CatalogEntry:
    for entry in load_catalog():
        if entry.name == name or name in entry.aliases:
            return entry
    raise KeyError(f"no catalog entry named {name!r}")


def presentation_from_factorization(f: Factorization) -> GroupPresentation:
    """Presentation of pi_1 of the total space: the surface group of the
    capped fiber modulo the words of the distinct letter curves.

    Words enter as relators in order of first appearance in the twist
    word; letter curves without a word contribute nothing.  Raises
    NoWordData when no letter curve carries a word.  The group layer is
    imported here, so listing and showing entries never load it.
    """
    from .fpgroup import quotient_by_cycles, surface_group

    f = cap_boundary(f)
    distinct = dict.fromkeys(letter.curve for letter in f.letters)
    cycles = [f.curve(name).word for name in distinct if f.curve(name).word is not None]
    if not cycles:
        raise NoWordData("the letter curves carry no pi_1 words")
    return quotient_by_cycles(surface_group(f.spec.genus), cycles)


def pi1_presentation(entry_name: str) -> GroupPresentation:
    """``presentation_from_factorization`` of a catalog entry.

    Only entries whose letters carry printed words (W1 and W2) support
    this; others raise NoWordData.
    """
    return presentation_from_factorization(get_entry(entry_name).factorization)


def invariant_report(entry_name: str) -> InvariantReport:
    """e, sigma, chi_h and Betti data for an entry, from its counts.

    Hyperelliptic entries take sigma from the closed-form signature;
    W1 takes it from its signature ledger.
    """
    entry = get_entry(entry_name)
    e = euler_characteristic(entry.counts)
    if entry.hyperelliptic:
        sigma, integral = hyperelliptic_signature(entry.counts)
        if not integral:
            raise CatalogError(
                f"{entry.name}: hyperelliptic signature is not an integer"
            )
        sigma = int(sigma)
    elif entry.ledger is not None:
        sigma = endo_nagami_total(entry.ledger)
    else:
        raise CatalogError(f"{entry.name}: no signature route available")
    return chi_and_betti(e, sigma)
