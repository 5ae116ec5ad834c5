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

Letters without printed pi_1 words are kind-only: their homology classes
are defined by figures we do not reproduce, so they cannot be recovered
from text.  Kinds for such letters follow the name families (x/y/z, A/B,
alpha/beta, D nonseparating; d, e, f, C separating of type 1) with
explicit per-entry overrides where a family rule would be wrong (the
genus-4 Matsumoto curve C has type 2).  Any mismatch between the letter
tally and the declared counts is a build-time error, which makes the
transcription self-auditing.

Name conventions: a trailing ``p`` is a prime (x1p = x1'), ``pp`` a
double prime, and ``b`` an overbar (eb = e-bar).

The catalog is immutable static data and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fpgroup import GroupPresentation, quotient_by_cycles, surface_group
from .invariants import (
    LEDGER_BLOCK,
    LEDGER_MATSUMOTO_EVEN,
    LEDGER_SEPARATING,
    FiberCounts,
    InvariantReport,
    LedgerEntry,
    chi_and_betti,
    endo_nagami_total,
    euler_characteristic,
    hyperelliptic_signature,
)
from .surface import (
    NONSEP,
    SEP,
    CurveClass,
    SurfaceSpec,
    classify_kind_from_word,
    homology_of_word,
)
from .twists import Factorization, Target, TwistLetter, cap_boundary, letter_counts
from .words import parse_word


class CatalogError(RuntimeError):
    """Internal consistency failure while building the catalog."""


class NoWordData(ValueError):
    """The entry carries no printed pi_1 words to present a group with."""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    factorization: Factorization
    counts: FiberCounts
    hyperelliptic: bool
    ledger: tuple[LedgerEntry, ...] | None = None
    notes: tuple[str, ...] = ()
    aliases: tuple[str, ...] = ()

    @property
    def spec(self) -> SurfaceSpec:
        return self.factorization.spec


# Default kind by name family; prime/bar suffixes are stripped before the
# lookup, so eb and dpp land on e and d.
_NONSEP_FAMILIES = {"x", "y", "z", "A", "B", "D", "alpha", "beta"}
_SEP_FAMILIES = {"d", "e", "f", "C"}


def default_kind_for_name(name: str) -> str:
    head = []
    for ch in name:
        if ch.isalpha():
            head.append(ch)
        else:
            break
    family = "".join(head)
    while len(family) > 1 and family[-1] in "pb" and family not in _NONSEP_FAMILIES:
        family = family[:-1]
    if family in _NONSEP_FAMILIES:
        return NONSEP
    if family in _SEP_FAMILIES:
        return SEP
    raise CatalogError(f"no kind family for curve name {name!r}")


def _curve(
    spec: SurfaceSpec,
    name: str,
    kind: str | None = None,
    h: int | None = None,
    word: str | None = None,
) -> CurveClass:
    if kind is None:
        kind = default_kind_for_name(name)
    if kind == SEP and h is None:
        h = 1
    parsed = parse_word(word) if word is not None else None
    homology = None
    if parsed is not None:
        homology = homology_of_word(parsed, spec.capped())
    return CurveClass(
        name=name, kind=kind, h=h if kind == SEP else None,
        homology=homology, word=parsed,
    )


def _factorization(
    genus: int,
    boundary: int,
    curves: tuple[CurveClass, ...],
    letter_names: str,
    target: Target = (),
) -> Factorization:
    spec = SurfaceSpec(genus, boundary)
    letters = tuple(TwistLetter(name) for name in letter_names.split())
    return Factorization(spec=spec, curves=curves, letters=letters, target=target)


def _build_t() -> CatalogEntry:
    spec = SurfaceSpec(2, 2)
    curves = tuple(
        _curve(spec, name)
        for name in ("e", "x1", "x2", "x3", "d", "B2", "C")
    )
    f = _factorization(2, 2, curves, "e x1 x2 x3 d B2 C", target=((1, 1), (2, 1)))
    return CatalogEntry(
        name="T",
        description="smallest genus-2 fibration block; two (-1)-sections",
        factorization=f,
        counts=FiberCounts.of(2, 4, 3),
        hyperelliptic=True,
        notes=(
            "total space (T^2 x S^2) # 3 CP^2bar; not simply connected",
        ),
    )


def _build_v2() -> CatalogEntry:
    spec = SurfaceSpec(2, 2)
    curves = tuple(_curve(spec, name) for name in ("B0", "B1", "B2", "C"))
    f = _factorization(2, 2, curves, "B0 B1 B2 C B0 B1 B2 C", target=((1, 1), (2, 1)))
    return CatalogEntry(
        name="V2",
        description="even Matsumoto block, genus 2, as (B0 B1 B2 C)^2",
        factorization=f,
        counts=FiberCounts.of(2, 6, 2),
        hyperelliptic=True,
        notes=(
            "equivalent rewritten shape: C^2 A0 A1 A2 B0 B1 B2 with "
            "A_i the image of B_i under the inverse twist about C",
        ),
    )


def _build_v4() -> CatalogEntry:
    spec = SurfaceSpec(4, 2)
    names = ["C"] + [f"A{i}" for i in range(5)] + [f"B{i}" for i in range(5)]
    curves = tuple(
        _curve(spec, name, kind=SEP if name == "C" else NONSEP,
               h=2 if name == "C" else None)
        for name in names
    )
    f = _factorization(
        4, 2, curves, "C C A0 A1 A2 A3 A4 B0 B1 B2 B3 B4",
        target=((1, 1), (2, 1)),
    )
    return CatalogEntry(
        name="V4",
        description="even Matsumoto block, genus 4, rewritten shape",
        factorization=f,
        counts=FiberCounts.of(4, 10, 0, 2),
        hyperelliptic=True,
        notes=(
            "C splits the genus-4 surface into two genus-2 halves, so it "
            "is separating of type 2 (the name-family default of type 1 "
            "is overridden)",
        ),
    )


def _build_w() -> CatalogEntry:
    spec = SurfaceSpec(3, 2)
    names = (
        "x1 x2 x3 d B2 ep x1p x2p x3p dp B2p Cp eb x1b x2b x3b db B2b"
    )
    curves = tuple(_curve(spec, name) for name in names.split())
    f = _factorization(3, 2, curves, names, target=((1, 1), (2, 2)))
    return CatalogEntry(
        name="W",
        description=(
            "genus-3 hyperelliptic fibration with 18 fibers on an exotic "
            "CP^2 # 7 CP^2bar; one (-1)- and one (-2)-section"
        ),
        factorization=f,
        counts=FiberCounts.of(3, 12, 6),
        hyperelliptic=True,
        aliases=("W3",),
        notes=(
            "also cited under the alias W3 in signature bookkeeping",
            "built by breeding two copies of the 7-letter genus-2 block",
        ),
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


def _build_w1() -> CatalogEntry:
    spec = SurfaceSpec(4, 0)
    names = (
        "A0pp A1pp A2pp B0pp B1pp B2pp eb x1b x2b x3b db B2b "
        "x1 x2 x3 d B2 ep x1p x2p x3p dp B2p"
    )
    curves = tuple(
        _curve(spec, name, word=_W1_WORDS.get(name)) for name in names.split()
    )
    f = _factorization(4, 0, curves, names, target=())
    return CatalogEntry(
        name="W1",
        description=(
            "genus-4 nonhyperelliptic fibration with 23 fibers on an "
            "exotic CP^2 # 8 CP^2bar"
        ),
        factorization=f,
        counts=FiberCounts.of(4, 18, 5, 0),
        hyperelliptic=False,
        ledger=(
            LedgerEntry(LEDGER_MATSUMOTO_EVEN, 1),
            LedgerEntry(LEDGER_BLOCK, 1, value=-6, label="W"),
            LedgerEntry(LEDGER_SEPARATING, -3),
        ),
        notes=(
            "bred from the even genus-2 Matsumoto block and W, after "
            "cancelling the C''^2 and C' twists; signature ledger "
            "(-4) + (-6) - (-3) = -7",
            "the relator for B2pp is printed with a doubled '=1'; "
            "transcribed as a single relator",
        ),
    )


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


def _build_w2() -> CatalogEntry:
    spec = SurfaceSpec(4, 0)
    names = (
        "alpha0 alpha1 alpha2 alpha3 alpha4 beta0 beta1 beta2 beta3 beta4 "
        "f y1 y2 x3 d D2 C epp z1 z2 z3 dpp B2pp Cpp"
    )
    curves = tuple(
        _curve(spec, name, word=_W2_WORDS.get(name)) for name in names.split()
    )
    f = _factorization(4, 0, curves, names, target=())
    return CatalogEntry(
        name="W2",
        description=(
            "genus-4 hyperelliptic fibration with 24 fibers on an exotic "
            "CP^2 # 9 CP^2bar"
        ),
        factorization=f,
        counts=FiberCounts.of(4, 18, 6, 0),
        hyperelliptic=True,
        notes=(
            "the source twist word prints beta1 twice and omits beta2 in "
            "two places; transcribed as beta0..beta4 once each, as the "
            "even Matsumoto block requires and as the relator list "
            "(which defines beta2) confirms",
            "all six separating letters have type 1, consistent with "
            "s2 = 0",
        ),
    )


def _audit(entry: CatalogEntry) -> CatalogEntry:
    f = entry.factorization
    if len(f.letters) != entry.counts.total:
        raise CatalogError(
            f"{entry.name}: {len(f.letters)} letters vs declared total "
            f"{entry.counts.total}"
        )
    # Boundary-parallel letters tally as nothing, so with the total check
    # above they also surface here as a mismatch.
    tally = letter_counts(f)
    if tally != entry.counts:
        raise CatalogError(
            f"{entry.name}: letter tally ({tally.n}, {tally.s}) vs declared "
            f"({entry.counts.n}, {entry.counts.s})"
        )
    for curve in f.curves:
        if curve.word is None:
            continue
        consistent = classify_kind_from_word(curve.word, f.spec.capped())
        declared = NONSEP if curve.kind == NONSEP else SEP
        if consistent != declared:
            raise CatalogError(
                f"{entry.name}: curve {curve.name} declared {curve.kind} "
                f"but its word abelianizes to the {consistent} side"
            )
    return entry


@lru_cache(maxsize=1)
def load_catalog() -> tuple[CatalogEntry, ...]:
    """All catalog entries, audited against their declared counts."""
    return tuple(
        _audit(build())
        for build in (_build_t, _build_v2, _build_v4, _build_w, _build_w1, _build_w2)
    )


def entry_names() -> tuple[str, ...]:
    return tuple(e.name for e in load_catalog())


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
    NoWordData when no letter curve carries a word.
    """
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
