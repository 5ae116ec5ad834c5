"""Factorization values: twist letters over a table of curves, and their checks.

A factorization stores its twist letters left to right exactly as the
word is written, over a table of declared curves on a surface and with a
target: the identity, or a product of boundary twists.  This module holds
the values and the checks that make them well formed (``check_curve``,
``check_target``), the class a letter acts by (``effective_class``), and
the operations that need no homology arithmetic: the fiber tally
``letter_counts``, ``cancel_adjacent_inverses`` and ``cap_boundary``.
``_minted`` is the one trusted constructor of a nonseparating curve.

The transvection calculus on these values (products, verification,
Hurwitz moves, conjugation) is in ``twists``, which imports four names
from here (``Factorization``, ``TwistLetter``, ``_minted`` and
``effective_class``), so the catalog, the ``.mono`` reader and ``pi1``
load this module without it.

Letters, curves and classes are slotted frozen values, and every
operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .invariants import FiberCounts, exact_ints
from .surface import BOUNDARY, KIND_INT, NONSEP, SEP, CurveClass, HomologyClass
from .surface import SurfaceSpec, generator_index
from .words import exponent_sums, free_reduce

# Target of a factorization: () means the identity, otherwise a tuple of
# (boundary index, twist exponent) pairs for t_delta_i powers.
Target = tuple[tuple[int, int], ...]
IDENTITY_TARGET: Target = ()


class MissingHomology(ValueError):
    """A nonseparating letter has no homology class assigned."""

    def __init__(self, curve_name: str):
        super().__init__(f"curve {curve_name!r} has no homology class assigned")
        self.curve_name = curve_name


@dataclass(frozen=True, slots=True)
class TwistLetter:
    """One Dehn-twist letter: a curve name and a sign (+1 or -1)."""

    curve: str
    sign: int = 1

    def __post_init__(self) -> None:
        if self.sign.__class__ is not int or self.sign not in (1, -1):
            raise ValueError(f"twist sign must be the int +1 or -1, got {self.sign!r}")


@dataclass(frozen=True)
class Factorization:
    """An ordered Dehn-twist word over a table of declared curves."""

    spec: SurfaceSpec
    curves: tuple[CurveClass, ...]
    letters: tuple[TwistLetter, ...]
    target: Target = IDENTITY_TARGET

    def __post_init__(self) -> None:
        # tuples, so a list-built value equals and hashes as its twin
        vars(self).update(curves=tuple(self.curves), letters=tuple(self.letters))
        index: dict[str, CurveClass] = {}
        for curve in self.curves:
            if curve.name in index:
                raise ValueError(f"duplicate curve name {curve.name!r}")
            index[curve.name] = curve
            check_curve(curve, self.spec)
        for letter in self.letters:
            if letter.curve not in index:
                raise ValueError(
                    f"letter references undeclared curve {letter.curve!r}"
                )
        vars(self).update(target=check_target(self.target, self.spec), _index=index)

    @classmethod
    def _checked(cls, spec, index, letters, target, curves=None) -> "Factorization":
        """Build from parts already checked, skipping ``__post_init__``.

        The caller vouches for those checks: ``index`` maps each name to
        its curve in table order and each curve passed ``check_curve`` on
        ``spec``; each letter names a key; ``target`` is ``check_target``'s;
        ``curves``, when given, is ``tuple(index.values())``.  The result
        keeps ``index`` as its table, so nothing may change it.  The
        fields go into ``vars()`` in one ``update``: setting each with
        ``object.__setattr__`` made ``monodromy`` jobs 3-5% slower.
        """
        if curves is None:
            curves = tuple(index.values())
        out = object.__new__(cls)
        vars(out).update(spec=spec, curves=curves, letters=letters, target=target,
                         _index=index)
        return out

    def curve(self, name: str) -> CurveClass:
        return self._index[name]

    @property
    def is_identity_target(self) -> bool:
        return not self.target

    def all_positive(self) -> bool:
        return all(letter.sign == 1 for letter in self.letters)


def check_curve(curve: CurveClass, spec: SurfaceSpec) -> None:
    """Check a curve's data against the surface it is declared on.

    Raises ValueError for a nonseparating curve on genus 0, a separating
    type above floor(g/2), a boundary index above the boundary count, a
    class of rank other than 2g, a word with letters outside a1..ag,
    b1..bg, a class that differs from the abelianization of the word, or,
    with no class, a word whose abelianization the kind rules out (see
    ``CurveClass``).
    """
    g = spec.genus
    if curve.kind == NONSEP and g == 0:
        raise ValueError(f"curve {curve.name!r}: genus 0 has no nonseparating curves")
    if curve.kind in KIND_INT:
        field, noun, top = KIND_INT[curve.kind]
        value = getattr(curve, field)
        if value > top(spec):
            raise ValueError(
                f"curve {curve.name!r}: {noun} {value} out of range 1..{top(spec)}"
            )
    if curve.homology is not None and len(curve.homology.coords) != 2 * g:
        raise ValueError(
            f"curve {curve.name!r}: homology rank "
            f"{len(curve.homology.coords)} does not match 2g = {2 * g}"
        )
    if curve.word is None:
        return
    # One sparse abelianization, basis index -> exponent sum, for either check.
    sums = {generator_index(name, g): v for name, v in exponent_sums(curve.word).items()}
    if curve.homology is not None:
        if curve.homology.coords != tuple(sums.get(i, 0) for i in range(2 * g)):
            raise ValueError(
                f"curve {curve.name!r}: homology does not match the "
                "abelianization of its word"
            )
    elif curve.kind == NONSEP and math.gcd(*sums.values()) != 1:
        raise ValueError(f"curve {curve.name!r}: a nonseparating curve's word "
                         "must abelianize to a class of coordinate gcd 1")
    elif curve.kind != NONSEP and any(sums.values()):
        raise ValueError(f"curve {curve.name!r}: a {curve.kind} curve's word "
                         "must abelianize to zero")


def check_target(target: Target, spec: SurfaceSpec) -> Target:
    """The target with exact int pairs; ValueError unless each entry is a
    (boundary index, exponent) pair whose index lies in 1..r and appears
    once."""
    pairs: dict[int, int] = {}
    for entry in target:
        try:
            index, exponent = entry
        except (TypeError, ValueError):
            raise ValueError(f"target entry {entry!r} is not a pair") from None
        index, exponent = exact_ints((index, exponent), "target entries")
        if not 1 <= index <= spec.boundary_count:
            raise ValueError(
                f"target boundary index {index} out of range "
                f"1..{spec.boundary_count}"
            )
        if index in pairs:
            raise ValueError(f"target boundary index {index} repeated")
        pairs[index] = exponent
    return tuple(pairs.items())


def effective_class(curve: CurveClass, spec: SurfaceSpec) -> HomologyClass:
    """Homology class a twist letter acts by.

    Separating and boundary-parallel curves are null-homologous after
    capping, so they get the zero class even when none is stored.
    Nonseparating curves without a stored class raise MissingHomology.
    """
    if curve.homology is not None:
        return curve.homology
    if curve.kind in (SEP, BOUNDARY):
        return HomologyClass.zero(spec.genus)
    raise MissingHomology(curve.name)


def letter_counts(f: Factorization) -> FiberCounts | None:
    """Tally letter kinds into fiber counts (boundary letters cap away);
    None when no letter is nonseparating or separating."""
    g = f.spec.genus
    n = 0
    s = [0] * (g // 2)
    for letter in f.letters:
        curve = f.curve(letter.curve)
        if curve.kind == NONSEP:
            n += 1
        elif curve.kind == SEP:
            s[curve.h - 1] += 1
    return FiberCounts(g, n, tuple(s)) if n or any(s) else None


# The one trusted constructor of a nonseparating curve with a primitive
# class and no word, for Hurwitz moves and the .mono parser; each says why
# the checks hold.  It fills the seven slots through the member descriptors'
# own ``__set__``, as ``feasibility._rows`` does, skipping the frozen
# ``__setattr__`` and ``__post_init__``: about 0.47 us a call, against 1.1 us
# for an ``object.__setattr__`` loop and 2.1 us for the checking constructors.
_new = object.__new__
_set_coords = HomologyClass.coords.__set__
_set_curve = tuple(getattr(CurveClass, field).__set__
                   for field in CurveClass.__dataclass_fields__)


def _minted(name: str, coords: tuple[int, ...]) -> CurveClass:
    """``CurveClass(name, NONSEP, homology=HomologyClass(coords))``."""
    homology = _new(HomologyClass)
    _set_coords(homology, coords)
    curve = _new(CurveClass)
    set_name, set_kind, set_h, set_index, set_homology, set_word = _set_curve
    set_name(curve, name)
    set_kind(curve, NONSEP)
    set_h(curve, None)
    set_index(curve, None)
    set_homology(curve, homology)
    set_word(curve, None)
    return curve


def cancel_adjacent_inverses(f: Factorization) -> Factorization:
    """Remove adjacent t_c t_c^-1 and t_c^-1 t_c pairs until none remain."""
    pairs = free_reduce(tuple((letter.curve, letter.sign) for letter in f.letters))
    return replace(f, letters=tuple(TwistLetter(curve, sign) for curve, sign in pairs))


def cap_boundary(f: Factorization) -> Factorization:
    """Cap off all boundary components.

    Boundary-parallel letters disappear, boundary-parallel curves leave
    the table, and the target becomes the identity.
    """
    if f.spec.boundary_count == 0:  # check_target admits no target here
        return f
    curves = tuple(c for c in f.curves if c.kind != BOUNDARY)
    kept = {c.name for c in curves}
    letters = tuple(letter for letter in f.letters if letter.curve in kept)
    return Factorization(
        spec=f.spec.capped(), curves=curves, letters=letters, target=IDENTITY_TARGET
    )
