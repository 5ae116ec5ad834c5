"""Surface bookkeeping: genus/boundary data, homology, curve classification.

Conventions (frozen):

* The first homology of the closed genus-g surface has the ordered basis
  (a1, b1, a2, b2, ..., ag, bg); rank 2g.  Boundary components are capped
  off for all homological purposes, so a surface with boundary still
  carries a rank-2g homology here.
* The symplectic pairing is <a_i, b_i> = +1, <b_i, a_i> = -1, all other
  basis pairings 0.  The pairing matrix J is block diagonal with 2x2
  blocks [[0, 1], [-1, 0]].
* Curve kinds: nonseparating, separating of type h (the curve splits the
  closed surface into pieces of genus h and g-h, 1 <= h <= floor(g/2)),
  or boundary-parallel.  Separating and boundary-parallel curves are
  null-homologous after capping.

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .invariants import exact_ints
from .words import Word, exponent_sums

# Curve kinds.
NONSEP = "nonsep"
SEP = "sep"
BOUNDARY = "boundary"

# Curve kinds that carry an integer: the CurveClass field holding it, its
# noun in messages, and its largest value on a SurfaceSpec (the least is 1).
KIND_INT = {
    SEP: ("h", "separating type", lambda spec: spec.genus // 2),
    BOUNDARY: ("boundary_index", "boundary index", lambda spec: spec.boundary_count),
}

_GENERATOR = re.compile(r"([ab])([1-9][0-9]*)\Z")


@dataclass(frozen=True)
class SurfaceSpec:
    """A compact oriented surface: genus and number of boundary circles."""

    genus: int
    boundary_count: int = 0

    def __post_init__(self) -> None:
        genus, boundary_count = exact_ints(
            (self.genus, self.boundary_count), "genus and boundary_count"
        )
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "boundary_count", boundary_count)
        if genus < 0:
            raise ValueError(f"genus must be >= 0, got {genus}")
        if boundary_count < 0:
            raise ValueError(f"boundary_count must be >= 0, got {boundary_count}")

    @property
    def homology_rank(self) -> int:
        return 2 * self.genus

    def capped(self) -> "SurfaceSpec":
        return SurfaceSpec(self.genus, 0)


@dataclass(frozen=True, slots=True)
class HomologyClass:
    """An integer vector over the ordered basis (a1, b1, ..., ag, bg)."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = exact_ints(self.coords, "homology coordinates")
        if len(coords) % 2 != 0:
            raise ValueError("homology coordinates must have even length 2g")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def zero(cls, genus: int) -> "HomologyClass":
        return cls((0,) * (2 * genus))

    @classmethod
    def basis(cls, genus: int, name: str) -> "HomologyClass":
        coords = [0] * (2 * genus)
        coords[generator_index(name, genus)] = 1
        return cls(tuple(coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_primitive(self) -> bool:
        """Nonzero with coordinate gcd 1 (the class of a nonseparating scc)."""
        return math.gcd(*self.coords) == 1 if any(self.coords) else False

    def __add__(self, other: "HomologyClass") -> "HomologyClass":
        if len(self.coords) != len(other.coords):
            raise ValueError(
                f"dimension mismatch: rank {len(self.coords)} vs {len(other.coords)}"
            )
        return HomologyClass(tuple(x + y for x, y in zip(self.coords, other.coords)))


def generator_index(name: str, genus: int) -> int:
    """Index of generator a_k or b_k in the (a1, b1, ..., ag, bg) basis."""
    m = _GENERATOR.match(name)
    if m is None:
        raise ValueError(f"unknown generator {name!r}")
    k = int(m.group(2))
    if not 1 <= k <= genus:
        raise ValueError(f"generator {name!r} out of range for genus {genus}")
    return 2 * (k - 1) + (0 if m.group(1) == "a" else 1)


def pair_coords(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """<x, y> = x^T J y on raw coordinate tuples of the same even length.

    One index loop over the (a_k, b_k) pairs: every Hurwitz move calls
    this, and on a class's 2g small ints the loop runs faster than slices,
    ``map`` and ``sum`` (CPython 3.11-3.13, g <= 10).
    """
    total = 0
    for i in range(0, len(x), 2):
        total += x[i] * y[i + 1] - x[i + 1] * y[i]
    return total


def homology_of_word(word: Word, spec: SurfaceSpec) -> HomologyClass:
    """Abelianization of a pi_1 word: signed exponent sum per generator.

    Raises ValueError for letters outside a1..ag, b1..bg.
    """
    coords = [0] * spec.homology_rank
    for name, total in exponent_sums(word).items():
        coords[generator_index(name, spec.genus)] += total
    return HomologyClass(tuple(coords))


@dataclass(frozen=True, slots=True)
class CurveClass:
    """A named vanishing-cycle datum.

    The name is one ``.mono`` token: non-empty, no whitespace, no ``#``.
    kind is NONSEP, SEP (with separating type ``h``), or BOUNDARY (with
    ``boundary_index``).  ``homology`` and ``word`` are optional algebraic
    data; separating and boundary-parallel curves must be null-homologous,
    nonseparating ones must carry a primitive class when they carry one at
    all.
    """

    name: str
    kind: str
    h: int | None = None
    boundary_index: int | None = None
    homology: HomologyClass | None = None
    word: Word | None = None

    def __post_init__(self) -> None:
        name = self.name
        if not isinstance(name, str) or name.split() != [name] or "#" in name:
            raise ValueError(
                f"curve name must be non-empty with no whitespace or '#', got {name!r}"
            )
        if self.kind not in (NONSEP, *KIND_INT):
            raise ValueError(f"curve {self.name!r}: unknown kind {self.kind!r}")
        if self.word is not None:  # a tuple, like a parsed word
            object.__setattr__(self, "word", tuple(self.word))
        for kind, (field, noun, _top) in KIND_INT.items():
            value = getattr(self, field)
            if value is not None:
                (value,) = exact_ints((value,), f"curve {self.name!r}: {field} values")
                object.__setattr__(self, field, value)
            if kind != self.kind:
                if value is not None:
                    raise ValueError(
                        f"curve {self.name!r}: {noun} only applies to kind {kind}"
                    )
            elif value is None or value < 1:
                raise ValueError(
                    f"curve {self.name!r}: {kind} curves need a {noun} >= 1"
                )
        if self.homology is not None:
            if self.kind == NONSEP:
                if not self.homology.is_primitive():
                    raise ValueError(
                        f"curve {self.name!r}: nonseparating class must be "
                        "nonzero with coordinate gcd 1"
                    )
            elif not self.homology.is_zero():
                raise ValueError(
                    f"curve {self.name!r}: {self.kind} curves are null-homologous"
                )

    def kind_label(self) -> str:
        if self.kind in KIND_INT:
            return f"{self.kind}({getattr(self, KIND_INT[self.kind][0])})"
        return self.kind
