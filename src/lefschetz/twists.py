"""Dehn-twist word calculus on the integral symplectic representation.

A factorization stores its twist letters left to right exactly as the
word is written.  Composition is functional (the rightmost letter acts
first), so the matrix of a word t_c1 t_c2 ... t_cm is the product
M(c1) M(c2) ... M(cm) with the leftmost factor outermost.

The homological action of a positive twist about a curve with class a is
the transvection  x |-> x + <x, a> a ;  a negative twist uses -<x, a>.
``transvect`` applies it to one vector; products are built on rows with
one sparse rank-1 update per letter.  Each update adds k times one row to
another; a unit multiplier k = +-1 runs as a C-level ``map`` (95% of the
updates in the ``monodromy`` benchmark: all of them on its starting words,
91% after its Hurwitz walks grow the entries), any other k as a list
comprehension, and each distinct class's support is found once per product.
Separating and boundary-parallel curves act trivially (their class is
zero after capping), so everything verified here is a necessary
condition only: a matrix identity never certifies a relator, but a
non-identity matrix refutes one.

Hurwitz moves operate on homology data only (kind plus class); the
underlying isotopy class is not tracked.  Curves created by a move are
named ``<old>@h<counter>`` with the smallest unused counter, so move
sequences are reproducible.  Any curve whose name has that ``@h`` form,
minted or declared, leaves the table when a move takes away its last
letter.

All operations are pure functions over immutable values.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from operator import add, sub

from .invariants import FiberCounts, twist_count_congruence
from .surface import (
    BOUNDARY,
    KIND_INT,
    NONSEP,
    SEP,
    CurveClass,
    HomologyClass,
    SurfaceSpec,
    exact_ints,
    generator_index,
    homology_of_word,
    pair_coords,
)
from .words import exponent_sums, free_reduce

Matrix = tuple[tuple[int, ...], ...]

# Target of a factorization: () means the identity, otherwise a tuple of
# (boundary index, twist exponent) pairs for t_delta_i powers.
Target = tuple[tuple[int, int], ...]
IDENTITY_TARGET: Target = ()


class MissingHomology(ValueError):
    """A nonseparating letter has no homology class assigned."""

    def __init__(self, curve_name: str):
        super().__init__(f"curve {curve_name!r} has no homology class assigned")
        self.curve_name = curve_name


@dataclass(frozen=True)
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
        object.__setattr__(self, "target", check_target(self.target, self.spec))
        object.__setattr__(self, "_index", index)

    @classmethod
    def _checked(cls, spec, index, letters, target) -> "Factorization":
        """Build from parts already checked, skipping ``__post_init__``.

        The caller vouches for those checks: ``index`` maps each name to
        its curve in table order and each curve passed ``check_curve`` on
        ``spec``; each letter names a key; ``target`` is ``check_target``'s.
        The result keeps ``index`` as its table, so nothing may change it.
        """
        out = object.__new__(cls)
        vars(out).update(spec=spec, curves=tuple(index.values()), letters=letters,
                         target=target, _index=index)
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

    Raises ValueError for a separating type above floor(g/2), a boundary
    index above the boundary count, a class of rank other than 2g, a word
    with letters outside a1..ag, b1..bg, a class that differs from the
    abelianization of the word, or, with no class, a word whose
    abelianization the kind rules out (see ``CurveClass``).
    """
    g = spec.genus
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
    if curve.homology is None:  # sparse sums: no 2g-entry vector to build
        sums = exponent_sums(curve.word)
        for name in sums:
            generator_index(name, g)
        if curve.kind == NONSEP and math.gcd(*sums.values()) != 1:
            raise ValueError(f"curve {curve.name!r}: a nonseparating curve's word "
                             "must abelianize to a class of coordinate gcd 1")
        if curve.kind != NONSEP and any(sums.values()):
            raise ValueError(f"curve {curve.name!r}: a {curve.kind} curve's word "
                             "must abelianize to zero")
    elif curve.homology != homology_of_word(curve.word, spec):
        raise ValueError(
            f"curve {curve.name!r}: homology does not match the "
            "abelianization of its word"
        )


def check_target(target: Target, spec: SurfaceSpec) -> Target:
    """The target with exact int pairs; ValueError unless its boundary
    indices lie in 1..r and appear once each."""
    target = tuple(exact_ints(pair, "target entries") for pair in target)
    seen: set[int] = set()
    for boundary_index, _exponent in target:
        if not 1 <= boundary_index <= spec.boundary_count:
            raise ValueError(
                f"target boundary index {boundary_index} out of range "
                f"1..{spec.boundary_count}"
            )
        if boundary_index in seen:
            raise ValueError(f"target boundary index {boundary_index} repeated")
        seen.add(boundary_index)
    return target


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


# -- integer matrix helpers ------------------------------------------------


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(m: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def is_symplectic(m: Matrix, genus: int) -> bool:
    """Whether m is 2g x 2g and keeps the pairing: <Me_i, Me_j> = <e_i, e_j>."""
    n = 2 * genus
    if len(m) != n or any(len(row) != n for row in m):
        return False
    pairs = tuple(zip(identity_matrix(n), zip(*m)))  # (e_j, M e_j)
    return all(
        pair_coords(mx, my) == pair_coords(x, y) for x, mx in pairs for y, my in pairs
    )


# -- twist action ----------------------------------------------------------


def _plus(x, k: int, y) -> list[int]:
    """x + k y entrywise; a unit multiplier k runs as a C-level map."""
    if k == 1:
        return list(map(add, x, y))
    if k == -1:
        return list(map(sub, x, y))
    return [xi + k * yi for xi, yi in zip(x, y)]


def transvect(x: tuple[int, ...], a: tuple[int, ...], sign: int) -> tuple[int, ...]:
    """Image of the vector x under t_a^sign:  x |-> x + sign <x, a> a.

    Returns x itself, not a copy, when <x, a> = 0.
    """
    k = sign * pair_coords(x, a)
    return tuple(_plus(x, k, a)) if k else x


def _twist_product(n: int, twists: list[tuple[tuple[int, ...], int]]) -> Matrix:
    # Rows of P = M(c1) ... M(cm), built as P <- M(ck) P from the right.
    # M(a)^s = I + s a w^T with w^T x = <x, a>, so w_{i^1} is -a_i for even
    # i and +a_i for odd i: c = w^T P sums the rows i^1 over a's support,
    # and only the rows in that support change, by s a_i c.  Words repeat
    # few classes (80% of the monodromy benchmark's letters reuse one), so
    # each support is built once per call.
    rows = [list(row) for row in identity_matrix(n)]
    supports: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for a, sign in reversed(twists):
        support = supports.get(a)
        if support is None:
            support = supports[a] = [(i, ai) for i, ai in enumerate(a) if ai]
        c = [0] * n
        for i, ai in support:
            c = _plus(c, ai if i & 1 else -ai, rows[i ^ 1])
        for i, ai in support:
            rows[i] = _plus(rows[i], sign * ai, c)
    return tuple(map(tuple, rows))


def twist_matrix(a: HomologyClass, sign: int = 1) -> Matrix:
    """Transvection matrix of t_a^sign:  x |-> x + sign <x, a> a.

    The class must be zero (separating: identity matrix) or primitive.
    """
    if sign.__class__ is not int or sign not in (1, -1):
        raise ValueError(f"twist sign must be the int +1 or -1, got {sign!r}")
    if not a.is_zero() and not a.is_primitive():
        raise ValueError("twist class must be zero or primitive (gcd 1)")
    return _twist_product(len(a.coords), [(a.coords, sign)])


def factorization_matrix(f: Factorization) -> Matrix:
    """Product of the letter transvections in composition order.

    Boundary targets play no role here: boundary twists are homologically
    trivial after capping, so the product is compared against the identity
    regardless of target.
    """
    return _twist_product(f.spec.homology_rank, _nonsep_twists(f))


def _nonsep_twists(f: Factorization) -> list[tuple[tuple[int, ...], int]]:
    """(class, sign) of each nonseparating letter, left to right, so
    MissingHomology names the leftmost one without a class.  The other
    letters act trivially and are skipped before any vector is built."""
    return [
        (effective_class(curve, f.spec).coords, letter.sign)
        for letter in f.letters
        if (curve := f.curve(letter.curve)).kind == NONSEP
    ]


# -- verification ----------------------------------------------------------

NECESSITY_NOTE = (
    "matrix identity is a necessary condition only: failure refutes the "
    "relator, success does not certify it"
)


@dataclass(frozen=True)
class VerificationReport:
    matrix_ok: bool
    congruence_ok: bool | None
    counts: FiberCounts | None  # None: the word has no fiber letter
    letter_kinds: tuple[tuple[str, str], ...]
    all_positive: bool
    note: str = NECESSITY_NOTE


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


def verify_homological_relator(
    f: Factorization, hyperelliptic: bool = False
) -> VerificationReport:
    """Check the word against the identity in the homology representation.

    Boundary letters act as the identity and tally as nothing, so the
    check always compares the letter product with the identity, as if the
    boundary were capped.  When ``hyperelliptic`` is set the twist-count
    congruence is evaluated as a second necessary condition.  A word with
    no nonseparating or separating letter has no fibers: its counts and
    congruence are None, and only the matrix is checked.

    A twist moves only the handles its class touches, so the product is
    compared with the identity on the touched handles alone: the cost
    follows the letters, not the square of the genus.
    """
    counts = letter_counts(f)
    twists = _nonsep_twists(f)
    classes = {a for a, _ in twists}
    handles = sorted({i // 2 for a in classes for i, x in enumerate(a) if x})
    keep = [k for h in handles for k in (2 * h, 2 * h + 1)]
    if len(keep) < f.spec.homology_rank:
        twists = [(tuple(a[k] for k in keep), sign) for a, sign in twists]
    matrix_ok = _twist_product(len(keep), twists) == identity_matrix(len(keep))
    congruence_ok = None
    if hyperelliptic and counts is not None:
        congruence_ok = twist_count_congruence(counts)
    kinds = tuple(
        (letter.curve, f.curve(letter.curve).kind_label()) for letter in f.letters
    )
    return VerificationReport(
        matrix_ok=matrix_ok,
        congruence_ok=congruence_ok,
        counts=counts,
        letter_kinds=kinds,
        all_positive=f.all_positive(),
    )


# -- word moves ------------------------------------------------------------


_DERIVED_NAME = re.compile(r"(.+)@h[0-9]+\Z")


def hurwitz_move(f: Factorization, i: int, direction: str = "right") -> Factorization:
    """Elementary Hurwitz move at 1-based position i (letters i, i+1).

    right:  (t_a, t_b) -> (t_b, t_{b^-1(a)})
    left:   (t_a, t_b) -> (t_{a(b)}, t_a)      (the inverse move)

    The conjugated letter keeps its sign and kind; its class is the
    transvect image under the conjugating twist.  The product matrix
    and the multiset of letter kinds are unchanged.

    When the two classes pair to 0 the twists commute: the move swaps the
    two letter objects and the result shares f's curve table.  Otherwise
    the conjugated letter names the curve the old one was derived from
    when the move undoes the derivation, else a new ``<old>@h<k>`` with
    the least unused k.  A new curve has no pi_1 word, since conjugating a
    word would need twist data we do not track.  The old curve leaves the
    table when its name has the ``@h`` form and no letter uses it any
    more; only the curve that lost a letter can have become unused.  So
    when no letter of f names an ``@h`` curve, a move followed by its
    inverse restores f exactly.

    The result is valid by construction, so ``Factorization.__post_init__``
    is skipped: every kept curve was checked in f; a new curve copies the
    kind, h and boundary index of a checked curve, has a class of the same
    rank and no word, and its name is not yet taken; the letters only name
    curves of the table; the spec and target are f's.
    """
    if direction not in ("right", "left"):
        raise ValueError(f"direction must be 'right' or 'left', got {direction!r}")
    (i,) = exact_ints((i,), "Hurwitz move positions")
    if not 1 <= i < len(f.letters):
        raise ValueError(
            f"position {i} out of range 1..{len(f.letters) - 1} for a "
            f"{len(f.letters)}-letter factorization"
        )
    first, second = f.letters[i - 1 : i + 1]
    # left to right, so MissingHomology names the leftmost class-less letter
    class_a = effective_class(f.curve(first.curve), f.spec)
    class_b = effective_class(f.curve(second.curve), f.spec)
    # The moving curve is conjugated by the other letter, inverted on a right
    # move; the sign also puts the moved letter second on a right move.
    if direction == "right":
        moving, old_class, by, by_class, sign = first, class_a, second, class_b, -1
    else:
        moving, old_class, by, by_class, sign = second, class_b, first, class_a, 1
    image = transvect(old_class.coords, by_class.coords, sign * by.sign)
    if image is old_class.coords:  # the classes pair to 0: the twists commute
        letters = f.letters[: i - 1] + (moving, by)[::sign] + f.letters[i + 1 :]
        return Factorization._checked(f.spec, f._index, letters, f.target)
    index = dict(f._index)
    old = index[moving.curve]
    derived = _DERIVED_NAME.match(old.name)
    parent = index.get(derived.group(1)) if derived else None
    if (
        parent is not None
        and parent.kind == old.kind
        and effective_class(parent, f.spec).coords == image
    ):
        new = parent
    else:
        k = 1
        while f"{old.name}@h{k}" in index:
            k += 1
        name = f"{old.name}@h{k}"
        new = index[name] = CurveClass(
            name, old.kind, old.h, old.boundary_index, HomologyClass(image)
        )
    pair = (TwistLetter(new.name, moving.sign), by)[::sign]
    letters = f.letters[: i - 1] + pair + f.letters[i + 1 :]
    if derived and all(letter.curve != old.name for letter in letters):
        del index[old.name]
    return Factorization._checked(f.spec, index, letters, f.target)


def conjugate_factorization(f: Factorization, m: Matrix) -> Factorization:
    """Map every stored curve class by a symplectic matrix m.

    Curve names and kinds are preserved; classes become m times the old
    class.  The factorization matrix conjugates: matrix(result) equals
    m matrix(f) m^-1.
    """
    if not is_symplectic(m, f.spec.genus):
        raise ValueError("conjugating matrix is not symplectic (M^T J M != J)")

    def mapped(c: CurveClass) -> CurveClass:
        if c.homology is None:
            return c
        image = HomologyClass(mat_vec(m, c.homology.coords))
        if image == c.homology:
            return c
        # a genuinely moved curve cannot keep its pi_1 word
        return replace(c, homology=image, word=None)

    return replace(f, curves=tuple(mapped(c) for c in f.curves))


def cancel_adjacent_inverses(f: Factorization) -> Factorization:
    """Remove adjacent t_c t_c^-1 and t_c^-1 t_c pairs until none remain."""
    pairs = free_reduce(tuple((letter.curve, letter.sign) for letter in f.letters))
    return replace(f, letters=tuple(TwistLetter(curve, sign) for curve, sign in pairs))


def cap_boundary(f: Factorization) -> Factorization:
    """Cap off all boundary components.

    Boundary-parallel letters disappear, boundary-parallel curves leave
    the table, and the target becomes the identity.
    """
    if f.spec.boundary_count == 0 and f.is_identity_target:
        return f
    curves = tuple(c for c in f.curves if c.kind != BOUNDARY)
    kept = {c.name for c in curves}
    letters = tuple(letter for letter in f.letters if letter.curve in kept)
    return Factorization(
        spec=f.spec.capped(), curves=curves, letters=letters, target=IDENTITY_TARGET
    )
