"""Dehn-twist word calculus on the integral symplectic representation.

The values it acts on, ``Factorization``, ``TwistLetter`` and the curve
and target checks, are defined in ``factorization``.  The catalog, the
``.mono`` reader and ``pi1`` import them from there and never load this
module.

A factorization stores its twist letters left to right exactly as the
word is written.  Composition is functional (the rightmost letter acts
first), so the matrix of a word t_c1 t_c2 ... t_cm is the product
M(c1) M(c2) ... M(cm) with the leftmost factor outermost.

The homological action of a positive twist about a curve with class a is
the transvection  x |-> x + <x, a> a ;  a negative twist uses -<x, a>.
``transvect`` applies it to one vector; products are built on rows with
one sparse rank-1 update per letter, and each distinct class's support is
found once per product.  Each row is packed into one int with a fixed-width
field per entry (Kronecker substitution), so a row update is one int
multiply-add, exact whatever the carries between fields.  A bound on the
entries, grown per letter and reset from the rows when it nears the field
width, says when the fields still decode; when the entries themselves
would not fit, the product is redone at twice the width.  Matrices are
decoded once, at the end; ``verify_homological_relator`` compares the
packed rows with the packed identity without decoding.
Separating and boundary-parallel curves act trivially (their class is
zero after capping), so everything verified here is a necessary
condition only: a matrix identity never certifies a relator, but a
non-identity matrix refutes one.

Hurwitz moves operate on homology data only (kind plus class); the
underlying isotopy class is not tracked.  A move changes only a
nonseparating letter's class; the curve it creates is nonseparating and
named ``<old>@h<counter>`` with the smallest unused counter, so move
sequences are reproducible.  Any curve whose name has that ``@h`` form,
minted or declared, leaves the table when a move takes away its last
letter.  A move costs its two classes' arithmetic plus C-level copies of
the word and the curve table: its result and the curve it mints are valid
by construction and are not checked again, and whether the old curve is
still used is one C-level scan of the word.

All operations are pure functions over immutable values.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from operator import add, attrgetter, sub

from .factorization import Factorization, TwistLetter, _minted, effective_class
from .invariants import FiberCounts, exact_ints, twist_count_congruence
from .surface import NONSEP, pair_coords

Matrix = tuple[tuple[int, ...], ...]

# -- twist action ----------------------------------------------------------


def transvect(x: tuple[int, ...], a: tuple[int, ...], sign: int) -> tuple[int, ...]:
    """Image of the vector x under t_a^sign:  x |-> x + sign <x, a> a.

    Returns x itself, not a copy, when <x, a> = 0.  A unit multiplier
    runs as a C-level map.
    """
    k = sign * pair_coords(x, a)
    if k == 1:
        return tuple(map(add, x, a))
    if k == -1:
        return tuple(map(sub, x, a))
    return tuple(xi + k * ai for xi, ai in zip(x, a)) if k else x


# Entries are packed first into fields of this many bits, and into fields
# twice as wide whenever a product's entries could outgrow them.
_WIDTH = 64
# to_bytes in native order puts field 0 first on a little-endian host and
# last on a big-endian one; either way each field's bytes are native.
_FIELD_STEP = 1 if sys.byteorder == "little" else -1


def _packed_product(
    n: int, twists: list[tuple[tuple[int, ...], int]], width: int = _WIDTH
) -> tuple[list[int], int]:
    """Rows of P = M(c1) ... M(cm), row i packed into one int as
    sum_j P[i][j] 2^(width j), and the width they are packed at.

    P is built as P <- M(ck) P from the right.  M(a)^s = I + s a w^T with
    w^T x = <x, a>, so w_{i^1} is -a_i for even i and +a_i for odd i: the
    pairing row c = w^T P sums the rows i^1 over a's support, and only the
    rows in that support change, by s a_i c.  Packing is Z-linear, so each
    of these is one int operation, exact whatever the carries between
    fields.  Words repeat few classes, so each class's support is found
    once per call, in one loop over a that also sums |a_i| and keeps the
    largest: on 2g <= 20 small ints that runs faster than a comprehension
    and two ``map`` passes (CPython 3.11-3.13).

    Every entry lies in [-2^bits, 2^bits), the range of a (bits + 1)-bit
    two's complement field, so the fields decode exactly while bits is
    below the width.  A letter keeps entries of [-2^b, 2^b) inside
    [-2^(b + grow), 2^(b + grow)) when 1 + max|a_i| sum|a_i| <= 2^grow,
    since |c_j| <= sum|a_i| 2^b and P[i][j] <= 2^b - 1.  A letter that
    would take bits to the width first resets it from the rows
    themselves; if it still would, the product is redone at twice the
    width.
    """
    rows = [1 << (width * i) for i in range(n)]
    bits = 1
    supports: dict[tuple[int, ...], tuple[list[tuple[int, int, int]], int]] = {}
    for a, sign in reversed(twists):
        entry = supports.get(a)
        if entry is None:
            support = []
            top = total = 0
            for i, ai in enumerate(a):
                if ai:
                    support.append((i, ai if i & 1 else -ai, ai))
                    size = abs(ai)
                    total += size
                    if size > top:
                        top = size
            entry = supports[a] = support, (top * total).bit_length()
        support, grow = entry
        if not support:  # the zero class acts as the identity
            continue
        bits += grow
        if bits >= width:
            bits = _magnitude(rows, width) + grow
            if bits >= width:
                return _packed_product(n, twists, 2 * width)
        c = 0
        for i, wi, _ in support:
            c += wi * rows[i ^ 1]
        if sign < 0:
            c = -c
        for i, _, ai in support:
            rows[i] += ai * c
    return rows, width


def _twos(rows: list[int], width: int) -> list[int]:
    """Packed rows with every field in width-bit two's complement, given
    that every field lies in [-2^(width - 1), 2^(width - 1)).

    Adding 2^(width - 1) to every field makes each nonnegative without
    borrows, and the xor flips each field's top bit back.
    """
    offset = ((1 << (width * len(rows))) - 1) // ((1 << width) - 1) << (width - 1)
    return [(row + offset) ^ offset for row in rows]


def _magnitude(rows: list[int], width: int) -> int:
    """The least e >= 0 with every field in [-2^e, 2^e), found without
    decoding.

    Bit t of u ^ (u >> 1) is set where bits t and t + 1 of a field differ;
    above the highest such t, a field is all sign bits.  The fields are
    ORed together, and the top bit of each, which met the next field's
    low bit, is dropped.
    """
    acc = 0
    for u in _twos(rows, width):
        acc |= u ^ (u >> 1)
    low = 0
    while acc:
        low |= acc
        acc >>= width
    return (low & ((1 << (width - 1)) - 1)).bit_length()


def _unpack(rows: list[int], width: int) -> Matrix:
    """The fields of packed rows as a matrix, field 0 first."""
    size = len(rows) * width // 8
    if width == 64:
        return tuple(
            tuple(memoryview(u.to_bytes(size, sys.byteorder)).cast("q")[::_FIELD_STEP])
            for u in _twos(rows, width)
        )
    step = width // 8
    out = []
    for u in _twos(rows, width):
        data = u.to_bytes(size, "little")
        out.append(tuple(int.from_bytes(data[k : k + step], "little", signed=True)
                         for k in range(0, size, step)))
    return tuple(out)


def factorization_matrix(f: Factorization) -> Matrix:
    """Product of the letter transvections in composition order.

    Boundary targets play no role here: boundary twists are homologically
    trivial after capping, so the product is compared against the identity
    regardless of target.
    """
    return _unpack(*_packed_product(f.spec.homology_rank, _nonsep_twists(f)))


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
    """Outcome of ``verify_homological_relator`` on one word.

    ``matrix_ok`` says the homological product is the identity.
    ``congruence_ok`` is the hyperelliptic twist-count congruence, or
    None when it was not asked for or the word has no fiber letter.
    ``counts`` is the letter tally (None without a fiber letter),
    ``letter_kinds`` each letter's (curve name, kind label) in word
    order, and ``all_positive`` says every twist is positive.  ``note``
    states that a passing matrix check is necessary, not sufficient.
    """

    matrix_ok: bool
    congruence_ok: bool | None
    counts: FiberCounts | None  # None: the word has no fiber letter
    letter_kinds: tuple[tuple[str, str], ...]
    all_positive: bool
    note: str = NECESSITY_NOTE


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

    One pass over the letters, left to right, collects the tally, the
    nonseparating (class, sign) list, the kind labels and the sign test.
    It resolves each curve name once, the first time it meets it, so
    ``MissingHomology`` names the leftmost letter without a class.  Each
    distinct class is restricted to the touched handles once.  The fields
    are what ``letter_counts``, ``factorization_matrix``, ``kind_label``
    and ``all_positive`` give.  The pass stays its own: sharing a letter
    pass with them, as a lazy loop in ``factorization`` or as a curve
    table in order of first appearance, made a call 4-10% slower, and
    C-level passes over that table about 16% slower (in process, seed 1,
    8 decks, beside an identical control copy).
    """
    spec = f.spec
    index = f._index
    seen: dict[str, tuple] = {}  # name -> ((name, kind label), class, sep type)
    classes: set[tuple[int, ...]] = set()
    kinds = []
    twists = []
    s = [0] * (spec.genus // 2)
    all_positive = True
    for letter in f.letters:
        name, sign = letter.curve, letter.sign
        entry = seen.get(name)
        if entry is None:
            curve = index[name]
            a = None
            if curve.kind == NONSEP:
                a = effective_class(curve, spec).coords
                classes.add(a)
            entry = seen[name] = ((name, curve.kind_label()), a, curve.h)
        pair, a, h = entry
        kinds.append(pair)
        if a is not None:
            twists.append((a, sign))
        elif h is not None:
            s[h - 1] += 1
        if sign != 1:
            all_positive = False
    n = len(twists)
    counts = FiberCounts(spec.genus, n, tuple(s)) if n or any(s) else None
    handles = sorted({i // 2 for a in classes for i, x in enumerate(a) if x})
    keep = [k for h in handles for k in (2 * h, 2 * h + 1)]
    if len(keep) < spec.homology_rank:
        restricted = {a: tuple(a[k] for k in keep) for a in classes}
        twists = [(restricted[a], sign) for a, sign in twists]
    rows, width = _packed_product(len(keep), twists)
    matrix_ok = rows == [1 << (width * j) for j in range(len(keep))]
    congruence_ok = None
    if hyperelliptic and counts is not None:
        congruence_ok = twist_count_congruence(counts)
    return VerificationReport(
        matrix_ok=matrix_ok,
        congruence_ok=congruence_ok,
        counts=counts,
        letter_kinds=tuple(kinds),
        all_positive=all_positive,
    )


# -- word moves ------------------------------------------------------------


_DERIVED_NAME = re.compile(r"(.+)@h[0-9]+\Z")
_CURVE = attrgetter("curve")


def hurwitz_move(f: Factorization, i: int, direction: str = "right") -> Factorization:
    """Elementary Hurwitz move at 1-based position i (letters i, i+1).

    right:  (t_a, t_b) -> (t_b, t_{b^-1(a)})
    left:   (t_a, t_b) -> (t_{a(b)}, t_a)      (the inverse move)

    The conjugated letter keeps its sign and kind; its class is the
    transvect image under the conjugating twist.  The product matrix
    and the multiset of letter kinds are unchanged.

    When the two classes pair to 0 the twists commute: the move swaps the
    two letter objects and the result shares f's curve table and tuple.
    Otherwise both curves are nonseparating, and the conjugated letter
    names the curve the old one was derived from if that curve's class is
    the image, else a new nonseparating ``<old>@h<k>`` with the least
    unused k and no pi_1 word, since conjugating a word would need twist
    data we do not track.  The old curve leaves the table when its name
    has the ``@h`` form and no letter uses it any more; only the curve
    that lost a letter can have become unused.  So when no letter of f
    names an ``@h`` curve, a move followed by its inverse restores f
    exactly.

    The result is valid by construction, so no ``__post_init__`` runs, of
    the factorization, the new curve or its class: every kept curve was
    checked in f; the new curve is nonseparating like the moving one, with
    no word and a class of the same rank that stays primitive, since a
    transvection is unimodular; its name is the old name plus ``@h<k>``,
    so it has no whitespace and no ``#``, and is not yet taken; the
    letters only name curves of the table; the spec and target are f's.
    The new letter is built by ``TwistLetter`` with its sign check, which
    costs about 0.1% of a ``monodromy`` job.
    """
    if direction not in ("right", "left"):
        raise ValueError(f"direction must be 'right' or 'left', got {direction!r}")
    if i.__class__ is not int:
        (i,) = exact_ints((i,), "Hurwitz move positions")
    letters = f.letters
    if not 1 <= i < len(letters):
        raise ValueError(
            f"position {i} out of range 1..{len(letters) - 1} for a "
            f"{len(letters)}-letter factorization"
        )
    first, second = letters[i - 1 : i + 1]
    index = f._index
    # left to right, so MissingHomology names the leftmost class-less letter
    class_a = effective_class(index[first.curve], f.spec)
    class_b = effective_class(index[second.curve], f.spec)
    # The moving curve is conjugated by the other letter, inverted on a right
    # move; the sign also puts the moved letter second on a right move.
    if direction == "right":
        moving, old_class, by, by_class, sign = first, class_a, second, class_b, -1
    else:
        moving, old_class, by, by_class, sign = second, class_b, first, class_a, 1
    image = transvect(old_class.coords, by_class.coords, sign * by.sign)
    if image is old_class.coords:  # the classes pair to 0: the twists commute
        letters = letters[: i - 1] + (moving, by)[::sign] + letters[i + 1 :]
        return Factorization._checked(f.spec, index, letters, f.target, f.curves)
    index = dict(index)
    old = index[moving.curve]
    derived = _DERIVED_NAME.match(old.name)
    parent = index.get(derived.group(1)) if derived else None
    if (
        parent is not None
        and parent.homology is not None
        and parent.homology.coords == image
    ):
        new = parent
    else:
        k = 1
        while f"{old.name}@h{k}" in index:
            k += 1
        name = f"{old.name}@h{k}"
        new = index[name] = _minted(name, image)
    pair = (TwistLetter(new.name, moving.sign), by)[::sign]
    letters = letters[: i - 1] + pair + letters[i + 1 :]
    if derived and old.name not in map(_CURVE, letters):
        del index[old.name]
    return Factorization._checked(f.spec, index, letters, f.target)

