"""The .mono on-disk factorization format.

Line-oriented; a line ends at ``\\n``, ``\\r\\n`` or ``\\r``, Python's
text-mode newlines, and at no other break that ``str.splitlines`` knows.
Tokens are whitespace-separated and ``#`` starts a comment running to the
end of the line.  Sections appear in order:

    genus <INT>
    boundary <INT>
    curve <NAME> kind (nonsep | sep <INT> | boundary <INT>)
          [hom <INT>{2g}] [word <TOKENS>]      # any number of lines
    twist <NAME> [+|-]                         # any number, default +
    target identity
    target (boundary <INT> <INT>)+             # exactly one target line

<INT> is ``-?[0-9]+`` in ASCII digits (no ``+``, no ``_``) and <NAME> is
any non-empty token without whitespace or ``#``.  A declared <NAME> of the
form ``<x>@h<k>`` has the form of the names that Hurwitz moves mint, so a
move that takes away its last letter drops it from the curve table, as it
drops a minted curve; ROADMAP item 11's minted mark is the planned fix.
The kind token is the
kind's name (``surface.NONSEP``, ``SEP``, ``BOUNDARY``).  ``hom`` takes 2g
integers over the ordered basis a1 b1 a2 b2 ... ag bg.  Word tokens are
a<k> / b<k> with a ``~`` suffix for inverses; [x,y] expands to the
commutator x y x~ y~.

Parsing is total: every byte sequence either parses or raises
MonoParseError carrying the offending line number.  Each curve line is
checked once.  A ``nonsep`` line with a ``hom`` class and no ``word``,
spelled as ``serialize_mono`` writes it (single spaces, no comment), is
read whole: one ``fullmatch`` gives its name and integers.  When the
stage takes curves, the name is new, there are 2g integers, each
``int()`` succeeds and their gcd is 1 (so the class is nonzero and
g >= 1), nothing is left to check, and ``factorization._minted`` builds
the curve, as it builds a Hurwitz move's new curve.  Every other line is
tokenised, and ``CurveClass``, ``HomologyClass`` and ``check_curve`` run
on every other curve line, so a line gives the same curve or the same
error whichever way it is read.  Building plain lines with ``_minted``
took parsing from 0.335 to 0.234 ms of a ``monodromy`` job (in process,
seed 1, 8 decks, best of 12 passes), whose second parse reads a table
grown by minted curves; reading them whole took it from 0.237 to 0.201
ms (same measure).  Each distinct twist line is read
once: a raw line seen before in the twist section gives the same letter
again, since the curve table is closed once the twists start and the
section does not change until the target line, after which any line is
an error.
"""

from __future__ import annotations

import re
from math import gcd

from .factorization import Factorization, Target, TwistLetter, _minted, check_curve
from .factorization import check_target
from .invariants import integer
from .surface import KIND_INT, NONSEP, CurveClass, HomologyClass, SurfaceSpec
from .words import WordSyntaxError, format_word, parse_word


class MonoParseError(ValueError):
    """Positioned syntax or consistency error in a .mono document."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _int(token: str, line: int, what: str) -> int:
    try:
        return integer(token)
    except ValueError as exc:
        raise MonoParseError(line, f"{what}: {exc}")


# A plain curve line, as serialize_mono writes one: a name and one or more
# <INT>, single-spaced, with no comment and no word.
_PLAIN_CURVE = re.compile(
    r"curve ([^\s#]+) kind nonsep hom (-?[0-9]+(?: -?[0-9]+)*)"
).fullmatch

# The header directives in order, each with the rule that places it.
_HEADER = {"genus": "be the first directive", "boundary": "come second, after genus"}


def parse_mono(text: str) -> Factorization:
    """Parse a .mono document into a Factorization."""
    header: dict[str, int] = {}
    spec: SurfaceSpec | None = None
    curves: dict[str, CurveClass] = {}
    letters: list[TwistLetter] = []
    read: dict[str, TwistLetter] = {}  # raw line -> letter, in the twist section
    target: Target = ()
    stage = "genus"  # genus -> boundary -> curves -> twists -> done
    lineno = 0

    # Lines end only at Python's text-mode newlines \n, \r\n and \r, not at
    # the other breaks str.splitlines() knows (\x0c, \x85, \u2028, ...).
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:  # a final newline ends the last line, it opens none
        lines.pop()
    for lineno, raw in enumerate(lines, start=1):
        letter = read.get(raw)
        if letter is not None:  # the curve table and stage are as it left them
            letters.append(letter)
            continue
        if stage == "curves" and (plain := _PLAIN_CURVE(raw)):
            name, hom = plain.groups()
            hom = hom.split(" ")
            if len(hom) == rank and name not in curves:
                try:
                    coords = tuple(map(int, hom))
                except ValueError:  # past int()'s digit limit: tokenised, it is an error
                    coords = ()
                if gcd(*coords) == 1:
                    curves[name] = _minted(name, coords)
                    continue
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        head, rest = tokens[0], tokens[1:]
        if stage == "done":
            raise MonoParseError(lineno, f"directive {head!r} after target")
        if head in _HEADER:
            if stage != head:
                raise MonoParseError(lineno, f"{head} must {_HEADER[head]}")
            if len(rest) != 1:
                raise MonoParseError(lineno, f"usage: {head} <INT>")
            value = header[head] = _int(rest[0], lineno, head)
            if value < 0:
                raise MonoParseError(lineno, f"{head} must be >= 0")
            if head == "genus":
                stage = "boundary"
            else:
                stage, spec = "curves", SurfaceSpec(header["genus"], value)
                rank = spec.homology_rank
        elif head == "curve":
            if stage != "curves":
                raise MonoParseError(
                    lineno,
                    "curve lines belong after the header and before twists",
                )
            curve = _parse_curve(rest, spec, lineno)
            if curve.name in curves:
                raise MonoParseError(lineno, f"duplicate curve name {curve.name!r}")
            curves[curve.name] = curve
        elif head == "twist":
            if stage not in ("curves", "twists"):
                raise MonoParseError(
                    lineno, "twist lines belong after the header and before the target"
                )
            stage = "twists"
            if not rest or len(rest) > 2:
                raise MonoParseError(lineno, "usage: twist <NAME> [+|-]")
            name = rest[0]
            if name not in curves:
                raise MonoParseError(
                    lineno, f"twist references undeclared curve {name!r}"
                )
            sign = 1
            if len(rest) == 2:
                if rest[1] not in ("+", "-"):
                    raise MonoParseError(
                        lineno, f"twist sign must be + or -, got {rest[1]!r}"
                    )
                sign = 1 if rest[1] == "+" else -1
            letter = read[raw] = TwistLetter(name, sign)
            letters.append(letter)
        elif head == "target":
            if stage not in ("curves", "twists"):
                raise MonoParseError(lineno, "target must follow the header")
            target = _parse_target(rest, spec, lineno)
            stage = "done"
            read.clear()  # a twist line after the target is an error
        else:
            raise MonoParseError(lineno, f"unknown directive {head!r}")

    if stage != "done":  # a header directive or the target never came
        missing = stage if stage in _HEADER else "target"
        raise MonoParseError(lineno + 1, f"missing {missing} directive")
    # every line was checked as it was read
    return Factorization._checked(spec, curves, tuple(letters), target)


def _parse_curve(rest: list[str], spec: SurfaceSpec, lineno: int) -> CurveClass:
    if len(rest) < 3 or rest[1] != "kind":
        raise MonoParseError(
            lineno, "usage: curve <NAME> kind (nonsep | sep <INT> | boundary <INT>) ..."
        )
    name, kind = rest[0], rest[2]
    pos = 3
    fields = {}
    if kind in KIND_INT:
        field, noun, _top = KIND_INT[kind]
        if pos >= len(rest):
            raise MonoParseError(lineno, f"{kind} needs a {noun}: {kind} <INT>")
        fields[field] = _int(rest[pos], lineno, noun)
        pos += 1
    elif kind != NONSEP:
        raise MonoParseError(lineno, f"unknown curve kind {kind!r}")

    coords = None
    if pos < len(rest) and rest[pos] == "hom":
        pos += 1
        rank = spec.homology_rank
        if len(rest) - pos < rank:
            raise MonoParseError(
                lineno, f"hom needs {rank} integers (basis a1 b1 ... ag bg)"
            )
        coords = tuple([_int(token, lineno, "hom coordinate")
                        for token in rest[pos : pos + rank]])
        pos += rank

    word = None
    if pos < len(rest) and rest[pos] == "word":
        try:
            word = parse_word(" ".join(rest[pos + 1 :]))
        except WordSyntaxError as exc:
            raise MonoParseError(lineno, str(exc))
        pos = len(rest)
    if pos != len(rest):
        raise MonoParseError(
            lineno, f"unexpected trailing tokens {' '.join(rest[pos:])!r}"
        )

    try:
        homology = None if coords is None else HomologyClass(coords)
        curve = CurveClass(name, kind, homology=homology, word=word, **fields)
        check_curve(curve, spec)
        return curve
    except ValueError as exc:
        raise MonoParseError(lineno, str(exc))


def _parse_target(rest: list[str], spec: SurfaceSpec, lineno: int) -> Target:
    if rest == ["identity"]:
        return ()
    if not rest or len(rest) % 3 != 0:
        raise MonoParseError(
            lineno, "usage: target identity | target (boundary <INT> <INT>)+"
        )
    pairs = []
    for k in range(0, len(rest), 3):
        if rest[k] != "boundary":
            raise MonoParseError(
                lineno, f"expected 'boundary', got {rest[k]!r}"
            )
        index = _int(rest[k + 1], lineno, "target boundary index")
        exponent = _int(rest[k + 2], lineno, "target exponent")
        pairs.append((index, exponent))
    try:
        return check_target(tuple(pairs), spec)
    except ValueError as exc:
        raise MonoParseError(lineno, str(exc))


def serialize_mono(f: Factorization, comment: str | None = None) -> str:
    """Render a Factorization as .mono text; byte-stable for equal inputs."""
    lines = [f"# {line}" for line in comment.splitlines()] if comment else []
    lines.append(f"genus {f.spec.genus}")
    lines.append(f"boundary {f.spec.boundary_count}")
    for curve in f.curves:
        parts = [f"curve {curve.name} kind {curve.kind}"]
        if curve.kind in KIND_INT:
            parts.append(str(getattr(curve, KIND_INT[curve.kind][0])))
        if curve.homology is not None:
            parts.append("hom " + " ".join(str(c) for c in curve.homology.coords))
        if curve.word is not None:
            parts.append("word " + format_word(curve.word))
        lines.append(" ".join(parts))
    for letter in f.letters:
        lines.append(
            f"twist {letter.curve}" + ("" if letter.sign == 1 else " -")
        )
    if f.is_identity_target:
        lines.append("target identity")
    else:
        lines.append(
            "target "
            + " ".join(f"boundary {i} {n}" for i, n in f.target)
        )
    return "\n".join(lines) + "\n"
