"""The .mono on-disk factorization format.

Line-oriented; tokens are whitespace-separated and ``#`` starts a
comment running to the end of the line.  Sections appear in order:

    genus <INT>
    boundary <INT>
    curve <NAME> kind (nonsep | sep <INT> | boundary <INT>)
          [hom <INT>{2g}] [word <TOKENS>]      # any number of lines
    twist <NAME> [+|-]                         # any number, default +
    target identity
    target (boundary <INT> <INT>)+             # exactly one target line

<INT> is ``-?[0-9]+`` in ASCII digits (no ``+``, no ``_``) and <NAME> is
any non-empty token without whitespace or ``#``.  The kind token is the
kind's name (``surface.NONSEP``, ``SEP``, ``BOUNDARY``).  ``hom`` takes 2g
integers over the ordered basis a1 b1 a2 b2 ... ag bg.  Word tokens are
a<k> / b<k> with a ``~`` suffix for inverses; [x,y] expands to the
commutator x y x~ y~.

Parsing is total: every byte sequence either parses or raises
MonoParseError carrying the offending line number.
"""

from __future__ import annotations

from .surface import KIND_INT, NONSEP, CurveClass, HomologyClass, SurfaceSpec
from .surface import integer
from .twists import Factorization, Target, TwistLetter, check_curve, check_target
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


# The header directives in order, each with the rule that places it.
_HEADER = {"genus": "be the first directive", "boundary": "come second, after genus"}


def parse_mono(text: str) -> Factorization:
    """Parse a .mono document into a Factorization."""
    header: dict[str, int] = {}
    spec: SurfaceSpec | None = None
    curves: dict[str, CurveClass] = {}
    letters: list[TwistLetter] = []
    known: dict[tuple[str, int], TwistLetter] = {}
    target: Target = ()
    stage = "genus"  # genus -> boundary -> curves -> twists -> done
    lineno = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            letter = known.get((name, sign))
            if letter is None:  # letters are frozen: one per (name, sign)
                letter = known[name, sign] = TwistLetter(name, sign)
            letters.append(letter)
        elif head == "target":
            if stage not in ("curves", "twists"):
                raise MonoParseError(lineno, "target must follow the header")
            target = _parse_target(rest, spec, lineno)
            stage = "done"
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

    homology = None
    if pos < len(rest) and rest[pos] == "hom":
        pos += 1
        rank = spec.homology_rank
        if len(rest) - pos < rank:
            raise MonoParseError(
                lineno, f"hom needs {rank} integers (basis a1 b1 ... ag bg)"
            )
        try:  # hom clauses hold most of a file's integers: one call per token
            homology = HomologyClass(tuple(map(integer, rest[pos : pos + rank])))
        except ValueError as exc:
            raise MonoParseError(lineno, f"hom coordinate: {exc}")
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
