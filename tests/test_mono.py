import hashlib
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import factorization, mono, twists
from lefschetz.catalog import get_entry, load_catalog
from lefschetz.factorization import Factorization, TwistLetter
from lefschetz.mono import MonoParseError, parse_mono, serialize_mono
from lefschetz.surface import (
    BOUNDARY,
    NONSEP,
    SEP,
    CurveClass,
    HomologyClass,
    SurfaceSpec,
)
from lefschetz.words import invert_word

MINIMAL = """\
genus 1
boundary 0
curve a1c kind nonsep hom 1 0
twist a1c
target identity
"""


def test_minimal_file():
    f = parse_mono(MINIMAL)
    assert f.spec.genus == 1 and f.spec.boundary_count == 0
    assert len(f.letters) == 1
    assert f.curve("a1c").homology == HomologyClass((1, 0))
    assert f.is_identity_target


def test_comments_and_blank_lines():
    text = "# header\n\ngenus 1   # inline\nboundary 0\ncurve c kind nonsep\ntarget identity\n"
    f = parse_mono(text)
    assert f.curve("c").kind == NONSEP
    assert f.letters == ()


def test_curve_with_word_and_hom():
    text = (
        "genus 2\nboundary 0\n"
        "curve d kind sep 1 hom 0 0 0 0 word b2~ a1~ a2 b2 a2~ a1\n"
        "twist d\ntarget identity\n"
    )
    f = parse_mono(text)
    assert f.curve("d").kind == SEP
    assert f.curve("d").word is not None


def test_twist_signs():
    text = (
        "genus 1\nboundary 0\ncurve c kind nonsep\n"
        "twist c\ntwist c +\ntwist c -\ntarget identity\n"
    )
    f = parse_mono(text)
    assert [l.sign for l in f.letters] == [1, 1, -1]


def test_parsed_letters_are_shared_per_verbatim_line():
    text = (
        "genus 1\nboundary 0\n"
        "curve a kind nonsep hom 1 0\ncurve b kind nonsep hom 0 1\n"
        "twist a\ntwist a -\ntwist b\ntwist a +\ntwist a -\ntwist a\ntwist a # c\n"
        "target identity\n"
    )
    f = parse_mono(text)
    a, minus, b, plus, minus_again, a_again, commented = f.letters
    # A line repeated verbatim gives the same letter object again.
    assert minus_again is minus and a_again is a
    # Other spellings of one twist give equal letters.
    assert a == plus == commented == TwistLetter("a", 1)
    assert minus == TwistLetter("a", -1) and b == TwistLetter("b")
    assert parse_mono(serialize_mono(f)) == f


def test_boundary_curves_and_targets():
    text = (
        "genus 2\nboundary 2\n"
        "curve del1 kind boundary 1\n"
        "curve c kind nonsep\n"
        "twist c\n"
        "target boundary 1 1 boundary 2 2\n"
    )
    f = parse_mono(text)
    assert f.curve("del1").kind == BOUNDARY
    assert f.target == ((1, 1), (2, 2))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("boundary 0\ngenus 1\n", "boundary must come second"),
        ("genus 1\ncurve c kind nonsep\n", "after the header"),
        ("genus 1\nboundary 0\ntwist zz\ntarget identity\n", "undeclared curve 'zz'"),
        (
            "genus 1\nboundary 0\ncurve c kind nonsep\ncurve c kind nonsep\n",
            "duplicate curve name",
        ),
        ("genus 1\nboundary 0\ncurve c kind funny\n", "unknown curve kind"),
        ("genus 1\nboundary 0\ncurve d kind sep 1\n", "out of range"),
        ("genus 4\nboundary 0\ncurve d kind sep 3\n", "out of range"),
        ("genus 1\nboundary 0\ncurve c kind boundary 1\n", "out of range"),
        ("genus 0\nboundary 0\ncurve a kind nonsep\n",
         "line 3: curve 'a': genus 0 has no nonseparating curves"),
        ("genus 1\nboundary 0\ncurve c kind nonsep hom 1\n", "hom needs 2"),
        ("genus x\nboundary 0\n", "expected an integer"),
        ("genus 1_0\nboundary 0\n", "genus: expected an integer, got '1_0'"),
        ("genus 1\nboundary +1\n", "boundary: expected an integer, got '\\+1'"),
        ("genus \u0661\nboundary 0\n", "genus: expected an integer, got '\u0661'"),
        (
            "genus 1\nboundary 0\ncurve c kind nonsep hom 1_0 1\n",
            "hom coordinate: expected an integer",
        ),
        ("genus 1\nboundary 0\ntarget identity\ngenus 1\n", "after target"),
        ("genus 1\nboundary 0\ntarget boundary 1 1\n", "out of range"),
        ("genus 1\nboundary 1\ntarget boundary 1 1 boundary 1 2\n", "repeated"),
        ("genus 1\nboundary 0\n", "missing target"),
        ("genus 1\nboundary 0\nwibble\n", "unknown directive"),
        (
            "genus 1\nboundary 0\ncurve c kind nonsep word c9\n",
            "unknown generator",
        ),
        (
            "genus 1\nboundary 0\ncurve c kind nonsep word a2\n",
            "out of range",
        ),
        (
            "genus 1\nboundary 0\ncurve c kind nonsep hom 1 0 word b1\n",
            "does not match",
        ),
        (
            "genus 1\nboundary 0\ncurve c kind nonsep hom 0 0\n",
            "nonzero with coordinate gcd 1",
        ),
        # a non-primitive class takes the checked path, whatever the genus
        pytest.param(
            "genus 1\nboundary 0\ncurve c kind nonsep hom 2 0\n",
            "line 3: curve 'c': nonseparating class must be nonzero with coordinate gcd 1",
            id="hom-gcd-2-genus-1",
        ),
        pytest.param(
            "genus 2\nboundary 0\ncurve c kind nonsep hom 2 0 0 4\n",
            "line 3: curve 'c': nonseparating class must be nonzero with coordinate gcd 1",
            id="hom-gcd-2-genus-2",
        ),
        pytest.param(
            "genus 0\nboundary 0\ncurve c kind nonsep hom\n",
            "line 3: curve 'c': nonseparating class must be nonzero with coordinate gcd 1",
            id="bare-hom-genus-0",
        ),
        # and so does a primitive class on a sep or boundary curve
        pytest.param(
            "genus 2\nboundary 0\ncurve d kind sep 1 hom 1 0 0 0\n",
            "line 3: curve 'd': sep curves are null-homologous",
            id="sep-primitive-hom",
        ),
        pytest.param(
            "genus 1\nboundary 1\ncurve p kind boundary 1 hom 0 1\n",
            "line 3: curve 'p': boundary curves are null-homologous",
            id="boundary-primitive-hom",
        ),
        ("genus 1\ngenus 1\n", "line 2: genus must be the first directive"),
        ("genus\n", "usage: genus <INT>"),
        ("genus -1\nboundary 0\n", "genus must be >= 0"),
        ("genus 1\nboundary 0 1\n", "usage: boundary <INT>"),
        ("genus 1\nboundary -2\n", "boundary must be >= 0"),
        (
            "genus 1\nboundary 0\ncurve c kind nonsep\ntwist c + +\n",
            r"usage: twist <NAME> \[\+\|-\]",
        ),
        (
            "genus 1\nboundary 0\ncurve c kind nonsep\ntwist c *\n",
            r"twist sign must be \+ or -, got '\*'",
        ),
        ("# empty\n", "line 2: missing genus directive"),
        ("genus 1\n", "line 2: missing boundary directive"),
        ("genus 1\nboundary 0\ncurve c kind\n", "usage: curve <NAME> kind"),
        (
            "genus 2\nboundary 0\ncurve d kind sep\n",
            "sep needs a separating type: sep <INT>",
        ),
        (
            "genus 1\nboundary 1\ncurve p kind boundary\n",
            "boundary needs a boundary index: boundary <INT>",
        ),
        (
            "genus 1\nboundary 0\ncurve c kind nonsep word a1 %\n",
            "bad generator token '%'",
        ),
        (
            "genus 1\nboundary 0\ncurve c kind nonsep hom 1 0 extra\n",
            "unexpected trailing tokens 'extra'",
        ),
        ("genus 1\nboundary 0\ntarget\n", r"usage: target identity \| target"),
        ("genus 1\nboundary 1\ntarget delta 1 1\n", "expected 'boundary', got 'delta'"),
        (
            "genus 1\ntwist c\n",
            "line 2: twist lines belong after the header and before the target",
        ),
        ("genus 1\ntarget identity\n", "line 2: target must follow the header"),
        # int()'s own message after this prefix differs between versions
        pytest.param(
            "genus 1\nboundary 0\ncurve c kind nonsep hom " + "1" * 5000 + " 0\n",
            "line 3: hom coordinate: Exceeds the limit",
            id="hom-token-past-int-digit-limit",
        ),
    ],
)
def test_positioned_errors(text, fragment):
    with pytest.raises(MonoParseError, match=fragment):
        parse_mono(text)


@pytest.mark.parametrize(
    "text,line",
    [
        pytest.param(
            "genus 1\nboundary 0\ntwist zz\ntarget identity\n", 3,
            id="undeclared-twist",
        ),
        pytest.param(
            "genus 2\nboundary 0\ncurve d kind sep 2\ntarget identity\n", 3,
            id="sep-type-out-of-range",
        ),
        pytest.param(
            "genus 1\nboundary 0\ncurve c kind nonsep\n"
            "curve u kind nonsep hom 1 0 word b1\ntarget identity\n", 4,
            id="hom-word-mismatch",
        ),
        pytest.param(
            "genus 1\nboundary 2\ncurve c kind nonsep\ntwist c\n"
            "target boundary 1 1 boundary 1 2\n# end\n", 5,
            id="target-index-repeated",
        ),
        pytest.param(
            "genus 0\nboundary 0\ncurve a kind nonsep\ntwist a\ntarget identity\n", 3,
            id="nonsep-on-genus-0",
        ),
    ],
)
def test_error_carries_line_number(text, line):
    with pytest.raises(MonoParseError) as err:
        parse_mono(text)
    assert err.value.line == line
    assert f"line {line}:" in str(err.value)


@pytest.mark.parametrize(
    "curve,fragment",
    [
        pytest.param("curve d kind sep 1 word a1", "must abelianize to zero", id="sep"),
        pytest.param(
            "curve c kind nonsep word [a1,b1]", "coordinate gcd 1", id="nonsep-zero"
        ),
        pytest.param(
            "curve c kind nonsep word a1 a1", "coordinate gcd 1", id="nonsep-gcd-2"
        ),
        pytest.param(
            "curve p kind boundary 1 word a1", "must abelianize to zero", id="boundary"
        ),
        pytest.param("curve d kind sep 1 word a3 a3~", "out of range", id="zero-sum-name"),
    ],
)
def test_classless_word_must_fit_kind(curve, fragment):
    # without a hom clause the word's exponent sums are still checked
    # against the kind, as a class would be
    text = f"genus 2\nboundary 1\ncurve u kind nonsep\n{curve}\ntarget identity\n"
    with pytest.raises(MonoParseError, match=f"line 4: .*{fragment}") as err:
        parse_mono(text)
    assert err.value.line == 4


def test_round_trip_all_catalog_entries():
    for entry in load_catalog():
        text = serialize_mono(entry.factorization)
        again = parse_mono(text)
        assert again == entry.factorization
        assert serialize_mono(again) == text


def test_serialize_is_byte_stable():
    entry = load_catalog()[4]
    assert serialize_mono(entry.factorization) == serialize_mono(entry.factorization)


def test_serialize_comment_ignored_by_parser():
    entry = load_catalog()[0]
    with_comment = serialize_mono(entry.factorization, comment="hello")
    assert parse_mono(with_comment) == entry.factorization


def test_serialize_multiline_comment_stays_comment():
    f = parse_mono(MINIMAL)
    text = serialize_mono(f, comment="first\nsecond\r\nthird")
    assert text.startswith("# first\n# second\n# third\ngenus 1\n")
    assert parse_mono(text) == f


def test_parse_checks_each_curve_once(monkeypatch):
    calls = []

    def counting(curve, spec):
        calls.append(curve.name)
        return check_curve(curve, spec)

    check_curve = factorization.check_curve
    monkeypatch.setattr(mono, "check_curve", counting)
    monkeypatch.setattr(factorization, "check_curve", counting)
    w1 = get_entry("W1").factorization
    assert parse_mono(serialize_mono(w1)) == w1
    assert sorted(calls) == sorted(c.name for c in w1.curves)
    assert len(calls) == 23


def test_plain_nonsep_hom_lines_skip_the_checking_constructors(monkeypatch):
    # A chain relator's curves are nonsep lines with a primitive class and
    # no word, built by the trusted constructor; a sep, boundary or worded
    # curve runs each checking constructor once.
    calls = {CurveClass: [], HomologyClass: []}

    def count(cls):
        init = cls.__init__

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            calls[cls].append(self)

        monkeypatch.setattr(cls, "__init__", counting)

    count(CurveClass)
    count(HomologyClass)
    chain = ["1 0 0 0", "0 1 0 0", "-1 0 1 0", "0 0 0 1", "0 0 1 0"]
    text = "genus 2\nboundary 1\n" + "".join(
        f"curve c{k} kind nonsep hom {hom}\n" for k, hom in enumerate(chain, 1)
    ) + (
        "curve s kind sep 1\n"
        "curve z kind sep 1 hom 0 0 0 0\n"
        "curve p kind boundary 1\n"
        "curve w kind nonsep word a1 b1\n"
        "curve v kind nonsep hom 1 1 0 0 word a1 b1\n"
    ) + "twist c1\ntwist c2\ntwist c3\ntwist c4\ntwist c5\n" * 6 + "target identity\n"
    f = parse_mono(text)
    assert [c.name for c in calls[CurveClass]] == ["s", "z", "p", "w", "v"]
    assert [h.coords for h in calls[HomologyClass]] == [(0, 0, 0, 0), (1, 1, 0, 0)]
    assert f.curve("c3").homology.coords == (-1, 0, 1, 0)
    assert twists.verify_homological_relator(f).matrix_ok


def test_parsed_curves_are_valid_by_construction():
    # The parser builds a plain nonsep hom curve without CurveClass,
    # HomologyClass or check_curve; each must accept every parsed curve
    # and rebuild an equal value.
    texts = [serialize_mono(entry.factorization) for entry in load_catalog()]
    texts += seeded_mono_texts()
    trusted = 0
    for text in texts:
        try:
            f = parse_mono(text)
        except MonoParseError:
            continue
        for c in f.curves:
            coords = None if c.homology is None else c.homology.coords
            if coords is not None:
                assert all(type(x) is int for x in coords)
                trusted += c.kind == NONSEP and c.word is None
            rebuilt = CurveClass(
                c.name, c.kind, h=c.h, boundary_index=c.boundary_index,
                homology=None if coords is None else HomologyClass(coords),
                word=c.word,
            )
            assert rebuilt == c
            factorization.check_curve(c, f.spec)
    assert trusted


# str.splitlines() also breaks at these; Python's text mode does not.
NON_NEWLINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("char", NON_NEWLINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_only_text_mode_newlines_end_a_line(char):
    plain = ("genus 1\nboundary 0\ncurve a kind nonsep hom 1 0 # a\n"
             "# note\ntwist a\ntarget identity\n")
    marked = plain.replace("# a\n", f"# a{char}b\n").replace(
        "# note", f"# note{char}with separator")
    assert parse_mono(marked) == parse_mono(plain)
    # the error names the line counted by newlines
    with pytest.raises(MonoParseError, match="^line 5: twist references"):
        parse_mono(marked.replace("twist a", "twist zz"))
    with pytest.raises(MonoParseError, match="^line 4: missing target"):
        parse_mono(marked[: marked.index("# note")])


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("final_newline", [False, True])
def test_text_mode_newlines_end_a_line(newline, final_newline):
    text = MINIMAL.replace("\n", newline)
    assert parse_mono(text) == parse_mono(MINIMAL)
    head = newline.join(["genus 1", "boundary 0", "# x"])
    # with or without a final newline, the missing target is on line 4
    with pytest.raises(MonoParseError, match="^line 4: missing target"):
        parse_mono(head + newline * final_newline)


def test_worded_curve_without_class_does_not_grow_with_genus():
    # A curve with a word but no class has nothing to compare, so its
    # check must not build a 2g-entry abelianization.
    text = "genus 1000000\nboundary 0\ncurve c kind nonsep word a1\ntarget identity\n"
    tracemalloc.start()
    try:
        f = parse_mono(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.curve("c").word == (("a1", 1),)
    assert peak < 2**20


# -- seeded parse digest ----------------------------------------------------------

# SHA-256 of the .mono text of every parsed document and the repr of every
# refused one over the seeded texts below, recorded before twist lines were
# read once and hom clauses checked by one regex.
PARSE_DIGEST = (
    "df765c69c04040dd98ef7023db6c64272cb586f8da79013d094bb1e39de31bb2"
)

BAD_HOM_TOKENS = ("+1", "1_0", "-", "\u0661", "1x")


def seeded_mono_texts():
    """Documents with repeated twist lines (some with comments or extra
    spaces), and with seeded faults: a twist line repeated after the
    target, a bad or missing hom token, an undeclared or badly signed
    twist, a curve line among the twists."""
    rng = random.Random(2027)
    for _ in range(1500):
        genus = rng.randint(1, 4)
        boundary = rng.randint(0, 2)
        lines = [f"genus {genus}", f"boundary {boundary}"]
        names = []
        for k in range(rng.randint(1, 4)):
            while not any(coords := [rng.choice((-2, -1, 0, 0, 1, 2))
                                     for _ in range(2 * genus)]):
                pass
            g = math.gcd(*coords)
            hom = [str(c // g) for c in coords]
            if rng.random() < 0.04:
                hom[rng.randrange(len(hom))] = rng.choice(BAD_HOM_TOKENS)
            if rng.random() < 0.02:
                hom.pop()
            sep = rng.choice((" ", "  ", "\t"))
            lines.append(f"curve c{k} kind nonsep hom {sep.join(hom)}"
                         + rng.choice(("", "  # class", "\t")))
            names.append(f"c{k}")
        if boundary:
            lines.append("curve d kind boundary 1")
            names.append("d")
        pool = [
            rng.choice(("twist ", " twist  ", "\ttwist\t")) + rng.choice(names)
            + rng.choice(("", " +", " -", "  -  ", " # again", " - # inverse"))
            for _ in range(rng.randint(1, 5))
        ]
        twists = [rng.choice(pool) for _ in range(rng.randint(0, 30))]
        fault = rng.random()
        if twists and fault < 0.05:
            twists.insert(rng.randrange(len(twists)), "twist zz")
        elif twists and fault < 0.1:
            twists.insert(rng.randrange(len(twists)), f"twist {names[0]} *")
        elif twists and fault < 0.13:
            twists.insert(rng.randrange(len(twists)), "curve late kind nonsep")
        lines += twists
        lines.append(rng.choice(("target identity", "target identity # done")))
        if pool and rng.random() < 0.15:
            lines.append(rng.choice(pool))  # read already, now after the target
        yield rng.choice(("\n", "\r\n")).join(lines) + "\n"


def test_seeded_parse_digest():
    digest = hashlib.sha256()
    for text in seeded_mono_texts():
        try:
            f = parse_mono(text)
        except MonoParseError as exc:
            digest.update(repr(exc).encode())
        else:
            digest.update(serialize_mono(f).encode())
    assert digest.hexdigest() == PARSE_DIGEST


# -- the whole-line read of plain curve lines ------------------------------------

BIG = "1" + "0" * 4300  # 4,301 digits, past int()'s default digit limit


def mutated_mono_texts():
    """Seeded plain documents, as serialize_mono writes them, once as they
    are and then with one curve or twist line mutated."""
    rng = random.Random(1401)
    for _ in range(300):
        genus = rng.randint(1, 4)
        homs = []
        for _ in range(rng.randint(1, 4)):
            hom = [0]
            while math.gcd(*hom) != 1:
                hom = [rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(2 * genus)]
            homs.append(hom)
        curves = [f"curve c{k} kind nonsep hom " + " ".join(map(str, hom))
                  for k, hom in enumerate(homs)]
        twists = [f"twist c{rng.randrange(len(homs))}" + rng.choice(("", " -"))
                  for _ in range(rng.randint(1, 6))]

        def render(curves, twists):
            lines = [f"genus {genus}", "boundary 0", *curves, *twists, "target identity"]
            return "\n".join(lines) + "\n"

        yield render(curves, twists)
        k = rng.randrange(len(homs))
        line, hom = curves[k], homs[k]
        head = f"curve c{k} kind nonsep hom "
        mutations = [
            line.replace(" ", "\t", 1), line.replace(" ", "  ", 1), line + " ",
            line + " # note", line + "#", line + " word a1", line + " 1",
            line.rsplit(" ", 1)[0], head.replace("hom", "word a1 hom") + "1 0",
            f"{line}\n{line}", f"{line}\ncurve c{k} kind nonsep hom 1 0",
        ]
        i = rng.randrange(len(hom))
        for bad in ("-0", "007", "-007", BIG, "x", "+1"):
            mutations.append(head + " ".join(bad if j == i else str(c)
                                             for j, c in enumerate(hom)))
        mutations += [head + " ".join(str(scale * c) for c in hom) for scale in (0, 2, -1)]
        for mutated in mutations:
            yield render(curves[:k] + [mutated] + curves[k + 1:], twists)
        yield render(curves, twists + [line.replace(f"c{k}", "late", 1)])
        yield render(curves, twists + [line])
        t = rng.randrange(len(twists))
        for mutated in (twists[t] + " ", twists[t].replace(" ", "\t"),
                        twists[t] + " # c", twists[t] + " +", twists[t] + " *"):
            yield render(curves, twists[:t] + [mutated] + twists[t + 1:])


def test_whole_line_curve_read_matches_the_general_path(monkeypatch):
    # Each document gives the same Factorization, or the same error message
    # and line, with the whole-line read as with every line tokenised.
    def outcome(text):
        try:
            return parse_mono(text)
        except MonoParseError as exc:
            return str(exc), exc.line

    tokenised = []  # curve lines _parse_curve read
    parse_curve = mono._parse_curve
    monkeypatch.setattr(mono, "_parse_curve",
                        lambda *args: tokenised.append(args) or parse_curve(*args))
    texts = list(mutated_mono_texts())
    fast = [outcome(text) for text in texts]
    whole_line_run = len(tokenised)
    monkeypatch.setattr(mono, "_PLAIN_CURVE", lambda raw: None)
    general = [outcome(text) for text in texts]
    assert fast == general
    errors = sum(isinstance(out, tuple) for out in fast)
    assert 0 < errors < len(texts)
    # most curve lines took the whole-line read
    assert 3 * whole_line_run < len(tokenised) - whole_line_run


# -- round trip over random factorizations --------------------------------------

NAME = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="#"),
    min_size=1, max_size=4,
).filter(lambda name: name.split() == [name])


@st.composite
def curve_data(draw, spec, name):
    """A valid curve: its word, when it has one, abelianizes to its class,
    or without a class to one its kind allows."""
    g = spec.genus
    kinds = [NONSEP] + [SEP] * (g >= 2) + [BOUNDARY] * (spec.boundary_count > 0)
    kind = draw(st.sampled_from(kinds))
    h = draw(st.integers(1, g // 2)) if kind == SEP else None
    index = draw(st.integers(1, spec.boundary_count)) if kind == BOUNDARY else None
    coords = [0] * (2 * g)
    if kind == NONSEP:
        k = draw(st.integers(0, 2 * g - 1))
        coords[k] = draw(st.sampled_from((1, -1)))
        for j in range(2 * g):
            if j != k:
                coords[j] = draw(st.integers(-3, 3))
    gens = [f"{ab}{i}" for i in range(1, g + 1) for ab in "ab"]
    core = tuple(
        (gens[j], 1 if c > 0 else -1) for j, c in enumerate(coords) for _ in range(abs(c))
    )
    letter = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
    noise = tuple(draw(st.lists(letter, max_size=4)))
    homology = HomologyClass(tuple(coords)) if draw(st.booleans()) else None
    word = None
    if draw(st.booleans()):
        word = noise + core + invert_word(noise)
    return CurveClass(name, kind, h=h, boundary_index=index, homology=homology, word=word)


@st.composite
def factorizations(draw):
    spec = SurfaceSpec(draw(st.integers(1, 4)), draw(st.integers(0, 2)))
    names = draw(st.lists(NAME, max_size=4, unique=True))
    curves = tuple(draw(curve_data(spec, name)) for name in names)
    letters = ()
    if curves:
        letter = st.builds(TwistLetter, st.sampled_from(names), st.sampled_from((1, -1)))
        letters = tuple(draw(st.lists(letter, max_size=6)))
    indices = draw(st.permutations(range(1, spec.boundary_count + 1)))
    indices = indices[: draw(st.integers(0, len(indices)))]
    target = tuple((i, draw(st.integers(-3, 3))) for i in indices)
    return Factorization(spec, curves, letters, target)


@given(factorizations(), st.none() | st.text(max_size=8))
@settings(max_examples=200, deadline=None)
def test_round_trip_random_factorizations(f, comment):
    parsed = parse_mono(serialize_mono(f, comment=comment))
    assert parsed == f
    # the unchecked result is what the checking constructor builds
    rebuilt = Factorization(parsed.spec, parsed.curves, parsed.letters, parsed.target)
    assert vars(parsed) == vars(rebuilt)
