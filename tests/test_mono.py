import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import mono, twists
from lefschetz.catalog import get_entry, load_catalog
from lefschetz.mono import MonoParseError, parse_mono, serialize_mono
from lefschetz.surface import (
    BOUNDARY,
    NONSEP,
    SEP,
    CurveClass,
    HomologyClass,
    SurfaceSpec,
)
from lefschetz.twists import Factorization, TwistLetter
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


def test_parsed_letters_are_shared_per_name_and_sign():
    text = (
        "genus 1\nboundary 0\n"
        "curve a kind nonsep hom 1 0\ncurve b kind nonsep hom 0 1\n"
        "twist a\ntwist a -\ntwist b\ntwist a +\ntwist a -\ntwist a\n"
        "target identity\n"
    )
    f = parse_mono(text)
    first = {}
    for letter in f.letters:
        assert first.setdefault((letter.curve, letter.sign), letter) is letter
    assert len({id(letter) for letter in f.letters}) == len(first) == 3
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

    check_curve = twists.check_curve
    monkeypatch.setattr(mono, "check_curve", counting)
    monkeypatch.setattr(twists, "check_curve", counting)
    w1 = get_entry("W1").factorization
    assert parse_mono(serialize_mono(w1)) == w1
    assert sorted(calls) == sorted(c.name for c in w1.curves)
    assert len(calls) == 23


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
