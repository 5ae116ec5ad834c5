import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.factorization import Factorization, TwistLetter, check_curve
from lefschetz.feasibility import ConstraintProfile
from lefschetz.fpgroup import (
    GroupPresentation,
    quotient_by_cycles,
    surface_group,
    todd_coxeter,
)
from lefschetz.invariants import FiberCounts, LedgerEntry, integer, min_nonseparating_bound
from lefschetz.surface import (
    BOUNDARY,
    NONSEP,
    SEP,
    CurveClass,
    HomologyClass,
    SurfaceSpec,
    classify_kind_from_word,
    homology_of_word,
    pair_coords,
    pairing_matrix,
    symplectic_pairing,
)
from lefschetz.twists import hurwitz_move, twist_matrix
from lefschetz.words import parse_word


def cls(*coords):
    return HomologyClass(tuple(coords))


def test_basis_pairings():
    a1 = HomologyClass.basis(2, "a1")
    b1 = HomologyClass.basis(2, "b1")
    a2 = HomologyClass.basis(2, "a2")
    b2 = HomologyClass.basis(2, "b2")
    assert symplectic_pairing(a1, b1) == 1
    assert symplectic_pairing(b1, a1) == -1
    assert symplectic_pairing(a1, a1) == 0
    assert symplectic_pairing(a1, a2) == 0
    assert symplectic_pairing(a1, b2) == 0
    # <a1 + b2, b1 + a2> = 1 + (-1) = 0
    assert symplectic_pairing(a1 + b2, b1 + a2) == 0


def test_pairing_matrix_blocks():
    j = pairing_matrix(2)
    assert j == (
        (0, 1, 0, 0),
        (-1, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, -1, 0),
    )


def test_homology_class_rejects_non_integers():
    # 0.5 must not truncate to 0 and turn (0.5, 1) into the class (0, 1)
    with pytest.raises(ValueError, match="0.5"):
        cls(0.5, 1)


class _IntLike:
    """An exact integer that is not an int, like a numpy integer."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class _FloatIndex:
    """A broken integer: its ``__index__`` returns a float."""

    def __index__(self):
        return 1.5

    def __repr__(self):
        return "<__index__ returns 1.5>"


class _RaisingIndex:
    """A broken integer: its ``__index__`` raises TypeError."""

    def __index__(self):
        raise TypeError("no index")

    def __repr__(self):
        return "<__index__ raises TypeError>"


# Values that define ``__index__`` and still are not integers.
FLOAT_INDEX = _FloatIndex()
RAISING_INDEX = _RaisingIndex()

# Each builder gets one bad value; every integer field must name it in a
# ValueError instead of storing it, truncating it or failing later.
NON_INTEGER_CASES = {
    "surface genus float": (lambda: SurfaceSpec(2.0), 2.0),
    "surface genus str": (lambda: SurfaceSpec("2"), "2"),
    "surface boundary float": (lambda: SurfaceSpec(2, 1.0), 1.0),
    "curve h": (lambda: CurveClass("d", SEP, h=1.0), 1.0),
    "curve boundary index": (
        lambda: CurveClass("p", BOUNDARY, boundary_index=1.5), 1.5
    ),
    "twist sign": (lambda: TwistLetter("a", 1.0), 1.0),
    "twist matrix sign": (lambda: twist_matrix(cls(1, 0), 1.0), 1.0),
    "target exponent": (
        lambda: Factorization(SurfaceSpec(1, 1), (), (), target=((1, 1.5),)), 1.5
    ),
    "ledger multiplicity": (lambda: LedgerEntry("mats", 1.5), 1.5),
    "ledger value": (lambda: LedgerEntry("block", 1, value=-6.0), -6.0),
    "coset limit": (lambda: todd_coxeter(surface_group(1), 10.5), 10.5),
    "surface group genus": (lambda: surface_group(2.0), 2.0),
    "n lower bound genus": (lambda: min_nonseparating_bound(2.5), 2.5),
    "surface genus float index": (lambda: SurfaceSpec(FLOAT_INDEX), FLOAT_INDEX),
    "surface genus raising index": (lambda: SurfaceSpec(RAISING_INDEX), RAISING_INDEX),
    "coset limit float index": (
        lambda: todd_coxeter(surface_group(1), FLOAT_INDEX), FLOAT_INDEX
    ),
    "coset limit raising index": (
        lambda: todd_coxeter(surface_group(1), RAISING_INDEX), RAISING_INDEX
    ),
    "surface group genus float index": (lambda: surface_group(FLOAT_INDEX), FLOAT_INDEX),
    "surface group genus raising index": (
        lambda: surface_group(RAISING_INDEX), RAISING_INDEX
    ),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_CASES))
def test_integer_fields_reject_non_integers(case):
    build, bad = NON_INTEGER_CASES[case]
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        build()


TWO_LETTERS = Factorization(
    SurfaceSpec(1), (CurveClass("c", NONSEP),), (TwistLetter("c"),) * 2
)

# Each builder gets one value or shape that its rule forbids; the
# ValueError must say which rule.
REJECTED_VALUE_CASES = {
    "surface boundary negative": (
        lambda: SurfaceSpec(1, -1), "boundary_count must be >= 0, got -1"
    ),
    "homology odd length": (
        lambda: cls(1, 0, 1), "homology coordinates must have even length 2g"
    ),
    "curve unknown kind": (
        lambda: CurveClass("c", "funny"), "curve 'c': unknown kind 'funny'"
    ),
    "curve h on nonsep": (
        lambda: CurveClass("c", NONSEP, h=1),
        "curve 'c': separating type only applies to kind sep",
    ),
    "curve sep without type": (
        lambda: CurveClass("d", SEP),
        "curve 'd': sep curves need a separating type >= 1",
    ),
    "curve boundary without index": (
        lambda: CurveClass("p", BOUNDARY),
        "curve 'p': boundary curves need a boundary index >= 1",
    ),
    "curve index on nonsep": (
        lambda: CurveClass("c", NONSEP, boundary_index=1),
        "boundary index only applies to kind boundary",
    ),
    "check_curve sep range": (
        lambda: check_curve(CurveClass("d", SEP, h=3), SurfaceSpec(4)),
        "curve 'd': separating type 3 out of range 1..2",
    ),
    "check_curve boundary range": (
        lambda: check_curve(
            CurveClass("p", BOUNDARY, boundary_index=2), SurfaceSpec(1, 1)
        ),
        "curve 'p': boundary index 2 out of range 1..1",
    ),
    "check_curve rank": (
        lambda: check_curve(CurveClass("c", NONSEP, homology=cls(1, 0)), SurfaceSpec(2)),
        "homology rank 2 does not match 2g = 4",
    ),
    "hurwitz direction": (
        lambda: hurwitz_move(TWO_LETTERS, 1, "up"),
        "direction must be 'right' or 'left', got 'up'",
    ),
    "presentation duplicate generator": (
        lambda: GroupPresentation(("a", "a"), ()), "duplicate generator names"
    ),
    "surface group genus 0": (lambda: surface_group(0), "genus must be >= 1, got 0"),
    "fiber counts genus 0": (lambda: FiberCounts(0, 1), "genus must be >= 1, got 0"),
    "profile genus 0": (lambda: ConstraintProfile(0, 5), "genus must be >= 1, got 0"),
    "profile bound 0": (lambda: ConstraintProfile(2, 0), "max_total_fibers must be >= 1"),
    "target entry not a pair": (
        lambda: Factorization(SurfaceSpec(1, 1), (), (), target=(5,)),
        "target entry 5 is not a pair",
    ),
    "target entry too short": (
        lambda: Factorization(SurfaceSpec(1, 1), (), (), target=((1,),)),
        "target entry (1,) is not a pair",
    ),
    "target entry too long": (
        lambda: Factorization(SurfaceSpec(1, 1), (), (), target=((1, 2, 3),)),
        "target entry (1, 2, 3) is not a pair",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTED_VALUE_CASES))
def test_rejected_values_name_the_rule(case):
    build, message = REJECTED_VALUE_CASES[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_integer_fields_store_exact_ints():
    two = _IntLike(2)
    values = [
        *vars(SurfaceSpec(two, two)).values(),
        CurveClass("d", SEP, h=_IntLike(1)).h,
        CurveClass("p", BOUNDARY, boundary_index=two).boundary_index,
        *Factorization(SurfaceSpec(1, 2), (), (), target=((two, two),)).target[0],
        LedgerEntry("block", two, value=two).multiplicity,
        LedgerEntry("block", two, value=two).value,
    ]
    assert [v.__class__ for v in values] == [int] * 8
    assert values == [2, 2, 1, 2, 2, 2, 2, 2]


def test_list_built_values_equal_their_tuple_twins():
    a1 = parse_word("a1")
    curve = CurveClass("c", NONSEP, homology=cls(1, 0), word=a1)
    pairs = [
        (CurveClass("c", NONSEP, homology=cls(1, 0), word=list(a1)), curve),
        (
            Factorization(SurfaceSpec(1), [curve], [TwistLetter("c")]),
            Factorization(SurfaceSpec(1), (curve,), (TwistLetter("c"),)),
        ),
        (
            GroupPresentation(["a", "b"], [list(parse_word("a b"))]),
            GroupPresentation(("a", "b"), (parse_word("a b"),)),
        ),
        (HomologyClass(iter((1, 0))), cls(1, 0)),
    ]
    for listed, twin in pairs:
        assert listed == twin and hash(listed) == hash(twin)
    quotient = quotient_by_cycles(pairs[2][0], [parse_word("a")])
    assert quotient.relators == (parse_word("a b"), parse_word("a"))
    assert todd_coxeter(quotient, 100).order == 1


def test_pairing_dimension_mismatch():
    with pytest.raises(ValueError):
        symplectic_pairing(cls(1, 0), cls(1, 0, 0, 0))


coords6 = st.lists(st.integers(-9, 9), min_size=6, max_size=6).map(
    lambda v: HomologyClass(tuple(v))
)


@given(coords6, coords6)
@settings(max_examples=150, deadline=None)
def test_pairing_antisymmetric(x, y):
    assert symplectic_pairing(x, y) == -symplectic_pairing(y, x)


@given(coords6, coords6, coords6)
@settings(max_examples=150, deadline=None)
def test_pairing_bilinear(x, y, z):
    assert symplectic_pairing(x + y, z) == symplectic_pairing(
        x, z
    ) + symplectic_pairing(y, z)


def test_pairing_matches_matrix_form():
    j = pairing_matrix(3)
    x = cls(1, -2, 3, 0, 5, 7)
    y = cls(2, 2, -1, 4, 0, -3)
    via_matrix = sum(
        x.coords[i] * j[i][k] * y.coords[k] for i in range(6) for k in range(6)
    )
    assert symplectic_pairing(x, y) == via_matrix


@st.composite
def big_vector_pairs(draw):
    n = 2 * draw(st.integers(0, 10))
    big = st.integers(-(2**200), 2**200)
    return tuple(draw(st.lists(big, min_size=n, max_size=n)) for _ in range(2))


@given(big_vector_pairs())
@settings(max_examples=150, deadline=None)
def test_pair_coords_is_the_matrix_form(pair):
    x, y = map(tuple, pair)
    j = pairing_matrix(len(x) // 2)
    jy = [sum(jik * yk for jik, yk in zip(row, y)) for row in j]
    assert pair_coords(x, y) == sum(xi * v for xi, v in zip(x, jy))


# -- homology_of_word --------------------------------------------------------


def test_word_homology_commutator_conjugate():
    # a2~ [a1, b1~] a1~  abelianizes to -a1 - a2
    spec = SurfaceSpec(4)
    h = homology_of_word(parse_word("a2~ [a1,b1~] a1~"), spec)
    assert h == cls(-1, 0, -1, 0, 0, 0, 0, 0)


def test_word_homology_separating_word_is_zero():
    spec = SurfaceSpec(4)
    h = homology_of_word(parse_word("b2~ a1~ a2 b2 a2~ a1"), spec)
    assert h.is_zero()


def test_word_homology_empty():
    assert homology_of_word((), SurfaceSpec(3)).is_zero()


def test_word_homology_additive():
    spec = SurfaceSpec(2)
    u = parse_word("a1 b2 a2~")
    v = parse_word("b1~ a1 a1")
    assert homology_of_word(u + v, spec) == homology_of_word(
        u, spec
    ) + homology_of_word(v, spec)


def test_word_homology_unknown_generator():
    with pytest.raises(ValueError):
        homology_of_word(parse_word("a3"), SurfaceSpec(2))
    with pytest.raises(ValueError):
        homology_of_word(parse_word("c1"), SurfaceSpec(2))


# -- classify_kind_from_word --------------------------------------------------


def test_classify_separating_words():
    spec = SurfaceSpec(4)
    assert classify_kind_from_word(parse_word("b2 a3~ a2 b2~ a2~ a3"), spec) == SEP
    assert classify_kind_from_word(parse_word("[a1,b1]"), spec) == SEP


def test_classify_nonseparating_word():
    spec = SurfaceSpec(4)
    word = parse_word("b1 b2 a2~ a1 b2 a2~ a1")
    assert classify_kind_from_word(word, spec) == NONSEP
    # abelianization 2a1 - 2a2 + b1 + 2b2
    assert homology_of_word(word, spec) == cls(2, 1, -2, 2, 0, 0, 0, 0)


# -- CurveClass invariants -----------------------------------------------------


def test_curve_nonsep_requires_primitive_class():
    CurveClass("c", NONSEP, homology=cls(2, 1))
    with pytest.raises(ValueError):
        CurveClass("c", NONSEP, homology=cls(2, 4))
    with pytest.raises(ValueError):
        CurveClass("c", NONSEP, homology=cls(0, 0))


@pytest.mark.parametrize("name", ["a b", "a#b", "", "x\ny", "\u2028", None])
def test_curve_name_must_be_one_mono_token(name):
    with pytest.raises(ValueError, match=re.escape(f"got {name!r}")):
        CurveClass(name, NONSEP)


def test_curve_separating_must_be_null_homologous():
    CurveClass("d", SEP, h=1, homology=cls(0, 0))
    with pytest.raises(ValueError):
        CurveClass("d", SEP, h=1, homology=cls(1, 0))
    with pytest.raises(ValueError):
        CurveClass("d", SEP)  # missing type


def test_surface_spec_validation():
    with pytest.raises(ValueError):
        SurfaceSpec(-1)
    assert SurfaceSpec(3, 2).homology_rank == 6
    assert SurfaceSpec(3, 2).capped() == SurfaceSpec(3, 0)


# -- integer text ----------------------------------------------------------------


@pytest.mark.parametrize("text,value", [("0", 0), ("-0", 0), ("007", 7), ("-12", -12)])
def test_integer_reads_ascii_digits(text, value):
    assert integer(text) == value


@pytest.mark.parametrize("text", ["1_0", "+3", "\u0661", " 1", "1 ", "", "-", "1.0", "0x1"])
def test_integer_rejects_other_text(text):
    with pytest.raises(ValueError, match=re.escape(f"expected an integer, got {text!r}")):
        integer(text)
