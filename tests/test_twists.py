import hashlib
import math
import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.factorization import (
    Factorization,
    MissingHomology,
    TwistLetter,
    cancel_adjacent_inverses,
    cap_boundary,
    check_curve,
    letter_counts,
)
from lefschetz.invariants import FiberCounts, twist_count_congruence
from lefschetz.mono import parse_mono, serialize_mono
from lefschetz.surface import (
    BOUNDARY,
    NONSEP,
    SEP,
    CurveClass,
    HomologyClass,
    SurfaceSpec,
    homology_of_word,
    pairing_matrix,
)
from lefschetz.twists import (
    NECESSITY_NOTE,
    conjugate_factorization,
    factorization_matrix,
    hurwitz_move,
    identity_matrix,
    is_symplectic,
    mat_vec,
    transvect,
    twist_matrix,
    verify_homological_relator,
)
from lefschetz.twists import _magnitude, _unpack
from lefschetz.words import parse_word
from test_surface import FLOAT_INDEX, RAISING_INDEX

A1 = HomologyClass.basis(1, "a1")
B1 = HomologyClass.basis(1, "b1")


def torus_factorization(names):
    curves = (
        CurveClass("ta", NONSEP, homology=A1),
        CurveClass("tb", NONSEP, homology=B1),
    )
    return Factorization(
        SurfaceSpec(1), curves, tuple(TwistLetter(n) for n in names)
    )


# -- independent arithmetic oracle for the torus relator ---------------------
# Hand-written 2x2 matrices for t_a1 and t_b1, multiplied locally; the
# expected values below are frozen from this computation.


def mul2(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


ORACLE_A = ((1, -1), (0, 1))  # b1 -> b1 - a1, a1 fixed
ORACLE_B = ((1, 0), (1, 1))  # a1 -> a1 + b1, b1 fixed


def oracle_power(p, k):
    out = ((1, 0), (0, 1))
    for _ in range(k):
        out = mul2(out, p)
    return out


# -- independent dense reference for any genus -------------------------------
# Each letter matrix is built as I + sign * a (Ja)^T from pairing_matrix and
# the word's matrix is the product of the letter matrices left to right.


def mat_mul(a, b):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a
    )


def dense_twist_matrix(a, sign):
    n = len(a)
    ja = [sum(x * y for x, y in zip(row, a)) for row in pairing_matrix(n // 2)]
    return tuple(
        tuple((1 if i == j else 0) + sign * a[i] * ja[j] for j in range(n))
        for i in range(n)
    )


def dense_factorization_matrix(f):
    n = f.spec.homology_rank
    out = identity_matrix(n)
    for letter in f.letters:
        homology = f.curve(letter.curve).homology
        a = homology.coords if homology is not None else (0,) * n
        out = mat_mul(out, dense_twist_matrix(a, letter.sign))
    return out


def test_twist_matrix_matches_hand_matrices():
    assert twist_matrix(A1, 1) == ORACLE_A
    assert twist_matrix(B1, 1) == ORACLE_B


def test_torus_product_has_order_six():
    p = mul2(ORACLE_A, ORACLE_B)
    assert oracle_power(p, 6) == ((1, 0), (0, 1))
    for k in range(1, 6):
        assert oracle_power(p, k) != ((1, 0), (0, 1))


def test_twist_matrix_zero_class_is_identity():
    assert twist_matrix(HomologyClass.zero(2)) == identity_matrix(4)
    assert twist_matrix(HomologyClass.zero(0)) == ()


def test_twist_matrix_example_g1():
    # image of b1 under t_a1 is b1 - a1
    assert mat_vec(twist_matrix(A1, 1), B1.coords) == (-1, 1)
    assert transvect(B1.coords, A1.coords, 1) == (-1, 1)
    assert transvect(B1.coords, A1.coords, -1) == (1, 1)


def test_twist_matrix_rejects_imprimitive():
    with pytest.raises(ValueError):
        twist_matrix(HomologyClass((2, 0)))


def test_twist_inverse_pairs_cancel():
    m = twist_matrix(HomologyClass((3, 5)), 1)
    m_inv = twist_matrix(HomologyClass((3, 5)), -1)
    assert mat_mul(m, m_inv) == identity_matrix(2)


def primitive_classes(genus):
    dim = 2 * genus

    def normalize(v):
        g = math.gcd(*v)
        return tuple(x // g for x in v)

    return (
        st.lists(st.integers(-6, 6), min_size=dim, max_size=dim)
        .filter(lambda v: any(v))
        .map(normalize)
        .map(HomologyClass)
    )


@given(primitive_classes(3), st.sampled_from([1, -1]))
@settings(max_examples=200, deadline=None)
def test_twist_matrices_are_symplectic(cls, sign):
    m = twist_matrix(cls, sign)
    assert is_symplectic(m, 3)
    assert mat_mul(m, twist_matrix(cls, -sign)) == identity_matrix(6)


# -- factorization_matrix -----------------------------------------------------


def test_empty_factorization_is_identity():
    f = torus_factorization(())
    assert factorization_matrix(f) == identity_matrix(2)


def test_torus_relator_six_copies():
    f = torus_factorization(("ta", "tb") * 6)
    assert factorization_matrix(f) == identity_matrix(2)


def test_single_positive_twist_not_identity():
    f = torus_factorization(("ta",))
    assert factorization_matrix(f) != identity_matrix(2)


def test_composition_order_is_left_product():
    f = torus_factorization(("ta", "tb"))
    assert factorization_matrix(f) == mul2(ORACLE_A, ORACLE_B)


def test_missing_homology_error_names_curve():
    curves = (CurveClass("mystery", NONSEP),)
    f = Factorization(SurfaceSpec(1), curves, (TwistLetter("mystery"),))
    with pytest.raises(MissingHomology, match="mystery"):
        factorization_matrix(f)
    # with two classless letters the leftmost one is named
    curves = (
        CurveClass("ta", NONSEP, homology=A1),
        CurveClass("early", NONSEP),
        CurveClass("late", NONSEP),
    )
    letters = tuple(TwistLetter(n) for n in ("ta", "early", "ta", "late"))
    f = Factorization(SurfaceSpec(1), curves, letters)
    with pytest.raises(MissingHomology, match="'early'") as info:
        factorization_matrix(f)
    assert info.value.curve_name == "early"
    with pytest.raises(MissingHomology, match="'early'"):
        verify_homological_relator(f)
    # declared late before early: the letters, not the curve table, decide
    curves = (curves[0], curves[2], curves[1])
    f = Factorization(SurfaceSpec(1), curves, letters)
    for check in (factorization_matrix, verify_homological_relator):
        with pytest.raises(MissingHomology, match="'early'") as info:
            check(f)
        assert info.value.curve_name == "early"


def sparse_primitive_classes(genus):
    # mostly zero coordinates, as in chain and random benchmark words
    return (
        st.lists(st.sampled_from((-1, 0, 0, 0, 1)), min_size=2 * genus, max_size=2 * genus)
        .filter(any)
        .map(lambda v: HomologyClass(tuple(v)))
    )


def any_primitive_classes(genus):
    return st.one_of(primitive_classes(genus), sparse_primitive_classes(genus))


@st.composite
def mixed_words(draw, max_genus=8, min_letters=0):
    genus = draw(st.integers(1, max_genus))
    classes = draw(st.lists(any_primitive_classes(genus), min_size=1, max_size=4))
    curves = [CurveClass(f"c{k}", NONSEP, homology=c) for k, c in enumerate(classes)]
    curves.append(CurveClass("delta", BOUNDARY, boundary_index=1))
    if genus >= 2:
        curves.append(CurveClass("sep", SEP, h=draw(st.integers(1, genus // 2))))
    letter = st.builds(
        TwistLetter, st.sampled_from([c.name for c in curves]), st.sampled_from((1, -1))
    )
    letters = draw(st.lists(letter, min_size=min_letters, max_size=12))
    return Factorization(SurfaceSpec(genus, 1), tuple(curves), tuple(letters))


@given(mixed_words())
@settings(max_examples=150, deadline=None)
def test_factorization_matrix_matches_dense_reference(f):
    assert factorization_matrix(f) == dense_factorization_matrix(f)


def test_separating_letters_act_trivially():
    curves = (CurveClass("d", SEP, h=1),)
    f = Factorization(SurfaceSpec(2), curves, (TwistLetter("d"),))
    assert factorization_matrix(f) == identity_matrix(4)


# SHA-256 of factorization_matrix and verify_homological_relator's matrix_ok
# over the seeded words below, recorded when every row update of the product
# was one list comprehension.
PRODUCTS_DIGEST = (
    "2b8f7c6102da6abad3a622f4f31b78cf27f0730479fb6a13e3e05bb4f7fe3555"
)


def seeded_product_words():
    # Coordinates in -3..3 give multipliers other than +-1; Hurwitz walks
    # grow entries to many bits; w w^-1 makes matrix_ok come out true too.
    rng = random.Random(1729)
    for _ in range(600):
        genus = rng.randint(1, 8)
        curves = []
        for k in range(rng.randint(1, 5)):
            while not any(coords := [rng.randint(-3, 3) for _ in range(2 * genus)]):
                pass
            g = math.gcd(*coords)
            homology = HomologyClass(tuple(c // g for c in coords))
            curves.append(CurveClass(f"c{k}", NONSEP, homology=homology))
        curves.append(CurveClass("delta", BOUNDARY, boundary_index=1))
        names = [c.name for c in curves]
        letters = tuple(
            TwistLetter(rng.choice(names), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 12))
        )
        if rng.random() < 0.3:
            letters += tuple(TwistLetter(t.curve, -t.sign) for t in reversed(letters))
        f = Factorization(SurfaceSpec(genus, 1), tuple(curves), letters)
        yield f
        if len(letters) >= 2 and rng.random() < 0.4:
            for _ in range(rng.randint(1, 12)):
                i = rng.randint(1, len(letters) - 1)
                f = hurwitz_move(f, i, rng.choice(("right", "left")))
            yield f


def test_seeded_products_digest():
    digest = hashlib.sha256()
    for f in seeded_product_words():
        digest.update(repr(factorization_matrix(f)).encode())
        digest.update(repr(verify_homological_relator(f).matrix_ok).encode())
    assert digest.hexdigest() == PRODUCTS_DIGEST


def growing_word(k, j=0):
    # (t_a t_b^-1)^k t_a^j with <a, b> = 2: the largest entry grows about
    # 2.5 bits per repetition and about 0.5 bits per trailing t_a.
    curves = (
        CurveClass("a", NONSEP, homology=HomologyClass((1, 0))),
        CurveClass("b", NONSEP, homology=HomologyClass((1, 2))),
    )
    letters = (TwistLetter("a"), TwistLetter("b", -1)) * k + (TwistLetter("a"),) * j
    return Factorization(SurfaceSpec(1), curves, letters)


def mixed_sign_word(k):
    # (t_a t_b^-1)^k with a = (1, -1), b = (1, -3) and <a, b> = -2: classes
    # with entries of both signs, so the growth bound must take |a_i|.
    curves = (
        CurveClass("a", NONSEP, homology=HomologyClass((1, -1))),
        CurveClass("b", NONSEP, homology=HomologyClass((1, -3))),
    )
    letters = (TwistLetter("a"), TwistLetter("b", -1)) * k
    return Factorization(SurfaceSpec(1), curves, letters)


# (k, j, bit length of the largest entry): just below and just above 2^62,
# 2^63, 2^126 and 2^127, where the product leaves its 64-bit fields for
# 128-bit ones and those for 256-bit ones.
GROWING_BOUNDARIES = [
    (24, 0, 61), (24, 1, 62), (24, 2, 62), (24, 3, 63), (24, 4, 63), (25, 0, 64),
    (49, 1, 125), (49, 2, 126), (49, 3, 127), (50, 0, 127), (50, 1, 128),
]
# (k, bit length of the largest entry) of the mixed-sign word, across 2^63
# and 2^127.  A bound from the signed a_i, (max(a) * sum(a)).bit_length(),
# misses its growth: k = 25 and 50 decode wrongly, k = 26 and 51 overflow.
MIXED_SIGN_BOUNDARIES = [(24, 63), (25, 65), (26, 68), (49, 126), (50, 129), (51, 132)]


@pytest.mark.parametrize("f, bits", [
    *(pytest.param(growing_word(k, j), bits, id=f"{k}-{j}-{bits}")
      for k, j, bits in GROWING_BOUNDARIES),
    *(pytest.param(mixed_sign_word(k), bits, id=f"mixed-{k}-{bits}")
      for k, bits in MIXED_SIGN_BOUNDARIES),
])
def test_product_at_field_boundaries(f, bits):
    m = factorization_matrix(f)
    assert max(abs(x) for row in m for x in row).bit_length() == bits
    assert m == dense_factorization_matrix(f)
    assert not verify_homological_relator(f).matrix_ok


@pytest.mark.parametrize("k", [25, 51])
def test_verify_cancels_entries_past_the_field_width(k):
    # w w^-1 is the identity, though the product of w^-1 alone, built
    # first, has entries past 2^63 (k = 25) or 2^127 (k = 51)
    f = growing_word(k)
    inverse = tuple(TwistLetter(t.curve, -t.sign) for t in reversed(f.letters))
    closed = replace(f, letters=f.letters + inverse)
    assert verify_homological_relator(closed).matrix_ok
    assert factorization_matrix(closed) == identity_matrix(2)


@pytest.mark.parametrize("width", [64, 128])
def test_packed_fields_decode_at_their_edges(width):
    # Every value a width-bit field holds decodes back, its two ends
    # included, and _magnitude is the least e with each field in [-2^e, 2^e).
    top = 1 << (width - 1)
    ends = (-top, -top + 1, -2, -1, 0, 1, 2, top - 2, top - 1)
    rng = random.Random(width)
    for _ in range(300):
        n = rng.randint(1, 4)
        m = tuple(
            tuple(rng.choice(ends) >> rng.choice((0, 0, rng.randrange(width))) for _ in range(n))
            for _ in range(n)
        )
        rows = [sum(x << (width * j) for j, x in enumerate(row)) for row in m]
        assert _unpack(rows, width) == m
        least = max((~x if x < 0 else x).bit_length() for row in m for x in row)
        assert _magnitude(rows, width) == least


@pytest.mark.parametrize("text", [
    # genus 0: no rows at all
    "genus 0\nboundary 1\ncurve p kind boundary 1\ntwist p\ntwist p -\ntarget identity\n",
    "genus 3\nboundary 0\ntarget identity\n",
    # zero-class letters around a nonseparating one
    "genus 2\nboundary 0\ncurve d kind sep 1\ncurve c kind nonsep hom 1 0 0 1\n"
    "twist d\ntwist c\ntwist d -\ntarget identity\n",
])
def test_product_of_edge_words(text):
    f = parse_mono(text)
    assert factorization_matrix(f) == dense_factorization_matrix(f)
    full = dense_factorization_matrix(f) == identity_matrix(f.spec.homology_rank)
    assert verify_homological_relator(f).matrix_ok == full


# -- verify_homological_relator -----------------------------------------------


def test_verify_torus_relator():
    report = verify_homological_relator(torus_factorization(("ta", "tb") * 6))
    assert report.matrix_ok
    assert report.congruence_ok is None
    assert report.counts == FiberCounts(1, 12)
    assert report.all_positive


def test_verify_torus_fifth_power_fails():
    report = verify_homological_relator(torus_factorization(("ta", "tb") * 5))
    assert not report.matrix_ok


def test_verify_braid_word_on_genus_two():
    # t_a t_b t_a t_b^-1 t_a^-1 t_b^-1 with <a, b> = 1
    a = HomologyClass.basis(2, "a1")
    b = HomologyClass.basis(2, "b1")
    curves = (
        CurveClass("a", NONSEP, homology=a),
        CurveClass("b", NONSEP, homology=b),
    )
    letters = (
        TwistLetter("a", 1), TwistLetter("b", 1), TwistLetter("a", 1),
        TwistLetter("b", -1), TwistLetter("a", -1), TwistLetter("b", -1),
    )
    f = Factorization(SurfaceSpec(2), curves, letters)
    report = verify_homological_relator(f)
    assert report.matrix_ok
    assert not report.all_positive


def test_verify_caps_boundary_targets():
    curves = (
        CurveClass("ta", NONSEP, homology=A1),
        CurveClass("tb", NONSEP, homology=B1),
    )
    f = Factorization(
        SurfaceSpec(1, 1),
        curves,
        tuple(TwistLetter(n) for n in ("ta", "tb") * 6),
        target=((1, 1),),
    )
    # capping ignores the boundary target and checks the letter product
    assert verify_homological_relator(f).matrix_ok


@given(mixed_words(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_verify_matches_full_matrix(f, closed):
    # verify compares only the touched handles; w w^-1 makes both outcomes
    # occur.  Boundary-only words are drawn too: they have no counts.
    if closed:
        inverse = tuple(TwistLetter(t.curve, -t.sign) for t in reversed(f.letters))
        f = replace(f, letters=f.letters + inverse)
    full = factorization_matrix(f) == identity_matrix(f.spec.homology_rank)
    assert verify_homological_relator(f).matrix_ok == full


@pytest.mark.parametrize("twists", ["", "twist p\n", "twist p\ntwist p -\n"])
def test_verify_fiberless_word(twists):
    # boundary letters cap away: no fibers, so no counts and no congruence
    f = parse_mono(
        "genus 1\nboundary 1\ncurve p kind boundary 1\n" + twists + "target identity\n"
    )
    assert letter_counts(f) is None
    for hyperelliptic in (False, True):
        report = verify_homological_relator(f, hyperelliptic=hyperelliptic)
        assert report.matrix_ok
        assert report.counts is None
        assert report.congruence_ok is None


def test_verify_does_not_grow_with_genus():
    # one separating letter at genus 500: nothing to multiply, no 2g x 2g matrix
    f = parse_mono("genus 500\nboundary 0\ncurve d kind sep 1\ntwist d\ntarget identity\n")
    tracemalloc.start()
    try:
        report = verify_homological_relator(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.matrix_ok
    assert peak < 2**20


def test_verify_hyperelliptic_congruence_flag():
    f = torus_factorization(("ta", "tb") * 6)
    assert verify_homological_relator(f, hyperelliptic=True).congruence_ok
    f5 = torus_factorization(("ta", "tb") * 5)
    assert not verify_homological_relator(f5, hyperelliptic=True).congruence_ok


def seeded_verify_words():
    """Seeded words mixing nonsep, sep and boundary letters, half of them
    closed up as w w^-1, some over a classless nonsep curve; then the
    empty word and a boundary-only word."""
    rng = random.Random(4321)
    for _ in range(400):
        genus, boundary = rng.randint(1, 6), rng.randint(0, 2)
        curves = []
        for k in range(rng.randint(1, 4)):
            coords = (0,)
            while math.gcd(*coords) != 1:
                coords = tuple(rng.choice((-2, -1, 0, 0, 0, 1, 2)) for _ in range(2 * genus))
            homology = None if rng.random() < 0.08 else HomologyClass(coords)
            curves.append(CurveClass(f"n{k}", NONSEP, homology=homology))
        if genus >= 2:
            curves.append(CurveClass("s", SEP, h=rng.randint(1, genus // 2)))
        curves += [CurveClass(f"d{i}", BOUNDARY, boundary_index=i)
                   for i in range(1, boundary + 1)]
        signs = (1, -1) if rng.random() < 0.5 else (1,)
        letters = [TwistLetter(rng.choice(curves).name, rng.choice(signs))
                   for _ in range(rng.randint(0, 20))]
        if rng.random() < 0.5:
            letters += [TwistLetter(t.curve, -t.sign) for t in reversed(letters)]
        yield Factorization(SurfaceSpec(genus, boundary), tuple(curves), tuple(letters))
    curves = (CurveClass("c", NONSEP, homology=A1), CurveClass("p", BOUNDARY, boundary_index=1))
    yield Factorization(SurfaceSpec(1, 1), curves, ())
    yield Factorization(SurfaceSpec(1, 1), curves, (TwistLetter("p"), TwistLetter("p", -1)))


def test_verify_report_matches_letter_by_letter_oracles():
    # Every field of the one-pass report against the separate functions
    # that compute it; MissingHomology names the leftmost classless letter.
    outcomes = set()
    for f in seeded_verify_words():
        classless = [t.curve for t in f.letters
                     if f.curve(t.curve).kind == NONSEP and f.curve(t.curve).homology is None]
        for hyperelliptic in (False, True):
            if classless:
                with pytest.raises(MissingHomology) as info:
                    verify_homological_relator(f, hyperelliptic=hyperelliptic)
                assert info.value.curve_name == classless[0]
                outcomes.add("missing")
                continue
            report = verify_homological_relator(f, hyperelliptic=hyperelliptic)
            counts = letter_counts(f)
            matrix_ok = factorization_matrix(f) == identity_matrix(f.spec.homology_rank)
            assert report.matrix_ok == matrix_ok
            assert report.counts == counts
            assert report.congruence_ok == (
                twist_count_congruence(counts) if hyperelliptic and counts else None
            )
            assert report.letter_kinds == tuple(
                (t.curve, f.curve(t.curve).kind_label()) for t in f.letters
            )
            assert report.all_positive == f.all_positive()
            assert report.note == NECESSITY_NOTE
            outcomes |= {("closed", matrix_ok), ("fiberless", counts is None),
                         ("positive", report.all_positive)}
    assert outcomes == {"missing"} | {(what, value) for value in (True, False)
                                      for what in ("closed", "fiberless", "positive")}


# -- hurwitz_move ---------------------------------------------------------------


def test_hurwitz_right_move_conjugates():
    f = torus_factorization(("ta", "tb"))
    moved = hurwitz_move(f, 1, "right")
    assert [l.curve for l in moved.letters] == ["tb", "ta@h1"]
    # frozen from the matrix-vector oracle: twist(b1, -1) a1 = a1 - b1
    assert moved.curve("ta@h1").homology == HomologyClass((1, -1))
    assert factorization_matrix(moved) == factorization_matrix(f)


def test_hurwitz_disjoint_swap_keeps_classes():
    a1 = HomologyClass.basis(2, "a1")
    a2 = HomologyClass.basis(2, "a2")
    curves = (
        CurveClass("u", NONSEP, homology=a1),
        CurveClass("v", NONSEP, homology=a2),
    )
    f = Factorization(SurfaceSpec(2), curves, (TwistLetter("u"), TwistLetter("v")))
    moved = hurwitz_move(f, 1, "right")
    assert [l.curve for l in moved.letters] == ["v", "u"]
    assert moved.curves == f.curves


def test_hurwitz_commuting_move_keeps_a_minted_curve():
    # after one move the word is (tb, ta@h1, td); ta@h1 = a1 - b1 and
    # td = a2 pair to 0, so moving them swaps the two letter objects.
    curves = (
        CurveClass("ta", NONSEP, homology=HomologyClass((1, 0, 0, 0))),
        CurveClass("tb", NONSEP, homology=HomologyClass((0, 1, 0, 0))),
        CurveClass("td", NONSEP, homology=HomologyClass((0, 0, 1, 0))),
    )
    letters = (TwistLetter("ta"), TwistLetter("tb"), TwistLetter("td", -1))
    f = hurwitz_move(Factorization(SurfaceSpec(2), curves, letters), 1, "right")
    assert [l.curve for l in f.letters] == ["tb", "ta@h1", "td"]
    for direction in ("right", "left"):
        moved = hurwitz_move(f, 2, direction)
        assert [l.curve for l in moved.letters] == ["tb", "td", "ta@h1"]
        assert moved.letters[1] is f.letters[2]
        assert moved.letters[2] is f.letters[1]
        assert moved.curve("ta@h1") is f.curve("ta@h1")
        assert moved.curves == f.curves
        assert moved == Factorization(moved.spec, moved.curves, moved.letters)
        assert factorization_matrix(moved) == factorization_matrix(f)


def test_hurwitz_right_then_left_restores():
    f = torus_factorization(("ta", "tb", "ta", "tb"))
    for i in (1, 2, 3):
        assert hurwitz_move(hurwitz_move(f, i, "right"), i, "left") == f
        assert hurwitz_move(hurwitz_move(f, i, "left"), i, "right") == f


def test_hurwitz_kind_multiset_preserved():
    a1 = HomologyClass.basis(2, "a1")
    curves = (
        CurveClass("u", NONSEP, homology=a1),
        CurveClass("d", SEP, h=1),
    )
    f = Factorization(SurfaceSpec(2), curves, (TwistLetter("u"), TwistLetter("d")))
    moved = hurwitz_move(f, 1, "right")
    assert letter_counts(moved) == letter_counts(f)
    assert factorization_matrix(moved) == factorization_matrix(f)


def test_hurwitz_position_out_of_range():
    f = torus_factorization(("ta", "tb"))
    with pytest.raises(ValueError):
        hurwitz_move(f, 0)
    with pytest.raises(ValueError):
        hurwitz_move(f, 2)


@pytest.mark.parametrize(
    "i,bad",
    [(1.0, "1.0"), ("1", "'1'"), (None, "None"), (True, "True"),
     (FLOAT_INDEX, "<__index__ returns 1.5>"),
     (RAISING_INDEX, "<__index__ raises TypeError>")],
)
def test_hurwitz_position_must_be_an_integer(i, bad):
    f = torus_factorization(("ta", "tb"))
    with pytest.raises(ValueError, match=f"must be integers, got {bad}"):
        hurwitz_move(f, i)


def test_hurwitz_move_keeps_declared_unused_curves():
    # a@h1 looks machine-minted but is declared by the file; no move may
    # delete it, so the move and its inverse give back the parsed value.
    from lefschetz.mono import parse_mono

    f = parse_mono(
        "genus 1\nboundary 0\n"
        "curve a kind nonsep hom 1 0\n"
        "curve b kind nonsep hom 0 1\n"
        "curve a@h1 kind nonsep hom 1 1\n"
        "twist a\ntwist b\ntarget identity\n"
    )
    moved = hurwitz_move(f, 1, "right")
    assert [c.name for c in moved.curves] == ["a", "b", "a@h1", "a@h2"]
    assert [l.curve for l in moved.letters] == ["b", "a@h2"]
    assert hurwitz_move(moved, 1, "left") == f


@st.composite
def hurwitz_walks(draw):
    f = draw(mixed_words(max_genus=6, min_letters=2))
    # a declared curve whose name looks minted; no letter names it
    decoy = CurveClass("c0@h1", NONSEP, homology=f.curve("c0").homology)
    f = Factorization(f.spec, f.curves + (decoy,), f.letters)
    move = st.tuples(
        st.integers(1, len(f.letters) - 1), st.sampled_from(("right", "left"))
    )
    return f, draw(st.lists(move, min_size=1, max_size=12))


def letter_data(f):
    return [
        (f.curve(l.curve).kind_label(), l.sign, f.curve(l.curve).homology)
        for l in f.letters
    ]


INVERSE = {"right": "left", "left": "right"}


@given(hurwitz_walks())
@settings(max_examples=150, deadline=None)
def test_hurwitz_walks_stay_valid_and_undo(walk):
    f, moves = walk
    states = [f]
    for i, direction in moves:
        m = hurwitz_move(states[-1], i, direction)
        # the unchecked result is what the checking constructor builds
        rebuilt = Factorization(m.spec, m.curves, m.letters, m.target)
        assert m == rebuilt and vars(m) == vars(rebuilt)
        assert all(m.curve(l.curve).name == l.curve for l in m.letters)
        states.append(m)
    # From f, whose letters name no @h curve, one move and its inverse
    # restore it exactly.
    i, direction = moves[0]
    assert hurwitz_move(states[1], i, INVERSE[direction]) == f
    # Undone move by move, the walk returns every earlier letter sequence
    # (kinds, signs, classes); a curve minted on the way back may carry a
    # new @h name, since a dropped minted name is not remembered.
    back = states[-1]
    for (i, direction), before in zip(reversed(moves), reversed(states[:-1])):
        back = hurwitz_move(back, i, INVERSE[direction])
        assert letter_data(back) == letter_data(before)
    assert factorization_matrix(back) == factorization_matrix(f)


def random_genus_le4_factorization(rng):
    genus = rng.randint(1, 4)
    dim = 2 * genus
    curves = []
    for k in range(6):
        while True:
            coords = [rng.randint(-3, 3) for _ in range(dim)]
            if any(coords):
                g = math.gcd(*coords)
                coords = [c // g for c in coords]
                break
        curves.append(
            CurveClass(f"c{k}", NONSEP, homology=HomologyClass(tuple(coords)))
        )
    if genus >= 2:
        curves.append(CurveClass("sep", SEP, h=genus // 2))
    names = [c.name for c in curves]
    letters = tuple(
        TwistLetter(rng.choice(names), rng.choice((1, 1, 1, -1))) for _ in range(10)
    )
    return Factorization(SurfaceSpec(genus), tuple(curves), letters)


def test_thousand_random_hurwitz_moves_preserve_product():
    rng = random.Random(20240811)
    moves = 0
    while moves < 1000:
        f = random_genus_le4_factorization(rng)
        before = factorization_matrix(f)
        for _ in range(rng.randint(1, 8)):
            i = rng.randint(1, len(f.letters) - 1)
            f = hurwitz_move(f, i, rng.choice(("right", "left")))
            moves += 1
        assert factorization_matrix(f) == before


def test_hurwitz_move_names_the_left_classless_letter():
    curves = (CurveClass("first", NONSEP), CurveClass("second", NONSEP))
    letters = (TwistLetter("first"), TwistLetter("second"))
    f = Factorization(SurfaceSpec(1), curves, letters)
    for direction in ("right", "left"):
        with pytest.raises(MissingHomology) as info:
            hurwitz_move(f, 1, direction)
        assert info.value.curve_name == "first"


# SHA-256 of the .mono text after every move and the repr of every refused
# move over the seeded walks below, recorded when each direction of a move
# still had its own branch.
HURWITZ_WALKS_DIGEST = (
    "faa2e2d10d3aec250c1e32a6970391b642f36f55b621d9dc77362fcca5dad381"
)


def seeded_hurwitz_walks():
    rng = random.Random(2026)
    for _ in range(3000):
        genus = rng.randint(1, 4)
        spec = SurfaceSpec(genus, 1)
        curves = []
        for k in range(3):
            while not any(coords := [rng.choice((-2, -1, 0, 0, 1, 2))
                                     for _ in range(2 * genus)]):
                pass
            g = math.gcd(*coords)
            homology = HomologyClass(tuple(c // g for c in coords))
            curves.append(CurveClass(f"c{k}", NONSEP, homology=homology))
        worded = parse_word("a1 b1")
        curves += [
            CurveClass("c0@h1", NONSEP, homology=curves[0].homology),  # decoy
            CurveClass("w", NONSEP, homology=homology_of_word(worded, spec),
                       word=worded),
            CurveClass("m0", NONSEP),  # no class
            CurveClass("m1", NONSEP),
            CurveClass("delta", BOUNDARY, boundary_index=1),
        ]
        if genus >= 2:
            curves.append(CurveClass("sep", SEP, h=rng.randint(1, genus // 2)))
        names = [c.name for c in curves]
        letters = tuple(
            TwistLetter(rng.choice(names), rng.choice((1, 1, -1)))
            for _ in range(rng.randint(2, 8))
        )
        f = Factorization(spec, tuple(curves), letters)
        moves = []
        for _ in range(rng.randint(1, 6)):
            if moves and rng.random() < 0.3:  # often undo the last move
                i, direction = moves[-1]
                moves.append((i, INVERSE[direction]))
            else:
                moves.append((rng.randint(1, len(letters) - 1),
                              rng.choice(("right", "left"))))
        yield f, moves


def test_seeded_hurwitz_walks_digest():
    digest = hashlib.sha256()
    for f, moves in seeded_hurwitz_walks():
        for i, direction in moves:
            try:
                f = hurwitz_move(f, i, direction)
            except MissingHomology as exc:
                digest.update(repr(exc).encode())
            else:
                digest.update(serialize_mono(f).encode())
    assert digest.hexdigest() == HURWITZ_WALKS_DIGEST


def test_hurwitz_move_mints_nonseparating_curves():
    # a@h1 moves off b; its namesake a has no class, so a cannot be the
    # image's curve and the move mints one instead of stopping on a.
    f = parse_mono(
        "genus 1\nboundary 0\n"
        "curve a kind nonsep\n"
        "curve a@h1 kind nonsep hom 1 0\n"
        "curve b kind nonsep hom 0 1\n"
        "twist a@h1\ntwist b\ntarget identity\n"
    )
    moved = hurwitz_move(f, 1, "right")
    assert [l.curve for l in moved.letters] == ["b", "a@h1@h1"]
    assert moved.curve("a@h1@h1") == CurveClass(
        "a@h1@h1", NONSEP, homology=HomologyClass((1, -1))
    )
    minted = 0
    for f, moves in seeded_hurwitz_walks():
        declared = {c.name for c in f.curves}
        for i, direction in moves:
            try:
                f = hurwitz_move(f, i, direction)
            except MissingHomology:
                continue
            for c in f.curves:
                if c.name not in declared:
                    minted += 1
                    assert (c.kind, c.h, c.boundary_index, c.word) == (
                        NONSEP, None, None, None
                    )
    assert minted


def test_hurwitz_results_are_valid_by_construction():
    # hurwitz_move runs no __post_init__ on its result, the curve it mints,
    # that curve's class or its letter; the checking constructors must
    # accept each of them and build an equal value.
    minted = 0
    for f, moves in seeded_hurwitz_walks():
        declared = {c.name for c in f.curves}
        for i, direction in moves:
            try:
                f = hurwitz_move(f, i, direction)
            except MissingHomology:
                continue
            rebuilt = Factorization(f.spec, f.curves, f.letters, f.target)
            assert rebuilt == f
            assert vars(rebuilt) == vars(f)
            for letter in f.letters:
                assert TwistLetter(letter.curve, letter.sign) == letter
            for c in f.curves:
                if c.name not in declared:
                    minted += 1
                    coords = c.homology.coords
                    assert c == CurveClass(c.name, NONSEP,
                                           homology=HomologyClass(coords))
                    check_curve(c, f.spec)
    assert minted


# -- conjugate_factorization ----------------------------------------------------


def test_conjugate_by_identity():
    f = torus_factorization(("ta", "tb"))
    assert conjugate_factorization(f, identity_matrix(2)) == f


def test_conjugate_example_g1():
    # frozen from the matrix-vector oracle: twist(b1, +1) a1 = a1 + b1
    f = torus_factorization(("ta",))
    m = twist_matrix(B1, 1)
    conj = conjugate_factorization(f, m)
    assert conj.curve("ta").homology == HomologyClass((1, 1))


def test_conjugate_matrix_conjugates():
    f = torus_factorization(("ta", "tb", "ta"))
    m = twist_matrix(HomologyClass((1, 2)), 1)
    conj = conjugate_factorization(f, m)
    j = pairing_matrix(1)
    m_inv = mat_mul(
        tuple(tuple(-x for x in row) for row in j),
        mat_mul(tuple(zip(*m)), j),
    )
    assert factorization_matrix(conj) == mat_mul(
        m, mat_mul(factorization_matrix(f), m_inv)
    )


def test_conjugate_relator_stays_relator():
    f = torus_factorization(("ta", "tb") * 6)
    m = twist_matrix(HomologyClass((2, 1)), -1)
    assert factorization_matrix(conjugate_factorization(f, m)) == identity_matrix(2)


def test_conjugate_then_inverse_restores_classes():
    f = torus_factorization(("ta", "tb"))
    m = twist_matrix(HomologyClass((1, 3)), 1)
    m_inv = twist_matrix(HomologyClass((1, 3)), -1)
    back = conjugate_factorization(conjugate_factorization(f, m), m_inv)
    assert [c.homology for c in back.curves] == [c.homology for c in f.curves]


def test_conjugate_identity_keeps_words():
    from lefschetz.words import parse_word

    curves = (
        CurveClass(
            "u", NONSEP, homology=A1, word=parse_word("a1")
        ),
        CurveClass("v", NONSEP),  # no class: nothing to map
    )
    f = Factorization(SurfaceSpec(1), curves, (TwistLetter("u"),))
    assert conjugate_factorization(f, identity_matrix(2)) == f
    # a genuinely moved curve drops its word but keeps kind and name
    moved = conjugate_factorization(f, twist_matrix(B1, 1))
    assert moved.curve("u").word is None
    assert moved.curve("u").homology == HomologyClass((1, 1))
    assert moved.curve("v") is f.curve("v")


@pytest.mark.parametrize(
    "m",
    [((1, 0), (0, 2)), ((1, 0), (0, 1, 0)), identity_matrix(4)],
    ids=["scaled", "ragged", "wrong-size"],
)
def test_conjugate_rejects_non_symplectic(m):
    f = torus_factorization(("ta",))
    with pytest.raises(ValueError):
        conjugate_factorization(f, m)


# -- cancel_adjacent_inverses ----------------------------------------------------


def test_cancel_single_pair():
    f = torus_factorization(())
    f = Factorization(
        f.spec, f.curves, (TwistLetter("ta", 1), TwistLetter("ta", -1))
    )
    assert cancel_adjacent_inverses(f).letters == ()


def test_cancel_interior_pair():
    curves = (
        CurveClass("ta", NONSEP, homology=A1),
        CurveClass("tb", NONSEP, homology=B1),
        CurveClass("tc", NONSEP, homology=HomologyClass((1, 1))),
    )
    letters = (
        TwistLetter("ta"), TwistLetter("tc"), TwistLetter("tc", -1), TwistLetter("tb")
    )
    f = Factorization(SurfaceSpec(1), curves, letters)
    out = cancel_adjacent_inverses(f)
    assert [l.curve for l in out.letters] == ["ta", "tb"]
    assert factorization_matrix(out) == factorization_matrix(f)


def test_cancel_cascade_and_noop():
    curves = (CurveClass("ta", NONSEP, homology=A1),
              CurveClass("tb", NONSEP, homology=B1))
    letters = (
        TwistLetter("ta"), TwistLetter("tb"), TwistLetter("tb", -1),
        TwistLetter("ta", -1),
    )
    f = Factorization(SurfaceSpec(1), curves, letters)
    assert cancel_adjacent_inverses(f).letters == ()
    g = torus_factorization(("ta", "tb", "ta"))
    assert cancel_adjacent_inverses(g) == g


# -- cap_boundary -----------------------------------------------------------------


def test_cap_boundary_strips_targets_and_boundary_curves():
    from lefschetz.surface import BOUNDARY

    curves = (
        CurveClass("ta", NONSEP, homology=A1),
        CurveClass("delta", BOUNDARY, boundary_index=1),
    )
    f = Factorization(
        SurfaceSpec(1, 2),
        curves,
        (TwistLetter("ta"), TwistLetter("delta")),
        target=((1, 1), (2, 2)),
    )
    capped = cap_boundary(f)
    assert capped.spec == SurfaceSpec(1, 0)
    assert capped.is_identity_target
    assert [l.curve for l in capped.letters] == ["ta"]


def test_factorization_validation():
    with pytest.raises(ValueError, match="undeclared"):
        Factorization(SurfaceSpec(1), (), (TwistLetter("zz"),))
    with pytest.raises(ValueError, match="duplicate"):
        Factorization(
            SurfaceSpec(1),
            (CurveClass("c", NONSEP), CurveClass("c", NONSEP)),
            (),
        )
    with pytest.raises(ValueError, match="out of range"):
        Factorization(SurfaceSpec(1, 1), (), (), target=((2, 1),))


def test_genus_zero_admits_no_nonseparating_curve():
    with pytest.raises(ValueError, match="curve 'a': genus 0 has no nonseparating"):
        Factorization(SurfaceSpec(0), (CurveClass("a", NONSEP),), (TwistLetter("a"),))
