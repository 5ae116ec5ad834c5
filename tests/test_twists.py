import hashlib
import math
import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.invariants import FiberCounts
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
    Factorization,
    MissingHomology,
    TwistLetter,
    cancel_adjacent_inverses,
    cap_boundary,
    conjugate_factorization,
    factorization_matrix,
    hurwitz_move,
    identity_matrix,
    is_symplectic,
    letter_counts,
    mat_vec,
    transvect,
    twist_matrix,
    verify_homological_relator,
)
from lefschetz.words import parse_word

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


@pytest.mark.parametrize("i,bad", [(1.0, "1.0"), ("1", "'1'"), (None, "None")])
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
