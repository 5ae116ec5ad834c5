import copy
import json
import pickle
import re
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import feasibility
from lefschetz.catalog import get_entry
from lefschetz.feasibility import (
    ADMITTED,
    REJECT_CHI_H,
    REJECT_CONGRUENCE,
    REJECT_N_LOWER,
    REJECT_SIGMA_BOUND,
    REJECT_SIGMA_INTEGRAL,
    REJECT_TOTAL,
    ConstraintProfile,
    FeasibilityRow,
    _blocks,
    _hyperelliptic_floor,
    _verdict,
    check_counts,
    enumerate_feasible,
    min_fiber_bounds,
    row_count,
)
from lefschetz.factorization import TwistLetter, letter_counts
from lefschetz.invariants import (
    FiberCounts,
    _s_terms,
    euler_characteristic,
    hyperelliptic_signature,
    min_nonseparating_bound,
    signature_bound_check,
    twist_count_congruence,
)
from lefschetz.mono import parse_mono
from lefschetz.surface import BOUNDARY, NONSEP, CurveClass, HomologyClass
from lefschetz.twists import hurwitz_move
from lefschetz.words import parse_word


def counts_tuple(row):
    return (row.counts.n, *row.counts.s)


# -- independent oracle -------------------------------------------------------
# Re-derives every constraint with plain integer arithmetic (all fractions
# cleared by 2g+1 and 4(2g+1)), in a deliberately naive full loop.


def oracle_verdict(g, n, s, bound):
    q = 2 * g + 1
    total = n + sum(s)
    if total >= bound:
        return REJECT_TOTAL
    if n < 4 * g:
        return REJECT_N_LOWER
    weighted = n + sum(2 * h * (4 * h + 2) * sh for h, sh in enumerate(s, 1))
    modulus = 4 * q if g % 2 else 2 * q
    if weighted % modulus != 0:
        return REJECT_CONGRUENCE
    sigma_num = -(g + 1) * n + sum(
        (4 * h * (g - h) - q) * sh for h, sh in enumerate(s, 1)
    )  # sigma = sigma_num / q
    if sigma_num % q != 0:
        return REJECT_SIGMA_INTEGRAL
    sigma = sigma_num // q
    if sigma > n - sum(s) - 4 * g:
        return REJECT_SIGMA_BOUND
    e = 4 - 4 * g + total
    if (e + sigma) % 4 != 0 or (e + sigma) // 4 < 1:
        return REJECT_CHI_H
    return ADMITTED


def oracle_rows(g, bound):
    width = g // 2
    rows = []
    for n in range(bound):
        for s in product(range(bound), repeat=width):
            total = n + sum(s)
            if total < 1 or total >= bound:
                continue
            rows.append(((n, *s), oracle_verdict(g, n, list(s), bound)))
    return rows


# -- check_counts ---------------------------------------------------------------


def test_check_counts_paper_rows():
    p2 = ConstraintProfile(2, 14)
    row = check_counts(FiberCounts.of(2, 8, 1), p2)
    assert row.verdict == REJECT_CHI_H
    assert row.chi_h == 0
    assert row.sigma == Fraction(-5)

    p3 = ConstraintProfile(3, 18)
    row = check_counts(FiberCounts.of(3, 16, 1), p3)
    assert row.verdict == REJECT_CHI_H
    assert row.chi_h == 0

    p4 = ConstraintProfile(4, 24)
    row = check_counts(FiberCounts.of(4, 16, 0, 5), p4)
    assert row.verdict == ADMITTED
    assert row.sigma == Fraction(-5)
    assert row.chi_h == 1


def test_check_counts_first_failure_wins():
    p = ConstraintProfile(2, 14)
    assert check_counts(FiberCounts.of(2, 14, 0), p).verdict == REJECT_TOTAL
    assert check_counts(FiberCounts.of(2, 7, 1), p).verdict == REJECT_N_LOWER
    assert check_counts(FiberCounts.of(2, 9, 0), p).verdict == REJECT_CONGRUENCE
    p40 = ConstraintProfile(2, 40)
    # 8 + 12*11 = 140 = 0 mod 10, sigma = -7, but -7 > 8 - 11 - 8 = -11
    assert check_counts(FiberCounts.of(2, 8, 11), p40).verdict == REJECT_SIGMA_BOUND
    p4 = ConstraintProfile(4, 40)
    assert check_counts(FiberCounts.of(4, 20, 1, 1), p4).verdict == REJECT_CHI_H


def test_congruence_stage_subsumes_sigma_integrality():
    # Mod 2g+1 the congruence forces the signature numerator to vanish
    # (substitute 2g = -1), so no row the congruence admits has a
    # fractional signature; the verdict kernel has no integrality stage.
    for g, bound in ((2, 40), (3, 40), (4, 40), (5, 30)):
        rows = enumerate_feasible(ConstraintProfile(g, bound))
        assert all(r.verdict != REJECT_SIGMA_INTEGRAL for r in rows)
        assert all(
            r.sigma_integral
            for r in rows
            if r.verdict not in (REJECT_TOTAL, REJECT_N_LOWER, REJECT_CONGRUENCE)
        )
    # Directly for g = 1..60: s_h = (a h + b) mod 13 covers entries 0..12,
    # n is the least solution of the congruence, and then q | sigma_q.
    for g in range(1, 61):
        q, modulus = 2 * g + 1, (4 if g % 2 else 2) * (2 * g + 1)
        for a, b in product(range(13), repeat=2):
            s = tuple((a * h + b) % 13 for h in range(1, g // 2 + 1))
            _, weighted, s_sigma_q = _s_terms(g, s)
            n = -weighted % modulus
            assert (s_sigma_q - (g + 1) * n) % q == 0, (g, s)
            while n < 4 * g:  # so the kernel reaches both stages
                n += modulus
            verdict = _verdict(g, n, _s_terms(g, s), 10**6)
            assert verdict not in (REJECT_CONGRUENCE, REJECT_SIGMA_INTEGRAL), (g, s)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_congruence_forces_integral_signature(data):
    # In plain integers: with n solved for the congruence, q | sigma_q.
    g = data.draw(st.integers(1, 40), label="g")
    s = data.draw(st.lists(st.integers(0, 50), min_size=g // 2, max_size=g // 2))
    q = 2 * g + 1
    modulus = 4 * q if g % 2 else 2 * q
    weighted = sum(2 * h * (4 * h + 2) * sh for h, sh in enumerate(s, 1))
    n = -weighted % modulus + modulus * data.draw(st.integers(0, 5), label="lift")
    assert (n + weighted) % modulus == 0
    sigma_num = -(g + 1) * n + sum(
        (4 * h * (g - h) - q) * sh for h, sh in enumerate(s, 1)
    )
    assert sigma_num % q == 0


@pytest.mark.parametrize("g", range(1, 7))
def test_enumerator_never_records_sigma_integrality(g):
    rows = enumerate_feasible(ConstraintProfile(g, 4 * g + 20))
    assert REJECT_SIGMA_INTEGRAL not in {row.verdict for row in rows}


def test_check_counts_requires_hyperelliptic_profile():
    # A nonhyperelliptic profile cannot be built, so check_counts and
    # enumerate_feasible never see one.
    with pytest.raises(ValueError, match="not hyperelliptic.*got False"):
        ConstraintProfile(2, 14, hyperelliptic=False)


def test_constraint_profile_hyperelliptic_is_init_only():
    # The benchmark's two spellings build equal profiles; the keyword is
    # not stored, and replace() still works beside the init-only default.
    p = ConstraintProfile(4, 24, hyperelliptic=True)
    assert p == ConstraintProfile(4, 24)
    assert len(enumerate_feasible(ConstraintProfile(2, 10))) == 54
    assert [f.name for f in fields(ConstraintProfile)] == ["genus", "max_total_fibers"]
    assert "hyperelliptic" not in vars(p)
    assert replace(p, genus=3) == ConstraintProfile(3, 24)


def test_check_counts_genus_mismatch():
    with pytest.raises(ValueError):
        check_counts(FiberCounts.of(2, 8, 1), ConstraintProfile(3, 14))


@pytest.mark.parametrize(
    "genus,bound,bad",
    [(4, 21.5, "21.5"), (4.0, 22, "4.0"), (4, "24", "'24'"), (Fraction(4), 24, "Fraction"),
     (True, 5, "True"), (2, True, "True"), (0, 5.5, "5.5")],
)
def test_constraint_profile_rejects_non_integers(genus, bound, bad):
    # A float bound used to admit rows in check_counts and crash range()
    # in enumerate_feasible; a float genus passed the genus-mismatch check;
    # True used to read as 1, a genus-1 profile or a bound of 1.
    with pytest.raises(ValueError, match=f"must be integers, got {re.escape(bad)}"):
        ConstraintProfile(genus, bound)


@pytest.mark.parametrize("flag", ["no", 0, 1, None, False])
def test_constraint_profile_rejects_non_bool_hyperelliptic(flag):
    # "no" is truthy and used to enumerate as a hyperelliptic profile.
    with pytest.raises(ValueError, match=f"got {re.escape(repr(flag))}"):
        ConstraintProfile(2, 5, hyperelliptic=flag)


def test_constraint_profile_keeps_exact_ints():
    class Index:
        def __index__(self):
            return 24

    p = ConstraintProfile(4, Index())
    assert type(p.max_total_fibers) is int and p == ConstraintProfile(4, 24)


# -- the Fraction route -------------------------------------------------------
# check_counts decides with one integer kernel; the closed forms in
# invariants, evaluated in Fractions in chain order, must agree with it.


def fraction_route_verdict(c, bound):
    sigma, integral = hyperelliptic_signature(c)
    chi_h = Fraction(euler_characteristic(c) + sigma, 4)
    if c.total >= bound:
        return REJECT_TOTAL
    if c.n < min_nonseparating_bound(c.genus):
        return REJECT_N_LOWER
    if not twist_count_congruence(c):
        return REJECT_CONGRUENCE
    if not integral:
        return REJECT_SIGMA_INTEGRAL
    if not signature_bound_check(c, int(sigma)):
        return REJECT_SIGMA_BOUND
    if chi_h.denominator != 1 or chi_h < 1:
        return REJECT_CHI_H
    return ADMITTED


@st.composite
def counts_and_bounds(draw):
    g = draw(st.integers(1, 10))
    s = tuple(draw(st.lists(st.integers(0, 6), min_size=g // 2, max_size=g // 2)))
    n = draw(st.integers(0, 90))
    if draw(st.booleans()):
        # Solve the congruence for n, so the later stages get reached.
        q = 2 * g + 1
        modulus = (4 if g % 2 else 2) * q
        weighted = sum(2 * h * (4 * h + 2) * sh for h, sh in enumerate(s, 1))
        n = 4 * g + (-(4 * g) - weighted) % modulus + modulus * draw(st.integers(0, 2))
    if n + sum(s) == 0:
        n = 1
    bound = max(1, n + sum(s) + 1 + draw(st.integers(-2, 12)))
    return FiberCounts(g, n, s), bound


@given(counts_and_bounds())
@settings(max_examples=400, deadline=None)
def test_check_counts_matches_fraction_route(case):
    c, bound = case
    row = check_counts(c, ConstraintProfile(c.genus, bound))
    assert row.verdict == fraction_route_verdict(c, bound)
    q = 2 * c.genus + 1
    sigma_q = -(c.genus + 1) * c.n + sum(
        (4 * h * (c.genus - h) - q) * sh for h, sh in enumerate(c.s, 1)
    )
    assert row.sigma == Fraction(sigma_q, q)
    assert row.sigma_integral == (sigma_q % q == 0)
    assert row.chi_h == (euler_characteristic(c) + row.sigma) / 4


# -- enumerate_feasible -----------------------------------------------------------


def test_enumerate_g2_bound_14():
    rows = enumerate_feasible(ConstraintProfile(2, 14))
    pre_chi = [counts_tuple(r) for r in rows if r.pre_chi_survivor]
    assert pre_chi == [(8, 1), (10, 0)]
    assert all(r.chi_h == 0 for r in rows if r.pre_chi_survivor)
    assert not any(r.admitted for r in rows)


def test_enumerate_g3_bound_18():
    rows = enumerate_feasible(ConstraintProfile(3, 18))
    pre_chi = [counts_tuple(r) for r in rows if r.pre_chi_survivor]
    assert pre_chi == [(16, 1)]
    assert not any(r.admitted for r in rows)


def test_enumerate_g4_bound_24():
    rows = enumerate_feasible(ConstraintProfile(4, 24))
    admitted = {counts_tuple(r): int(r.sigma) for r in rows if r.admitted}
    assert admitted == {(16, 0, 5): -5, (16, 4, 2): -6, (18, 2, 3): -7}
    pre_chi = [counts_tuple(r) for r in rows if r.pre_chi_survivor]
    assert pre_chi == [
        (16, 0, 5), (16, 1, 2), (16, 4, 2),
        (18, 0, 0), (18, 2, 3), (18, 3, 0), (20, 1, 1),
    ]
    # the (18,0,0) row: integral sigma -10, chi_h = -1, fails only chi_h
    extra = next(r for r in rows if counts_tuple(r) == (18, 0, 0))
    assert extra.verdict == REJECT_CHI_H
    assert extra.sigma == Fraction(-10) and extra.chi_h == -1


def test_enumerate_lexicographic_and_complete():
    rows = enumerate_feasible(ConstraintProfile(4, 10))
    tuples = [counts_tuple(r) for r in rows]
    assert tuples == sorted(tuples)
    # every nontrivial vector below the bound appears exactly once
    expected = [
        (n, s1, s2)
        for n in range(10)
        for s1 in range(10)
        for s2 in range(10)
        if 1 <= n + s1 + s2 < 10
    ]
    assert tuples == sorted(expected)


@pytest.mark.parametrize("g,bound", [(1, 40), (2, 40), (3, 40), (4, 40), (5, 40)])
def test_enumerate_matches_naive_oracle(g, bound):
    rows = enumerate_feasible(ConstraintProfile(g, bound))
    got = [(counts_tuple(r), r.verdict) for r in rows]
    assert got == sorted(oracle_rows(g, bound))


@pytest.mark.parametrize("g,bound", [(6, 30), (7, 20), (8, 16), (9, 14), (10, 13)])
def test_enumerate_higher_genus(g, bound):
    rows = enumerate_feasible(ConstraintProfile(g, bound))
    width = g // 2
    assert len(rows) == comb(bound + width, width + 1) - 1
    tuples = [counts_tuple(r) for r in rows]
    assert all(a < b for a, b in zip(tuples, tuples[1:]))
    survivors = [r for r in rows if r.pre_chi_survivor]
    for row in survivors:
        n, *s = counts_tuple(row)
        assert oracle_verdict(g, n, s, bound) == row.verdict
    # n >= 4g needs bound > 4g; of these bounds only g=6 B=30 exceeds 4g.
    assert bool(survivors) == (bound > 4 * g)


@pytest.mark.parametrize(
    "g,bound", [(1, 30), (2, 30), (3, 30), (4, 30), (5, 24), (6, 20), (8, 14)]
)
def test_trusted_rows_match_checking_constructor(g, bound):
    # The enumerator builds counts without __post_init__; the public
    # constructor, with every check, must give the same object, field by
    # field and with the same exact types.
    p = ConstraintProfile(g, bound)
    for row in enumerate_feasible(p):
        checked = FiberCounts(g, row.counts.n, row.counts.s)
        assert row.counts == checked
        for f in fields(FiberCounts):
            got, want = getattr(row.counts, f.name), getattr(checked, f.name)
            assert got == want and type(got) is type(want), f.name
        assert type(row.counts.genus) is int and type(row.counts.n) is int
        assert type(row.counts.s) is tuple
        assert all(type(x) is int for x in row.counts.s)
        checked_row = check_counts(row.counts, p)
        assert checked_row == row and hash(checked_row) == hash(row)
        assert repr(checked_row) == repr(row)


def layout_cases():
    trusted = enumerate_feasible(ConstraintProfile(4, 24))
    admitted = next(r for r in trusted if r.admitted)
    checked = check_counts(FiberCounts.of(4, 16, 0, 5), ConstraintProfile(4, 24))
    parsed = parse_mono(
        "genus 1\nboundary 0\ncurve a kind nonsep hom 1 0\n"
        "curve b kind nonsep hom 0 1\ntwist a\ntwist b\ntarget identity\n"
    )
    return [
        ("trusted counts", admitted.counts),
        ("trusted row", admitted),
        ("checked counts", FiberCounts.of(4, 16, 0, 5)),
        ("checked row", checked),
        ("constructed row", FeasibilityRow(FiberCounts.of(2, 8, 1), REJECT_CHI_H)),
        ("parsed letter", parsed.letters[0]),
        ("curve with class and word", CurveClass(
            "c", NONSEP, homology=HomologyClass((1, 0)), word=parse_word("a1")
        )),
        ("homology class", HomologyClass((1, -2, 0, 3))),
        ("minted curve", hurwitz_move(parsed, 1).curve("a@h1")),
    ]


@pytest.mark.parametrize("obj", [pytest.param(obj, id=label) for label, obj in layout_cases()])
def test_rows_and_counts_are_slotted_and_frozen(obj):
    assert not hasattr(obj, "__dict__")
    for f in fields(obj):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))
    # No slot, no __dict__: a new attribute cannot land anywhere.  The
    # exception type differs between Python versions for slotted frozen
    # dataclasses (TypeError from the generated __setattr__ on 3.11).
    with pytest.raises((FrozenInstanceError, AttributeError, TypeError)):
        obj.extra = 1
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert twin == obj and hash(twin) == hash(obj) and repr(twin) == repr(obj)
        assert type(twin) is type(obj)


def test_row_repr():
    row = next(r for r in enumerate_feasible(ConstraintProfile(4, 24)) if r.admitted)
    assert repr(row) == (
        "FeasibilityRow(counts=FiberCounts(genus=4, n=16, s=(0, 5)), "
        "verdict='admitted')"
    )


def test_replace_still_checks_counts():
    trusted = next(r.counts for r in enumerate_feasible(ConstraintProfile(2, 14)))
    for counts in (trusted, FiberCounts.of(2, 8, 1)):
        with pytest.raises(ValueError, match="nonnegative"):
            replace(counts, n=-1)
        with pytest.raises(ValueError, match="separating"):
            replace(counts, s=(1, 1))


@pytest.mark.parametrize(
    "g,bound", [(2, 30), (3, 30), (4, 30), (5, 24), (7, 20), (10, 14)]
)
def test_row_fractions_match_invariants_closed_forms(g, bound):
    # A row's sigma is read from hyperelliptic_signature, the one closed
    # form; the independent numerator is in the fraction-route test.
    for row in enumerate_feasible(ConstraintProfile(g, bound)):
        sigma = hyperelliptic_signature(row.counts)[0]
        assert row.sigma == sigma and type(row.sigma) is Fraction
        assert row.sigma_integral == (sigma.denominator == 1)
        assert row.chi_h == (euler_characteristic(row.counts) + sigma) / 4


@pytest.mark.parametrize("g", range(1, 8))
def test_row_count_closed_form(g):
    for bound in range(1, 16):
        p = ConstraintProfile(g, bound)
        # Counted by iterating: len() of the lazy rows is row_count itself.
        assert row_count(p) == sum(1 for _ in enumerate_feasible(p))


@pytest.mark.parametrize("g,bound", [(1, 20), (2, 14), (4, 24), (5, 30), (7, 16)])
def test_lazy_rows_are_sized_and_reiterable(g, bound):
    p = ConstraintProfile(g, bound)
    rows = enumerate_feasible(p)
    assert len(rows) == row_count(p)
    assert iter(rows) is not iter(rows)  # each pass is a fresh generator
    # Each row equals check_counts(row.counts, p): see
    # test_trusted_rows_match_checking_constructor.
    first, second = list(rows), list(rows)
    assert first == second and len(first) == len(rows)


@pytest.mark.parametrize(
    "args",
    [((2, 8, (1,)), "bogus"), ((2, 8, (1,)), REJECT_CHI_H), (FiberCounts.of(2, 8, 1), "bogus"),
     (FiberCounts.of(2, 8, 1), None), (None, ADMITTED)],
)
def test_row_constructor_checks_counts_and_verdict(args):
    # FeasibilityRow((2, 8, (1,)), "bogus") used to build, and .sigma then
    # died with AttributeError.
    with pytest.raises(ValueError, match="a row needs FiberCounts and a verdict"):
        FeasibilityRow(*args)


def test_row_constructor_accepts_every_stage():
    counts = FiberCounts.of(2, 8, 1)
    for verdict in (ADMITTED, REJECT_TOTAL, REJECT_N_LOWER, REJECT_CONGRUENCE,
                    REJECT_SIGMA_INTEGRAL, REJECT_SIGMA_BOUND, REJECT_CHI_H):
        assert FeasibilityRow(counts, verdict).verdict == verdict


# -- a second route to the verdicts ------------------------------------------------
# The lazy rows decide stage 2 once per n and call _verdict for n >= 4g;
# _verdict applied row by row and the naive oracle are two other routes to
# the same histogram and survivor list.


def oracle_histogram(g, bound):
    """Histogram and pre-chi survivors from the oracle, vector by vector for
    n >= 4g; the n < 4g vectors are all n-lower and only counted."""
    width = g // 2
    hist = Counter()
    hist[REJECT_N_LOWER] = sum(
        comb(bound - 1 - n + width, width) for n in range(min(4 * g, bound))
    ) - 1  # the trivial vector is not a row
    survivors = []
    for n in range(4 * g, bound):
        for s in product(range(bound - n), repeat=width):
            if n + sum(s) < bound:
                verdict = oracle_verdict(g, n, s, bound)
                hist[verdict] += 1
                if verdict in (ADMITTED, REJECT_CHI_H):
                    survivors.append(((n, *s), verdict))
    return {k: v for k, v in hist.items() if v}, survivors


def lazy_histogram(g, bound):
    """Histogram and pre-chi survivors of the lazy rows, each row with
    n >= 4g checked against _verdict on the way; the n < 4g rows are
    checked through the n-lower count, which the oracle forms alone."""
    hist = Counter()
    survivors = []
    for row in enumerate_feasible(ConstraintProfile(g, bound)):
        n, s = row.counts.n, row.counts.s
        if n >= 4 * g:
            assert row.verdict == _verdict(g, n, _s_terms(g, s), bound)
        hist[row.verdict] += 1
        if row.pre_chi_survivor:
            survivors.append((counts_tuple(row), row.verdict))
    return dict(hist), survivors


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_lazy_rows_match_row_kernel_and_oracle(data):
    g = data.draw(st.integers(1, 8), label="g")
    bound = data.draw(st.integers(1, 4 * g + 15), label="bound")
    hist, survivors = lazy_histogram(g, bound)
    assert sum(hist.values()) == row_count(ConstraintProfile(g, bound))
    assert (hist, survivors) == oracle_histogram(g, bound)


def test_lazy_rows_match_oracle_where_high_genus_survivors_exist():
    hist, survivors = lazy_histogram(8, 36)  # 35 is the least g = 8 bound with a survivor
    assert len(survivors) == 3 and (hist, survivors) == oracle_histogram(8, 36)


ENUMERATE_REFS = Path(__file__).resolve().parents[1] / "bench" / "refs" / "enumerate.json"


def test_lazy_rows_match_recorded_refs():
    refs = json.loads(ENUMERATE_REFS.read_text())["rows"]
    assert refs
    for key, ref in refs.items():
        rows = list(enumerate_feasible(ConstraintProfile(*map(int, key.split(",")))))
        assert dict(Counter(r.verdict for r in rows)) == ref["hist"], key
        assert [list(counts_tuple(r)) for r in rows if r.pre_chi_survivor] == ref["pre_chi"], key
        assert [list(counts_tuple(r)) for r in rows if r.admitted] == ref["admitted"], key


# -- enumerated rows whose counts were never read -------------------------------
# An enumerated row builds its counts on first read; every part of the row
# contract must hold on a row that has not been read yet.


def unread_rows(p, want):
    """A fresh pass of enumerated rows, each beside its checked twin."""
    return zip(enumerate_feasible(p), want, strict=True)


@pytest.mark.parametrize("g,bound", [(1, 14), (2, 14), (3, 18), (4, 24), (6, 20)])
def test_unread_enumerated_rows_keep_the_row_contract(g, bound):
    p = ConstraintProfile(g, bound)
    want = [check_counts(FiberCounts(g, n, tuple(s)), p) for (n, *s), _ in oracle_rows(g, bound)]
    for row, twin in unread_rows(p, want):
        assert hash(row) == hash(twin)
    for row, twin in unread_rows(p, want):
        assert row == twin
    for row, twin in unread_rows(p, want):
        assert twin == row
    for row, twin in unread_rows(p, want):
        assert repr(row) == repr(twin)
    for copier in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        for row, twin in unread_rows(p, want):
            copied = copier(row)
            assert type(copied) is FeasibilityRow
            assert copied == twin and hash(copied) == hash(twin)
    for row, twin in unread_rows(p, want):
        verdict = REJECT_CHI_H if twin.admitted else ADMITTED
        assert replace(row, verdict=verdict) == FeasibilityRow(twin.counts, verdict)
    for row, twin in unread_rows(p, want):
        assert [f.name for f in fields(row)] == ["counts", "verdict"]
        counts = row.counts
        assert counts == twin.counts and row.counts is counts
    for row, twin in unread_rows(p, want):
        with pytest.raises(AttributeError, match="'nope'"):
            row.nope
        assert row.counts == twin.counts


def test_no_class_in_the_row_mro_defines_getattr():
    # A __getattr__ anywhere in the MRO sends every attribute read on every
    # row through the fallback hook, not only the first counts read.
    assert [k for k in FeasibilityRow.__mro__ if "__getattr__" in vars(k)] == []


def test_counts_descriptor_reads_on_the_class_and_keeps_the_fields():
    descriptor = FeasibilityRow.counts
    assert hasattr(type(descriptor), "__get__") and hasattr(type(descriptor), "__set__")
    assert [f.name for f in fields(FeasibilityRow)] == ["counts", "verdict"]


def test_verdict_only_pass_builds_no_counts(monkeypatch):
    built = []
    trusted_genus, checked = feasibility._set_genus, FiberCounts.__post_init__

    def count_trusted(counts, g):
        built.append("trusted")
        trusted_genus(counts, g)

    def count_checked(counts):
        built.append("checked")
        checked(counts)

    monkeypatch.setattr(feasibility, "_set_genus", count_trusted)
    monkeypatch.setattr(FiberCounts, "__post_init__", count_checked)
    rows = enumerate_feasible(ConstraintProfile(5, 30))
    hist = Counter(row.verdict for row in rows)
    assert sum(hist.values()) == len(rows) and hist[ADMITTED] and built == []
    row = next(iter(rows))
    assert row.counts is row.counts and built == ["trusted"]


def test_enumerated_rows_hold_one_private_slot():
    slots = [name for k in FeasibilityRow.__mro__ for name in vars(k).get("__slots__", ())]
    private = sorted(set(slots) - {"counts", "verdict"})
    assert len(slots) == 3 and len(private) == 1 and private[0].startswith("_")
    for row in enumerate_feasible(ConstraintProfile(4, 24)):
        getattr(row, private[0])


# -- the lexicographic blocks ---------------------------------------------------
# The product oracle costs (budget + 1)^w tuples for width w = g // 2, so
# widths 5 and 6 (g = 10..12) stop below budget 25, at under 2 million.
BLOCK_BUDGETS = {0: 25, 1: 25, 2: 25, 3: 25, 4: 25, 5: 14, 6: 10}


@pytest.mark.parametrize("g", range(1, 13))
def test_blocks_match_product_oracle(g):
    width, top = g // 2, BLOCK_BUDGETS[g // 2]
    every = [s for s in product(range(top + 1), repeat=width) if sum(s) <= top]
    for budget in range(-1, top + 1):
        blocks = _blocks(g, budget)
        flat = [entry for _, block in blocks for entry in block]
        assert flat == [(g, s, *_s_terms(g, s)) for s in every if sum(s) <= budget]
        prefixes = [block[0][1][:-1] for _, block in blocks]
        assert len(set(prefixes)) == len(prefixes)  # one block per prefix
        for (t, block), prefix in zip(blocks, prefixes):
            assert t == sum(prefix)
            assert all(entry[1][:-1] == prefix for entry in block)
            for room in range(budget + 3):
                below = [entry for entry in block if entry[2] < room]
                assert list(block[: room - t] if t < room else ()) == below


def naive_floor(g, witness):
    for t in range(4 * g, witness):
        for s in product(range(t - 4 * g + 1), repeat=g // 2):
            n = t - sum(s)
            if n >= 4 * g and oracle_verdict(g, n, s, witness) == ADMITTED:
                return t
    return witness


@pytest.mark.parametrize("g", range(1, 11))
def test_hyperelliptic_floor_matches_naive_scan(g):
    # From g = 4 on the first admitted total is 4g + 5, so 4g + 5 is a
    # witness with nothing admitted below it and 4g + 6 the first above it.
    for witness in (1, 4 * g, 4 * g + 1, 4 * g + 5, 4 * g + 6, 4 * g + 9, 4 * g + 12):
        assert _hyperelliptic_floor(g, witness) == naive_floor(g, witness), witness


def test_admitted_rows_have_consistent_betti_arithmetic():
    from lefschetz.invariants import chi_and_betti, euler_characteristic

    for g, bound in ((2, 40), (3, 40), (4, 40), (5, 40)):
        for row in enumerate_feasible(ConstraintProfile(g, bound)):
            if not row.admitted:
                continue
            e = euler_characteristic(row.counts)
            sigma = int(row.sigma)
            assert e >= 2
            assert (e + sigma) % 4 == 0
            report = chi_and_betti(e, sigma)
            assert report.feasible
            assert report.b2plus >= 0 and report.b2minus >= 0


def test_admitted_rows_revalidate_independently():
    # soundness pass separate from the enumerator loop
    for g, bound in ((2, 14), (3, 18), (4, 24), (4, 40), (5, 36)):
        for row in enumerate_feasible(ConstraintProfile(g, bound)):
            if row.admitted:
                n, *s = counts_tuple(row)
                assert oracle_verdict(g, n, s, bound) == ADMITTED
                q = 2 * g + 1
                sigma_num = -(g + 1) * n + sum(
                    (4 * h * (g - h) - q) * sh for h, sh in enumerate(s, 1)
                )
                assert row.sigma == Fraction(sigma_num, q)


# -- min_fiber_bounds --------------------------------------------------------------


def test_bounds_g1_and_g2_exact():
    b1 = min_fiber_bounds(1)
    assert (b1.n_exact, b1.m_exact) == (12, 12)
    b2 = min_fiber_bounds(2)
    assert (b2.n_exact, b2.m_exact) == (14, 14)


def test_bounds_g3():
    b = min_fiber_bounds(3)
    assert (b.n_lower, b.n_upper) == (12, 18)
    assert b.m_exact == 18


def test_bounds_g4():
    b = min_fiber_bounds(4)
    assert (b.n_lower, b.n_upper) == (16, 23)
    assert (b.m_lower, b.m_upper) == (21, 24)
    assert b.n_exact is None and b.m_exact is None


def test_bounds_witness_counts_fibers_not_boundary_letters():
    # W with one boundary twist appended still has 18 singular fibers.
    f = get_entry("W").factorization
    f = replace(
        f,
        curves=f.curves + (CurveClass("delta1", BOUNDARY, boundary_index=1),),
        letters=f.letters + (TwistLetter("delta1"),),
    )
    assert letter_counts(f).total == 18 < len(f.letters)
    b = min_fiber_bounds(3)
    assert [witness.fibers for witness in b.witnesses] == [18]
    assert (b.n_upper, b.m_upper, b.m_exact) == (18, 18, 18)


def test_recorded_witnesses_match_their_catalog_entries():
    # The feasibility layer records the totals as ints and never loads the
    # catalog; each witness's name starts with the name of its entry.
    for g in (3, 4):
        for witness in min_fiber_bounds(g).witnesses:
            entry = get_entry(witness.name.split()[0])
            assert witness.fibers == entry.counts.total, witness.name
            assert witness.hyperelliptic == entry.hyperelliptic, witness.name


def test_bounds_high_genus_generic():
    b = min_fiber_bounds(7)
    assert (b.n_lower, b.n_upper) == (28, None)
    assert (b.m_lower, b.m_upper) == (29, None)
    assert any("open question" in note for note in b.notes)


def note_vectors(note):
    return [tuple(map(int, m.split(","))) for m in re.findall(r"\((\d+(?:,\d+)*)\)", note)]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_bounds_floor_notes_match_enumerator(g):
    # The notes are fixed text; recompute what each one states.
    report = min_fiber_bounds(g)
    [note] = [x for x in report.notes if re.search(r"below \d+ fibers", x)]
    bound = int(re.search(r"below (\d+) fibers", note).group(1))
    assert bound == report.m_upper
    rows = enumerate_feasible(ConstraintProfile(g, bound))
    admitted = [counts_tuple(r) for r in rows if r.admitted]
    pre_chi = [r for r in rows if r.pre_chi_survivor]
    vectors = note_vectors(note)
    if "admitted counts are" in note:
        assert vectors == admitted
        totals = re.search(r"with totals (.*)$", note).group(1)
        assert [int(t) for t in re.findall(r"\d+", totals)] == [sum(v) for v in vectors]
    elif "the sigma constraints" in note:
        assert vectors == [counts_tuple(r) for r in pre_chi]
        chi_h = int(re.search(r"chi_h = (-?\d+)", note).group(1))
        assert all(r.chi_h == chi_h for r in pre_chi)
        assert admitted == []
    else:
        assert note.startswith("no admissible count vector")
        assert vectors == [] and admitted == []


@pytest.mark.parametrize("g", range(1, 8))
def test_hyperelliptic_floor_matches_enumerator(g):
    # Below the enumeration bound only the total stage depends on it, so
    # one enumeration gives the admitted rows below every witness w.
    top = 4 * g + 8
    rows = enumerate_feasible(ConstraintProfile(g, top))
    totals = [r.counts.total for r in rows if r.admitted]
    for w in range(1, top + 1):
        assert _hyperelliptic_floor(g, w) == min((t for t in totals if t < w), default=w)


def test_bounds_validation():
    with pytest.raises(ValueError):
        min_fiber_bounds(0)


@pytest.mark.parametrize("g", [4.0, 7.5, "4"])
def test_bounds_genus_must_be_an_integer(g):
    with pytest.raises(ValueError, match=f"genus values must be integers, got {g!r}"):
        min_fiber_bounds(g)
