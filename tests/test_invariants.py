import random
from fractions import Fraction

import pytest

from lefschetz.invariants import (
    LEDGER_BLOCK,
    LEDGER_MATSUMOTO_EVEN,
    LEDGER_SEPARATING,
    FiberCounts,
    LedgerEntry,
    chi_and_betti,
    endo_nagami_total,
    euler_characteristic,
    exact_ints,
    hyperelliptic_signature,
    min_nonseparating_bound,
    signature_bound_check,
    twist_count_congruence,
)
from lefschetz.invariants import _s_terms
from test_surface import FLOAT_INDEX, RAISING_INDEX


def test_fiber_counts_validation():
    FiberCounts(1, 12)
    FiberCounts(4, 18, (6, 0))
    assert FiberCounts(4, 18, iter((6, 0))).s == (6, 0)  # any iterable
    with pytest.raises(ValueError):
        FiberCounts(1, 12, (1,))  # s must be empty for g = 1
    with pytest.raises(ValueError):
        FiberCounts(4, 18, (6,))  # needs two separating counts
    with pytest.raises(ValueError):
        FiberCounts(2, -1, (2,))
    with pytest.raises(ValueError):
        FiberCounts(2, 0, (0,))  # nontrivial
    with pytest.raises(ValueError, match="1.5"):
        FiberCounts(2, 8, (1.5,))  # no silent truncation to 1
    with pytest.raises(ValueError, match="8.5"):
        FiberCounts(2, 8.5, (1,))
    with pytest.raises(ValueError, match="must be integers, got True"):
        FiberCounts(4, True, (0, 0))  # not n = 1
    with pytest.raises(ValueError, match="1.5"):
        FiberCounts(0, 1.5, ())  # the integer read comes before the genus check
    for bad in (FLOAT_INDEX, RAISING_INDEX):
        # a StopIteration from the constructor would end map's list quietly
        with pytest.raises(ValueError, match=repr(bad)):
            list(map(lambda n: FiberCounts(2, n, (0,)), [bad]))


def test_exact_ints_names_the_first_bad_value():
    with pytest.raises(ValueError, match="x must be integers, got 1.5"):
        exact_ints((1.5, True), "x")


def test_fiber_counts_keep_an_int_tuple():
    s = (6, 0)
    assert FiberCounts(4, 18, s).s is s  # no copy of a genus-sized vector


def test_fiber_counts_of_pads():
    assert FiberCounts.of(4, 18, 5) == FiberCounts(4, 18, (5, 0))
    assert FiberCounts.of(5, 20) == FiberCounts(5, 20, (0, 0))


def test_euler_characteristic():
    assert euler_characteristic(FiberCounts.of(4, 18, 5)) == 11
    assert euler_characteristic(FiberCounts.of(4, 18, 6, 0)) == 12
    assert euler_characteristic(FiberCounts(1, 12)) == 12


def test_hyperelliptic_signature_values():
    sigma, integral = hyperelliptic_signature(FiberCounts.of(4, 18, 6, 0))
    assert (sigma, integral) == (Fraction(-8), True)
    sigma, integral = hyperelliptic_signature(FiberCounts.of(3, 12, 6))
    assert (sigma, integral) == (Fraction(-6), True)
    # frozen from exact evaluation: -(3/5)*8 + (4*1*1/5 - 1)*6 = -6,
    # matching sigma(CP^2 # 7 CP^2bar) = 1 - 7
    sigma, integral = hyperelliptic_signature(FiberCounts.of(2, 8, 6))
    assert (sigma, integral) == (Fraction(-6), True)


def test_hyperelliptic_signature_nonintegral():
    sigma, integral = hyperelliptic_signature(FiberCounts.of(2, 7, 0))
    assert sigma == Fraction(-21, 5)
    assert not integral


def test_hyperelliptic_signature_matches_single_fraction_form():
    # property from the closed form: equals
    # (-(g+1) n + sum_h (4h(g-h) - (2g+1)) s_h) / (2g+1) exactly
    for counts in (
        FiberCounts.of(2, 8, 1),
        FiberCounts.of(3, 16, 1),
        FiberCounts.of(4, 16, 0, 5),
        FiberCounts.of(5, 23, 4, 1),
    ):
        g, q = counts.genus, 2 * counts.genus + 1
        expected = Fraction(
            -(g + 1) * counts.n
            + sum(
                (4 * h * (g - h) - q) * s for h, s in enumerate(counts.s, start=1)
            ),
            q,
        )
        assert hyperelliptic_signature(counts)[0] == expected


def test_hyperelliptic_signature_builds_one_fraction(monkeypatch):
    # One Fraction of the integer numerator at any genus, not one per s_h.
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr("lefschetz.invariants._fraction", CountingFraction)
    g = 10**5
    counts = FiberCounts.of(g, 3, 1, *([0] * (g // 2 - 2)), 2)
    sigma, integral = hyperelliptic_signature(counts)
    q, h = 2 * g + 1, g // 2
    numerator = -(g + 1) * 3 + (4 * (g - 1) - q) + 2 * (4 * h * (g - h) - q)
    assert len(built) == 1
    assert sigma == Fraction(numerator, q)
    assert integral == (numerator % q == 0)


def test_first_rational_puts_the_fraction_class_in_place():
    # fractions loads on the first rational; from then on the module-level
    # name is the class itself, so later calls pay no import.
    from lefschetz import invariants

    assert chi_and_betti(-5, -7).chi_h == Fraction(-3)
    assert invariants._fraction is Fraction


def test_s_terms_match_the_naive_sums():
    # _s_terms skips zero counts; most counts drawn here are zero
    rng = random.Random(2024)
    for _ in range(500):
        g = rng.randint(0, 40)
        s = tuple(rng.choice((0, 0, 0, rng.randint(1, 30))) for _ in range(g // 2))
        q = 2 * g + 1
        naive = (
            sum(s),
            sum(2 * h * (4 * h + 2) * count for h, count in enumerate(s, start=1)),
            sum((4 * h * (g - h) - q) * count for h, count in enumerate(s, start=1)),
        )
        assert _s_terms(g, s) == naive


def test_ledger_totals():
    ledger = [
        LedgerEntry(LEDGER_MATSUMOTO_EVEN, 1),
        LedgerEntry(LEDGER_BLOCK, 1, value=-6, label="W"),
        LedgerEntry(LEDGER_SEPARATING, -3),
    ]
    assert endo_nagami_total(ledger) == -7
    assert endo_nagami_total([LedgerEntry(LEDGER_SEPARATING, 1)]) == -1
    assert endo_nagami_total([]) == 0


def test_ledger_entry_validation():
    with pytest.raises(ValueError):
        LedgerEntry(LEDGER_MATSUMOTO_EVEN, 1, value=-4)
    with pytest.raises(ValueError):
        LedgerEntry(LEDGER_BLOCK, 1)
    with pytest.raises(ValueError):
        LedgerEntry("unknown", 1)


def test_chi_and_betti_exotic_pair():
    r = chi_and_betti(11, -7)
    assert (r.b2plus, r.b2minus) == (1, 8)
    assert r.candidate == "CP^2 # 8 CP^2bar"
    assert r.chi_h == 1
    r = chi_and_betti(12, -8)
    assert (r.b2plus, r.b2minus) == (1, 9)
    assert r.candidate == "CP^2 # 9 CP^2bar"
    r = chi_and_betti(4, 0)
    assert (r.b2plus, r.b2minus) == (1, 1)


def test_chi_and_betti_infeasible_is_data():
    r = chi_and_betti(3, -3)  # b2+ would be -1
    assert not r.feasible
    assert r.b2plus is None and r.candidate is None
    r = chi_and_betti(5, -2)  # parity failure
    assert not r.feasible


def test_chi_and_betti_consistency():
    r = chi_and_betti(11, -7)
    assert r.b2plus - r.b2minus == r.sigma
    assert r.b2plus + r.b2minus == r.e - 2
    assert 4 * r.chi_h == r.e + r.sigma


def test_twist_count_congruence():
    assert twist_count_congruence(FiberCounts.of(2, 8, 6))  # 80 = 0 mod 10
    assert twist_count_congruence(FiberCounts.of(3, 16, 1))  # 28 = 0 mod 28
    assert twist_count_congruence(FiberCounts.of(4, 18, 6, 0))  # 90 = 0 mod 18
    assert not twist_count_congruence(FiberCounts.of(4, 18, 5, 0))  # 78 mod 18 = 6
    assert not twist_count_congruence(FiberCounts.of(1, 11))
    assert twist_count_congruence(FiberCounts.of(1, 12))


def test_signature_bound_check():
    assert signature_bound_check(FiberCounts.of(4, 18, 6, 0), -8)
    assert signature_bound_check(FiberCounts.of(2, 8, 1), -5)
    assert not signature_bound_check(FiberCounts.of(2, 4, 0), -3)


def test_min_nonseparating_bound():
    assert min_nonseparating_bound(2) == 8
    assert min_nonseparating_bound(3) == 12
    assert min_nonseparating_bound(4) == 16
    with pytest.raises(ValueError):
        min_nonseparating_bound(0)
