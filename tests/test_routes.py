"""The route ledger: each quantity the CLI prints, with the routes that
compute it and the inputs each route runs on.

A route is a dotted path to a callable and a function of (that callable,
one input) that reads the quantity off its result.  Paths under
``lefschetz.`` are library routes; the others are references that live in
the tests.  Wherever two routes run on the same input their values must be
equal.  A row in which no input runs on two library routes has one route
per input as far as a user of the CLI can see, and carries a one-line
reason; a row with two library routes on some input carries none.  A change
that adds a route moves its row; a change that drops one edits this table.
"""

import importlib
from dataclasses import dataclass
from itertools import product
from typing import Callable

import pytest

from lefschetz.catalog import get_entry, pi1_presentation
from lefschetz.factorization import MissingHomology
from lefschetz.feasibility import ADMITTED
from lefschetz.invariants import FiberCounts
from lefschetz.mono import parse_mono

CATALOG = ("T", "V2", "V4", "W", "W1", "W2")
HYPERELLIPTIC = ("T", "V2", "V4", "W", "W2")
WORDED = ("W1", "W2")  # the entries whose letters carry printed pi_1 words

# Small words whose letters all carry classes, so the homological routes
# run on them; the catalog entries have kind-only letters.
MONO = {
    "torus relator": (
        "genus 1\nboundary 0\ncurve a kind nonsep hom 1 0\n"
        "curve b kind nonsep hom 0 1\n" + "twist a\ntwist b\n" * 6 + "target identity\n"
    ),
    "torus fifth power": (
        "genus 1\nboundary 0\ncurve a kind nonsep hom 1 0\n"
        "curve b kind nonsep hom 0 1\n" + "twist a\ntwist b\n" * 5 + "target identity\n"
    ),
    "genus-2 braid with a separating letter": (
        "genus 2\nboundary 0\ncurve a kind nonsep hom 1 0 0 0\n"
        "curve b kind nonsep hom 0 1 0 0\ncurve d kind sep 1\n"
        "twist a\ntwist b\ntwist a\ntwist b -\ntwist a -\ntwist b -\ntwist d\n"
        "target identity\n"
    ),
}


def _factorization(name):
    return parse_mono(MONO[name]) if name in MONO else get_entry(name).factorization


def _is_identity(m):
    return m == tuple(tuple(int(i == j) for j in range(len(m))) for i in range(len(m)))


def _relator_status(check):
    """True or False, or "indeterminate" when a letter has no class, as
    ``verify`` prints it."""
    try:
        return check()
    except MissingHomology:
        return "indeterminate"


def _invariants(report):
    return report.e, report.chi_h, report.b2plus, report.b2minus


def _bounds(report):
    return report.n_lower, report.n_upper, report.m_lower, report.m_upper


# The witnesses of N_g and M_g that are catalog entries: (best, hyperelliptic).
WITNESSES = {3: ("W", "W"), 4: ("W1", "W2")}


def _bounds_by_oracle(verdict, g):
    """(N_g lower, N_g upper, M_g lower, M_g upper) with the upper bounds
    read from the witnesses' audited counts and M_g's floor found by trying
    every count vector of each total from 4g up, under the Fraction-route
    verdict; N_g >= 4g for g >= 3."""
    best, hyperelliptic = (get_entry(name).counts.total for name in WITNESSES[g])
    floor = next(
        (
            t
            for t in range(4 * g, hyperelliptic)
            for s in product(range(t - 4 * g + 1), repeat=g // 2)
            if sum(s) <= t - 4 * g
            and verdict(FiberCounts(g, t - sum(s), s), hyperelliptic) == ADMITTED
        ),
        hyperelliptic,
    )
    return 4 * g, best, floor, hyperelliptic


@dataclass(frozen=True)
class Route:
    path: str  # importable: "module.attribute"
    inputs: tuple
    value: Callable  # (the callable at path, one input) -> the quantity


@dataclass(frozen=True)
class Row:
    routes: tuple[Route, ...]
    reason: str | None = None  # why no input runs on two library routes


LEDGER = {
    "counts": Row((
        Route("lefschetz.factorization.letter_counts", CATALOG + tuple(MONO),
              lambda fn, x: fn(_factorization(x))),
        Route("lefschetz.catalog.get_entry", CATALOG, lambda fn, x: fn(x).counts),
    )),
    "sigma": Row(
        (
            Route("lefschetz.invariants.hyperelliptic_signature", HYPERELLIPTIC,
                  lambda fn, x: fn(get_entry(x).counts)[0]),
            Route("lefschetz.invariants.endo_nagami_total", ("W1",),
                  lambda fn, x: fn(get_entry(x).ledger)),
        ),
        "one route per entry: the closed form if hyperelliptic, else W1's ledger",
    ),
    "e_chi_h_betti": Row(
        (
            Route("lefschetz.catalog.invariant_report", CATALOG,
                  lambda fn, x: _invariants(fn(x))),
        ),
        "one closed formula each, in the counts and sigma",
    ),
    "H_1": Row(
        (
            Route("lefschetz.fpgroup.abelianization", WORDED,
                  lambda fn, x: fn(pi1_presentation(x)).divisors),
        ),
        "the Smith form of the presented group, which is H_1 of that group only",
    ),
    "pi_1_order": Row(
        (
            Route("lefschetz.fpgroup.todd_coxeter", WORDED,
                  lambda fn, x: fn(pi1_presentation(x)).order),
        ),
        "HLT coset enumeration is the only enumerator",
    ),
    # Both library routes build the product with twists._packed_product;
    # the dense reference in the tests shares nothing with them.
    "relator_status": Row((
        Route("lefschetz.twists.verify_homological_relator", CATALOG + tuple(MONO),
              lambda fn, x: _relator_status(lambda: fn(_factorization(x)).matrix_ok)),
        Route("lefschetz.twists.factorization_matrix", CATALOG + tuple(MONO),
              lambda fn, x: _relator_status(lambda: _is_identity(fn(_factorization(x))))),
        Route("test_twists.dense_factorization_matrix", tuple(MONO),
              lambda fn, x: _is_identity(fn(_factorization(x)))),
    )),
    "N_g_M_g_bounds": Row(
        (
            Route("lefschetz.feasibility.min_fiber_bounds", (1, 2, 3, 4, 5, 6),
                  lambda fn, g: _bounds(fn(g))),
            Route("test_feasibility.fraction_route_verdict", tuple(WITNESSES),
                  _bounds_by_oracle),
        ),
        "the verdict kernel is the one library route; g = 3, 4 are re-derived in tests",
    ),
    "homeomorphism_label": Row(
        (
            Route("lefschetz.catalog.invariant_report", CATALOG,
                  lambda fn, x: fn(x).candidate),
        ),
        "a b2+ = 1 test on the Betti numbers; nothing certifies the type",
    ),
}


def _resolve(path):
    module, _, name = path.rpartition(".")
    return getattr(importlib.import_module(module), name)


@pytest.mark.parametrize("quantity", LEDGER)
def test_routes_agree_wherever_two_run(quantity):
    row = LEDGER[quantity]
    values: dict = {}
    for route in row.routes:
        fn = _resolve(route.path)
        assert callable(fn), route.path
        assert route.inputs, route.path
        for x in route.inputs:
            values.setdefault(x, {})[route.path] = route.value(fn, x)
    for x, by_route in values.items():
        first = next(iter(by_route.values()))
        assert all(v == first for v in by_route.values()), (x, by_route)
    checked = any(
        sum(path.startswith("lefschetz.") for path in by_route) > 1
        for by_route in values.values()
    )
    if checked:
        assert row.reason is None, quantity
    else:
        assert row.reason and "\n" not in row.reason, quantity


def test_ledger_values_on_known_inputs():
    # Spot values from the paper and README, so a route that runs but
    # reads the wrong field fails here.
    counts = LEDGER["counts"].routes[0]
    assert counts.value(_resolve(counts.path), "W1") == FiberCounts.of(4, 18, 5, 0)
    status = LEDGER["relator_status"].routes[0]
    run = _resolve(status.path)
    assert [status.value(run, x) for x in MONO] == [True, False, True]
    assert status.value(run, "W2") == "indeterminate"
    order = LEDGER["pi_1_order"].routes[0]
    assert [order.value(_resolve(order.path), x) for x in WORDED] == [1, 1]
    bounds = LEDGER["N_g_M_g_bounds"].routes[0]
    assert bounds.value(_resolve(bounds.path), 3) == (12, 18, 18, 18)
    assert bounds.value(_resolve(bounds.path), 4) == (16, 23, 21, 24)
