import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.catalog import pi1_presentation
from lefschetz.fpgroup import (
    AbelianInvariants,
    EnumerationResult,
    GroupPresentation,
    abelianization,
    quotient_by_cycles,
    surface_group,
    todd_coxeter,
)
from lefschetz.fpgroup import _smith_diagonal
from lefschetz.words import parse_word


def pres(gens, *relator_texts):
    return GroupPresentation(
        generators=tuple(gens.split()),
        relators=tuple(parse_word(t) for t in relator_texts),
    )


# -- presentations ------------------------------------------------------------


def test_presentation_rejects_unknown_generator():
    with pytest.raises(ValueError):
        pres("x", "x y")


@pytest.mark.parametrize("sign", [2, 0, -2, True, 1.0])
def test_presentation_rejects_sign_not_unit(sign):
    with pytest.raises(ValueError, match="'x'"):
        GroupPresentation(("x",), ((("x", sign),),))


def test_presentation_accepts_unit_signs():
    p = GroupPresentation(("x", "y"), ((("x", 1), ("y", -1), ("x", 1)),))
    assert p.relators == (parse_word("x y~ x"),)


def test_surface_group_g1():
    p = surface_group(1)
    assert p.generators == ("a1", "b1")
    assert p.relators == (parse_word("b1~ a1 b1 a1~"),)


def test_surface_group_g4_relator():
    p = surface_group(4)
    expected = parse_word(
        "b4~ b3~ b2~ b1~ a1 b1 a1~ a2 b2 a2~ a3 b3 a3~ a4 b4 a4~"
    )
    assert p.relators == (expected,)
    assert p.generators == ("a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4")


def test_quotient_by_cycles():
    p = surface_group(2)
    assert quotient_by_cycles(p, []) == p
    q = quotient_by_cycles(p, [parse_word("a1"), parse_word("b1 b2")])
    assert len(q.relators) == 3
    with pytest.raises(ValueError):
        quotient_by_cycles(p, [parse_word("a9")])


# -- abelianization -----------------------------------------------------------


def test_abelianization_cyclic():
    assert abelianization(pres("x", "x x x x x")).divisors == (5,)


def test_abelianization_surface_groups_free():
    for g in range(1, 7):
        inv = abelianization(surface_group(g))
        assert inv.divisors == (0,) * (2 * g)
        assert inv.order is None


def test_abelianization_trivial_group():
    inv = abelianization(pres("x y", "x", "y"))
    assert inv.divisors == ()
    assert inv.is_trivial
    assert inv.order == 1


def test_abelianization_mixed():
    # Z/2 x Z/6 x Z from rows (2,0,0), (0,6,0)
    inv = abelianization(pres("x y z", "x x", "y y y y y y"))
    assert inv.divisors == (2, 6, 0)


def test_abelianization_divisor_chain_normalizes():
    # <x, y | x^2 y^-3> has H1 = Z (the matrix (2, -3) has gcd 1)
    inv = abelianization(pres("x y", "x x y~ y~ y~"))
    assert inv.divisors == (0,)


def _sympy_divisors(rows, ncols):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    if not rows:
        return (0,) * ncols
    factors = [int(d) for d in invariant_factors(Matrix(rows), domain=ZZ)]
    torsion = tuple(d for d in factors if d > 1)
    rank = sum(1 for d in factors if d != 0)
    return torsion + (0,) * (ncols - rank)


@given(
    st.integers(1, 6),
    st.integers(0, 7),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_smith_form_against_sympy(ncols, nrows, data):
    rows = [
        [data.draw(st.integers(-12, 12)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    diagonal = _smith_diagonal([list(r) for r in rows])
    # chain property
    for a, b in zip(diagonal, diagonal[1:]):
        assert a > 0 and b % a == 0
    mine = tuple(d for d in diagonal if d > 1) + (0,) * (ncols - len(diagonal))
    assert mine == _sympy_divisors(rows, ncols)


# -- coset enumeration -----------------------------------------------------------


def test_cyclic_orders():
    for n in range(1, 13):
        p = pres("x", " ".join(["x"] * n))
        result = todd_coxeter(p, 10**6)
        assert result.order == n
        assert result.closed


def test_free_group_exceeds():
    result = todd_coxeter(pres("x"), max_cosets=50)
    assert result.order is None
    assert not result.closed
    assert result.max_cosets == 50


def test_exceeded_is_data_not_error():
    # Z = <x, y | y> has infinitely many cosets
    result = todd_coxeter(pres("x y", "y"), max_cosets=100)
    assert result.order is None
    assert result.cosets_defined >= 100


def test_small_finite_groups():
    # (2,3,3) triangle-like presentation of A4
    a4 = pres("x y", "x x", "y y y", "x y x y x y")
    assert todd_coxeter(a4, 10**4).order == 12
    s3 = pres("x y", "x x", "y y y", "x y x y")
    # <x,y | x^2, y^3, (xy)^2> is S3
    assert todd_coxeter(s3, 10**4).order == 6
    q8 = pres("x y", "x x x x", "x x y~ y~", "y~ x y x")
    assert todd_coxeter(q8, 10**4).order == 8


def test_order_divisible_by_abelianization_order():
    presentations = [
        pres("x", "x x x x x"),
        pres("x y", "x x", "y y y", "x y x y x y"),
        pres("x y", "x x", "y y y", "x y x y"),
        pres("x y", "x x x x", "x x y~ y~", "y~ x y x"),
    ]
    for p in presentations:
        k = todd_coxeter(p, 10**4).order
        h1 = abelianization(p).order
        assert k is not None and h1 is not None
        assert k % h1 == 0


def test_trivial_certificate_forces_trivial_h1():
    p = pres("x y", "x y", "x y y")
    assert todd_coxeter(p, 10**4).order == 1
    assert abelianization(p).is_trivial


def test_outcome_independent_of_relator_order_and_names():
    base = pres("x y", "x x", "y y y", "x y x y x y")
    rng = random.Random(7)
    for _ in range(6):
        relators = list(base.relators)
        rng.shuffle(relators)
        shuffled = GroupPresentation(base.generators, tuple(relators))
        assert todd_coxeter(shuffled, 10**4).order == 12
    renamed = pres("u v", "u u", "v v v", "u v u v u v")
    assert todd_coxeter(renamed, 10**4).order == 12
    # The scan never walks on from a new coset because relators are freely
    # reduced first, so an unreduced relator enumerates as its reduced twin.
    unreduced = pres("x y", "x y y~ x", "y y y", "x y x y x y")
    assert todd_coxeter(unreduced, 10**4) == todd_coxeter(base, 10**4)


def test_enumeration_deterministic():
    p = pres("x y", "x x", "y y y", "x y x y x y")
    a = todd_coxeter(p, 10**4)
    b = todd_coxeter(p, 10**4)
    assert a == b


def test_no_generators_is_trivial():
    p = GroupPresentation((), ())
    assert todd_coxeter(p, 10).order == 1


def test_max_cosets_validation():
    with pytest.raises(ValueError):
        todd_coxeter(pres("x", "x"), 0)


def test_abelian_invariants_order_helper():
    assert AbelianInvariants((2, 4)).order == 8
    assert AbelianInvariants((0,)).order is None
    assert AbelianInvariants(()).order == 1


def coxeter(n):
    """The Coxeter presentation of S_n on generators s1..s(n-1)."""
    names = [f"s{i}" for i in range(1, n)]
    relators = [f"{x} {x}" for x in names]
    relators += [f"{x} {y} {x} {y} {x} {y}" for x, y in zip(names, names[1:])]
    relators += [
        f"{x} {y} {x} {y}" for i, x in enumerate(names) for y in names[i + 2:]
    ]
    return pres(" ".join(names), *relators)


PRESENTATIONS = {
    "W1": lambda: pi1_presentation("W1"),
    "W2": lambda: pi1_presentation("W2"),
    **{f"S{n}": (lambda n=n: coxeter(n)) for n in range(4, 8)},
    **{f"surface{g}": (lambda g=g: surface_group(g)) for g in range(1, 4)},
    # random.Random(99)'s 4-generator draw: most cosets die in coincidences
    # and lookahead runs every few hundred definitions.
    "random4": lambda: pres(
        "y0 y1 y2 y3",
        "y3 y3 y3~ y0~ y3~",
        "y3 y3~ y3 y1 y0~ y1 y1 y2~",
        "y2 y0 y2~ y1~ y2 y0",
    ),
    # a length-1 relator acts at every coset, so lookahead skips none
    "unit_relator": lambda: pres("x y", "y"),
}

# Exact (order, cosets_defined) of the frozen HLT strategy.  Every row
# whose limit is below its cosets_defined hits the limit and runs
# lookahead; a change to scanning, filling or lookahead moves some of
# these counts.
PINNED_ENUMERATIONS = [
    ("W1", 50, 1, 91),
    ("W1", 100, 1, 140),
    ("W1", 150, 1, 242),
    ("W1", 10**6, 1, 422),
    ("W2", 50, 1, 74),
    ("W2", 100, 1, 105),
    ("W2", 150, 1, 161),
    ("W2", 10**6, 1, 300),
    ("S4", 10**6, 24, 35),
    ("S5", 10**6, 120, 220),
    ("S6", 10**6, 720, 1513),
    ("S7", 10**6, 5040, 12145),
    ("S5", 50, None, 62),
    ("S6", 200, None, 281),
    ("surface1", 2 * 10**3, None, 2351),
    ("surface2", 2 * 10**3, None, 2000),
    ("surface3", 5 * 10**3, None, 5000),
    # lookahead frees space once, then enumeration resumes
    ("surface2", 2 * 10**4, None, 20001),
    ("random4", 400, None, 26133),
    # limits on both sides of each size at which todd_coxeter's columns
    # grow (64 rows, then a quarter more: 80, 100, ..., 1438, 1797).
    # surface2 defines exactly its limit; S6 crosses the sizes while it
    # merges, and closes from limit 921 on.
    ("surface2", 64, None, 64),
    ("surface2", 65, None, 65),
    ("surface2", 80, None, 80),
    ("surface2", 81, None, 81),
    ("surface2", 100, None, 100),
    ("surface2", 101, None, 101),
    ("surface2", 125, None, 125),
    ("surface2", 126, None, 126),
    ("surface2", 156, None, 156),
    ("surface2", 157, None, 157),
    ("surface2", 195, None, 195),
    ("surface2", 196, None, 196),
    ("surface2", 243, None, 243),
    ("surface2", 244, None, 244),
    ("surface2", 303, None, 303),
    ("surface2", 304, None, 304),
    ("surface2", 378, None, 378),
    ("surface2", 379, None, 379),
    ("surface2", 472, None, 472),
    ("surface2", 473, None, 473),
    ("surface2", 590, None, 590),
    ("surface2", 591, None, 591),
    ("surface2", 737, None, 737),
    ("surface2", 738, None, 738),
    ("surface2", 921, None, 921),
    ("surface2", 922, None, 922),
    ("surface2", 1151, None, 1151),
    ("surface2", 1152, None, 1152),
    ("surface2", 1438, None, 1438),
    ("surface2", 1439, None, 1439),
    ("surface2", 1797, None, 1797),
    ("surface2", 1798, None, 1798),
    ("S6", 64, None, 75),
    ("S6", 65, None, 77),
    ("S6", 80, None, 100),
    ("S6", 81, None, 101),
    ("S6", 100, None, 125),
    ("S6", 101, None, 126),
    ("S6", 125, None, 156),
    ("S6", 126, None, 157),
    ("S6", 156, None, 204),
    ("S6", 157, None, 205),
    ("S6", 195, None, 266),
    ("S6", 196, None, 270),
    ("S6", 243, None, 354),
    ("S6", 244, None, 360),
    ("S6", 303, None, 469),
    ("S6", 304, None, 472),
    ("S6", 378, None, 620),
    ("S6", 379, None, 621),
    ("S6", 472, None, 808),
    ("S6", 473, None, 810),
    ("S6", 590, None, 1075),
    ("S6", 591, None, 1080),
    ("S6", 737, 720, 1421),
    ("S6", 738, 720, 1423),
    ("S6", 921, 720, 1513),
    ("S6", 922, 720, 1513),
    ("S6", 1151, 720, 1513),
    ("S6", 1152, 720, 1513),
    ("S6", 1438, 720, 1513),
    ("S6", 1439, 720, 1513),
    ("S6", 1797, 720, 1513),
    ("S6", 1798, 720, 1513),
]


@pytest.mark.parametrize("name,limit,order,defined", PINNED_ENUMERATIONS)
def test_pinned_coset_counts(name, limit, order, defined):
    result = todd_coxeter(PRESENTATIONS[name](), limit)
    assert (result.order, result.cosets_defined) == (order, defined)


# (merged, deductions, lookahead_passes) of the frozen HLT strategy.
PINNED_COUNTERS = [
    ("W2", 10**6, 299, 47, 0),
    ("S7", 10**6, 7105, 18214, 0),
    ("surface1", 2 * 10**3, 351, 1538, 2),
    ("random4", 400, 25733, 8298, 177),
    # lookahead runs that skip the cosets no relator can change
    ("surface2", 2 * 10**4, 1, 1837, 2),
    ("surface3", 2 * 10**4, 0, 1045, 1),
    ("W1", 50, 90, 41, 3),
    ("unit_relator", 100, 0, 100, 1),
]


@pytest.mark.parametrize("name,limit,merged,deductions,passes", PINNED_COUNTERS)
def test_pinned_coset_counters(name, limit, merged, deductions, passes):
    result = todd_coxeter(PRESENTATIONS[name](), limit)
    counters = (result.merged, result.deductions, result.lookahead_passes)
    assert counters == (merged, deductions, passes)


@pytest.mark.parametrize("name,limit,order,defined", PINNED_ENUMERATIONS)
def test_live_cosets_are_defined_minus_merged(name, limit, order, defined):
    result = todd_coxeter(PRESENTATIONS[name](), limit)
    live = result.cosets_defined - result.merged
    if result.closed:
        assert result.order == live
    else:
        assert live <= limit and result.lookahead_passes >= 1


def test_counters_default_for_three_argument_constructor():
    result = EnumerationResult(3, 5, 10)
    assert (result.merged, result.deductions, result.lookahead_passes) == (0, 0, 0)


def random_presentation(rng):
    """1-3 generators, 1-4 relators of length 1-8, letters uniform."""
    gens = tuple(f"x{k}" for k in range(rng.randint(1, 3)))
    relators = tuple(
        tuple(
            (rng.choice(gens), rng.choice((1, -1)))
            for _ in range(rng.randint(1, 8))
        )
        for _ in range(rng.randint(1, 4))
    )
    return GroupPresentation(gens, relators)


# SHA-256 of (order, cosets_defined) over the seeded presentations below,
# recorded on the class-based engine the single scan loop replaced.
RANDOM_ENUMERATIONS_DIGEST = (
    "6260c037f09a4f88a95a79c381f1c047ffedc5e774580457872794c9016c2f36"
)
# SHA-256 of all five counters, (order, cosets_defined, merged, deductions,
# lookahead_passes), over the same enumerations, recorded on the row-list
# table the column-major one replaced.
RANDOM_COUNTERS_DIGEST = (
    "3e0e2165ce8a10cc616f0a2c4985f1ad81d4edf74d00b26eb11c04fb613259c2"
)


def random_enumerations():
    rng = random.Random(2024)
    for _ in range(400):
        p = random_presentation(rng)
        for limit in (30, 300):
            yield todd_coxeter(p, limit)


def test_random_enumerations_digest():
    digest = hashlib.sha256()
    for result in random_enumerations():
        digest.update(repr((result.order, result.cosets_defined)).encode())
    assert digest.hexdigest() == RANDOM_ENUMERATIONS_DIGEST


def test_random_enumerations_counters_digest():
    digest = hashlib.sha256()
    for r in random_enumerations():
        fields = (r.order, r.cosets_defined, r.merged, r.deductions,
                  r.lookahead_passes)
        digest.update(repr(fields).encode())
    assert digest.hexdigest() == RANDOM_COUNTERS_DIGEST
