"""Acceptance suite: one test per criterion, exact arithmetic, tolerance 0.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import math
import random
from fractions import Fraction
from itertools import product

from lefschetz.catalog import load_catalog, pi1_presentation
from lefschetz.cli import main as cli_main
from lefschetz.factorization import Factorization, TwistLetter, letter_counts
from lefschetz.feasibility import ADMITTED, REJECT_CHI_H, ConstraintProfile, enumerate_feasible
from lefschetz.fpgroup import abelianization, surface_group, todd_coxeter
from lefschetz.invariants import (
    FiberCounts,
    LedgerEntry,
    chi_and_betti,
    endo_nagami_total,
    euler_characteristic,
    hyperelliptic_signature,
    twist_count_congruence,
)
from lefschetz.mono import parse_mono, serialize_mono
from lefschetz.surface import (
    NONSEP,
    SEP,
    CurveClass,
    HomologyClass,
    SurfaceSpec,
    homology_of_word,
)
from lefschetz.twists import (
    factorization_matrix,
    hurwitz_move,
    verify_homological_relator,
)
from test_surface import literal_j


# Dense integer matrix helpers, kept here as an independent check on the
# library's vector-level transvections.


def mat_mul(a, b):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a
    )


def mat_transpose(m):
    return tuple(zip(*m))


def _ok(k, text):
    print(f"ACCEPTANCE {k}: PASS - {text}")


def test_criterion_01_invariant_pipeline_x1():
    counts = FiberCounts.of(4, 18, 5)
    e = euler_characteristic(counts)
    sigma = endo_nagami_total(
        [
            LedgerEntry("mats", 1),
            LedgerEntry("block", 1, value=-6, label="W"),
            LedgerEntry("sep", -3),
        ]
    )
    assert (e, sigma) == (11, -7)
    report = chi_and_betti(e, sigma)
    assert (report.b2plus, report.b2minus) == (1, 8)
    assert report.candidate == "CP^2 # 8 CP^2bar"
    _ok(1, "g=4 (18,5) with ledger (-4)+(-6)-(-3): e=11 sigma=-7 (1,8) CP^2#8")


def test_criterion_02_invariant_pipeline_x2():
    counts = FiberCounts.of(4, 18, 6, 0)
    sigma, integral = hyperelliptic_signature(counts)
    assert integral and sigma == -8
    e = euler_characteristic(counts)
    assert e == 12
    report = chi_and_betti(e, int(sigma))
    assert (report.b2plus, report.b2minus) == (1, 9)
    assert report.candidate == "CP^2 # 9 CP^2bar"
    _ok(2, "g=4 (18,6,0) closed form: sigma=-8 e=12 (1,9) CP^2#9")


def test_criterion_03_enumerator_g2(capsys):
    rows = enumerate_feasible(ConstraintProfile(2, 14))
    pre_chi = [r for r in rows if r.pre_chi_survivor]
    assert [(r.counts.n, *r.counts.s) for r in pre_chi] == [(8, 1), (10, 0)]
    assert all(r.chi_h == 0 for r in pre_chi)
    assert not any(r.admitted for r in rows)
    code = cli_main(["bounds", "--genus", "2"])
    out = capsys.readouterr().out
    assert code == 0 and "N_2 = 14" in out and "M_2 = 14" in out
    assert "Baykur-Korkmaz" in out
    _ok(3, "g=2 below 14: pre-chi {(8,1),(10,0)} chi_h=0, none admitted; N_2=M_2=14")


def test_criterion_04_enumerator_g3(capsys):
    rows = enumerate_feasible(ConstraintProfile(3, 18))
    pre_chi = [r for r in rows if r.pre_chi_survivor]
    assert [(r.counts.n, *r.counts.s) for r in pre_chi] == [(16, 1)]
    assert pre_chi[0].chi_h == 0
    assert not any(r.admitted for r in rows)
    code = cli_main(["bounds", "--genus", "3"])
    out = capsys.readouterr().out
    assert code == 0 and "M_3 = 18" in out and "12 <= N_3 <= 18" in out
    _ok(4, "g=3 below 18: pre-chi {(16,1)} chi_h=0, none admitted; M_3=18")


def test_criterion_05_enumerator_g4(capsys):
    rows = enumerate_feasible(ConstraintProfile(4, 24))
    admitted = {(r.counts.n, *r.counts.s): r for r in rows if r.admitted}
    assert set(admitted) == {(16, 0, 5), (16, 4, 2), (18, 2, 3)}
    # sigma re-derived via the independent single-fraction route
    for (n, s1, s2), row in admitted.items():
        independent = Fraction(-5 * n + 3 * s1 + 7 * s2, 9)
        assert row.sigma == independent
    assert {t: int(r.sigma) for t, r in admitted.items()} == {
        (16, 0, 5): -5, (16, 4, 2): -6, (18, 2, 3): -7,
    }
    pre_chi = {(r.counts.n, *r.counts.s) for r in rows if r.pre_chi_survivor}
    assert pre_chi == set(admitted) | {
        (16, 1, 2), (18, 3, 0), (20, 1, 1), (18, 0, 0),
    }
    extra = next(r for r in rows if (r.counts.n, *r.counts.s) == (18, 0, 0))
    assert extra.verdict == REJECT_CHI_H and extra.chi_h == -1
    code = cli_main(["bounds", "--genus", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "21 <= M_4 <= 24" in out and "16 <= N_4 <= 23" in out
    _ok(5, "g=4 below 24: admitted trio with sigma -5/-6/-7; (18,0,0) noted; bounds ok")


def test_criterion_06_group_engine():
    for name in ("W1", "W2"):
        presentation = pi1_presentation(name)
        result = todd_coxeter(presentation, max_cosets=10**6)
        assert result.order == 1, (name, result)
        assert abelianization(presentation).is_trivial
    for g in range(1, 7):
        assert abelianization(surface_group(g)).divisors == (0,) * (2 * g)
    _ok(6, "W1 and W2 pi_1 enumerate to order 1; H1 trivial; surface H1 free of rank 2g")


def _random_primitive(rng, dim):
    while True:
        coords = [rng.randint(-3, 3) for _ in range(dim)]
        if any(coords):
            g = math.gcd(*coords)
            return HomologyClass(tuple(c // g for c in coords))


def test_criterion_07_homological_verifier_properties():
    a1 = HomologyClass.basis(1, "a1")
    b1 = HomologyClass.basis(1, "b1")
    curves = (
        CurveClass("u", NONSEP, homology=a1),
        CurveClass("v", NONSEP, homology=b1),
    )
    relator = Factorization(
        SurfaceSpec(1), curves, tuple(TwistLetter(n) for n in ("u", "v") * 6)
    )
    not_relator = Factorization(
        SurfaceSpec(1), curves, tuple(TwistLetter(n) for n in ("u", "v") * 5)
    )
    assert verify_homological_relator(relator).matrix_ok
    assert not verify_homological_relator(not_relator).matrix_ok

    rng = random.Random(1729)
    moves_done = 0
    matrices_checked = 0
    while moves_done < 1000:
        genus = rng.randint(1, 4)
        dim = 2 * genus
        j = literal_j(genus)
        curve_list = [
            CurveClass(f"c{k}", NONSEP, homology=_random_primitive(rng, dim))
            for k in range(5)
        ]
        if genus >= 2:
            curve_list.append(CurveClass("s", SEP, h=genus // 2))
        names = [c.name for c in curve_list]
        letters = tuple(TwistLetter(rng.choice(names)) for _ in range(10))
        f = Factorization(SurfaceSpec(genus), tuple(curve_list), letters)
        for c in curve_list:
            if c.homology is not None:
                letter = TwistLetter(c.name, rng.choice((1, -1)))
                m = factorization_matrix(Factorization(f.spec, (c,), (letter,)))
                assert mat_mul(mat_transpose(m), mat_mul(j, m)) == j
                matrices_checked += 1
        before = factorization_matrix(f)
        counts = letter_counts(f)
        for _ in range(rng.randint(1, 10)):
            f = hurwitz_move(
                f, rng.randint(1, len(f.letters) - 1), rng.choice(("right", "left"))
            )
            moves_done += 1
        assert factorization_matrix(f) == before
        assert letter_counts(f) == counts
    assert moves_done >= 1000 and matrices_checked > 0
    _ok(
        7,
        f"torus relator verified/refuted; {moves_done} Hurwitz moves preserved "
        "the product bit-exactly; twist matrices all satisfy M^T J M = J",
    )


def test_criterion_08_congruence_lemma():
    assert twist_count_congruence(FiberCounts.of(2, 8, 6))
    assert twist_count_congruence(FiberCounts.of(3, 16, 1))
    assert twist_count_congruence(FiberCounts.of(4, 18, 6, 0))
    assert not twist_count_congruence(FiberCounts.of(4, 18, 5, 0))
    _ok(8, "congruence true for (2,(8,6)), (3,(16,1)), (4,(18,6,0)); false for (4,(18,5,0))")


def test_criterion_09_catalog_self_audit():
    entries = load_catalog()
    assert len(entries) == 6
    for entry in entries:
        f = entry.factorization
        assert letter_counts(f) == entry.counts, entry.name
        for curve in f.curves:
            if curve.word is None:
                continue
            # a zero abelianization is consistent with a separating curve only
            zero = homology_of_word(curve.word, f.spec.capped()).is_zero()
            assert zero == (curve.kind != NONSEP), (entry.name, curve.name)
        assert parse_mono(serialize_mono(f)) == f, entry.name
    _ok(9, "all six entries: tallies match, worded kinds consistent, round-trips equal")


def test_criterion_10_oracle_equivalence():
    def oracle(g, bound):
        q = 2 * g + 1
        rows = []
        for n in range(bound + 1):
            for s in product(range(bound + 1), repeat=g // 2):
                total = n + sum(s)
                if total < 1 or total >= bound:
                    continue
                if n < 4 * g:
                    verdict = "n-lower-bound"
                elif (
                    n + sum(2 * h * (4 * h + 2) * sh for h, sh in enumerate(s, 1))
                ) % ((4 if g % 2 else 2) * q):
                    verdict = "congruence"
                else:
                    num = -(g + 1) * n + sum(
                        (4 * h * (g - h) - q) * sh for h, sh in enumerate(s, 1)
                    )
                    if num % q:
                        verdict = "sigma-integrality"
                    elif num > (n - sum(s) - 4 * g) * q:
                        verdict = "sigma-bound"
                    else:
                        e = 4 - 4 * g + total
                        chi4 = e * q + num  # 4 chi_h * q
                        if chi4 % (4 * q) or chi4 // (4 * q) < 1:
                            verdict = "chi-h"
                        else:
                            verdict = ADMITTED
                rows.append(((n, *s), verdict))
        return sorted(rows)

    checked = 0
    for g in (1, 2, 3, 4, 5):
        for bound in range(1, 41):
            got = sorted(
                ((r.counts.n, *r.counts.s), r.verdict)
                for r in enumerate_feasible(ConstraintProfile(g, bound))
            )
            assert got == oracle(g, bound), (g, bound)
            checked += len(got)
    _ok(10, f"enumerator matches the naive unpruned oracle on {checked} rows "
            "(every g <= 5 and every bound <= 40)")
