import pytest

from lefschetz.catalog import (
    CatalogError,
    NoWordData,
    _entry,
    get_entry,
    invariant_report,
    load_catalog,
    pi1_presentation,
)
from lefschetz.factorization import letter_counts
from lefschetz.fpgroup import abelianization, todd_coxeter
from lefschetz.invariants import FiberCounts, twist_count_congruence
from lefschetz.surface import NONSEP, SEP, homology_of_word


def test_catalog_has_six_entries():
    assert [e.name for e in load_catalog()] == ["T", "V2", "V4", "W", "W1", "W2"]


def test_entry_shapes():
    expected = {
        "T": (2, 7, FiberCounts.of(2, 4, 3)),
        "V2": (2, 8, FiberCounts.of(2, 6, 2)),
        "V4": (4, 12, FiberCounts.of(4, 10, 0, 2)),
        "W": (3, 18, FiberCounts.of(3, 12, 6)),
        "W1": (4, 23, FiberCounts.of(4, 18, 5, 0)),
        "W2": (4, 24, FiberCounts.of(4, 18, 6, 0)),
    }
    for name, (genus, nletters, counts) in expected.items():
        e = get_entry(name)
        assert e.spec.genus == genus
        assert len(e.factorization.letters) == nletters
        assert e.counts == counts


def test_every_entry_tally_matches_declared_counts():
    for e in load_catalog():
        assert letter_counts(e.factorization) == e.counts
        assert len(e.factorization.letters) == e.counts.total


def test_w1_letter_list_exact():
    e = get_entry("W1")
    assert [l.curve for l in e.factorization.letters] == [
        "A0pp", "A1pp", "A2pp", "B0pp", "B1pp", "B2pp",
        "eb", "x1b", "x2b", "x3b", "db", "B2b",
        "x1", "x2", "x3", "d", "B2",
        "ep", "x1p", "x2p", "x3p", "dp", "B2p",
    ]
    assert all(l.sign == 1 for l in e.factorization.letters)
    assert e.factorization.is_identity_target


def test_w2_separating_letters_all_type_one():
    e = get_entry("W2")
    f = e.factorization
    separating = sorted(
        {l.curve for l in f.letters if f.curve(l.curve).kind == SEP}
    )
    assert separating == ["C", "Cpp", "d", "dpp", "epp", "f"]
    assert all(f.curve(name).h == 1 for name in separating)
    assert e.counts.s == (6, 0)


def test_targets():
    assert get_entry("T").factorization.target == ((1, 1), (2, 1))
    assert get_entry("V2").factorization.target == ((1, 1), (2, 1))
    assert get_entry("W").factorization.target == ((1, 1), (2, 2))
    assert get_entry("W1").factorization.target == ()
    assert get_entry("W2").factorization.target == ()


def test_worded_letters_classify_consistently():
    for e in load_catalog():
        f = e.factorization
        for curve in f.curves:
            if curve.word is None:
                continue
            zero = homology_of_word(curve.word, f.spec.capped()).is_zero()
            assert zero == (curve.kind != NONSEP), curve.name


def test_w2_congruence_holds_w1_fails():
    assert twist_count_congruence(get_entry("W2").counts)
    assert not twist_count_congruence(get_entry("W1").counts)
    assert twist_count_congruence(get_entry("W").counts)
    assert twist_count_congruence(get_entry("T").counts)
    assert twist_count_congruence(get_entry("V2").counts)
    assert twist_count_congruence(get_entry("V4").counts)


def test_alias_w3():
    assert get_entry("W3") is get_entry("W")
    with pytest.raises(KeyError):
        get_entry("nope")


def test_pi1_presentations():
    p1 = pi1_presentation("W1")
    assert len(p1.generators) == 8
    assert len(p1.relators) == 1 + 12  # surface relator + printed words
    p2 = pi1_presentation("W2")
    assert len(p2.relators) == 1 + 11
    for other in ("T", "V2", "V4", "W"):
        with pytest.raises(NoWordData):
            pi1_presentation(other)


def test_pi1_both_trivial():
    for name in ("W1", "W2"):
        p = pi1_presentation(name)
        result = todd_coxeter(p, 10**6)
        assert result.order == 1
        assert abelianization(p).divisors == ()


def test_invariant_reports():
    r = invariant_report("W1")
    assert (r.e, r.sigma, r.b2plus, r.b2minus) == (11, -7, 1, 8)
    assert r.candidate == "CP^2 # 8 CP^2bar"
    r = invariant_report("W2")
    assert (r.e, r.sigma, r.b2plus, r.b2minus) == (12, -8, 1, 9)
    assert r.candidate == "CP^2 # 9 CP^2bar"
    r = invariant_report("W")
    assert (r.e, r.sigma, r.b2plus, r.b2minus) == (10, -6, 1, 7)
    assert r.candidate == "CP^2 # 7 CP^2bar"
    # dual route for W2: e + sigma = 4 chi_h with chi_h = 1
    assert r.e + r.sigma == 4 * r.chi_h


def test_invariant_reports_non_simply_connected_blocks():
    # T, V2, V4 sit on non-simply-connected spaces; the b1 = 0 Betti
    # arithmetic is infeasible, which the report carries as data
    for name, e, sigma in (("T", 3, -3), ("V2", 4, -4), ("V4", 0, -4)):
        r = invariant_report(name)
        assert (r.e, r.sigma) == (e, sigma)
        assert not r.feasible


@pytest.mark.parametrize("hyperelliptic,message", [
    (True, "X: hyperelliptic signature is not an integer"),
    (False, "X: no signature route available"),
], ids=["non-integral", "no-route"])
def test_invariant_report_refuses_entries_without_an_integral_route(
    monkeypatch, hyperelliptic, message
):
    # genus 2 with 7 nonseparating fibers: the closed form gives -21/5
    entry = _entry("X", "", 2, 0, "x1 x2 x3 x4 x5 x6 x7", (7,), hyperelliptic, sep={})
    monkeypatch.setattr("lefschetz.catalog.get_entry", lambda name: entry)
    with pytest.raises(CatalogError, match=message):
        invariant_report("X")


def test_entry_tally_must_match_declared_counts():
    message = r"X: letter tally \(2, \(1,\)\) vs declared \(3, \(1,\)\)"
    with pytest.raises(CatalogError, match=message):
        _entry("X", "", 2, 0, "x1 d x1", (3, 1), True, sep={"d": 1})


def test_entry_kinds_come_from_the_sep_map():
    f = _entry("X", "", 2, 0, "x1 d x1", (2, 1), True, sep={"d": 1}).factorization
    kinds = [(c.name, c.kind, c.h) for c in f.curves]
    assert kinds == [("x1", NONSEP, None), ("d", SEP, 1)]
    # a typo in the map must not quietly turn the letter nonseparating
    with pytest.raises(CatalogError, match=r"X: sep names \['D', 'q'\] are not letters"):
        _entry("X", "", 2, 0, "x1 d", (1, 1), True, sep={"d": 1, "q": 1, "D": 1})


def test_entry_words_keys_must_be_letters():
    # a misspelled key must not quietly drop a printed pi_1 word
    with pytest.raises(CatalogError, match=r"X: words names \['X1'\] are not letters"):
        _entry("X", "", 2, 0, "x1 d", (1, 1), True, sep={"d": 1}, words={"X1": "a1"})


def test_catalog_loads_are_cached_and_identical():
    assert load_catalog() is load_catalog()
