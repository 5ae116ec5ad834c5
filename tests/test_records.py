"""The record semantics every public value class shares.

Seventeen classes are immutable records on one base,
``lefschetz.invariants._Record``.  One table builds a value of each and
checks what its users rely on: the repr text, value equality and a
matching hash, no assignment or deletion, copies and pickles that keep
type, equality, hash and repr, ``__match_args__`` and the slotted layout.
The repr strings and ``__match_args__`` tuples were recorded from the
frozen dataclasses these classes used to be.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from lefschetz.catalog import CatalogEntry
from lefschetz.factorization import Factorization, TwistLetter
from lefschetz.feasibility import (
    REJECT_CHI_H,
    BoundsReport,
    ConstraintProfile,
    FeasibilityRow,
    Witness,
)
from lefschetz.fpgroup import AbelianInvariants, EnumerationResult, GroupPresentation
from lefschetz.invariants import FiberCounts, InvariantReport, LedgerEntry, _Record
from lefschetz.surface import NONSEP, CurveClass, HomologyClass, SurfaceSpec
from lefschetz.twists import VerificationReport
from lefschetz.words import parse_word


def torus():
    a = CurveClass("a", NONSEP, homology=HomologyClass((1, 0)))
    b = CurveClass("b", NONSEP, homology=HomologyClass((0, 1)))
    return Factorization(SurfaceSpec(1), (a, b), (TwistLetter("a"), TwistLetter("b", -1)))


TORUS_REPR = (
    "Factorization(spec=SurfaceSpec(genus=1, boundary_count=0), curves=("
    "CurveClass(name='a', kind='nonsep', h=None, boundary_index=None, "
    "homology=HomologyClass(coords=(1, 0)), word=None), "
    "CurveClass(name='b', kind='nonsep', h=None, boundary_index=None, "
    "homology=HomologyClass(coords=(0, 1)), word=None)), "
    "letters=(TwistLetter(curve='a', sign=1), TwistLetter(curve='b', sign=-1)), "
    "target=())"
)

# class -> (a builder of one value, its repr, __match_args__, slotted)
RECORDS = {
    FiberCounts: (
        lambda: FiberCounts(4, 16, (0, 5)),
        "FiberCounts(genus=4, n=16, s=(0, 5))",
        ("genus", "n", "s"), True,
    ),
    LedgerEntry: (
        lambda: LedgerEntry("block", 2, value=-3),
        "LedgerEntry(kind='block', multiplicity=2, value=-3)",
        ("kind", "multiplicity", "value"), False,
    ),
    InvariantReport: (
        lambda: InvariantReport(11, -5, Fraction(3, 2), 2, 7, None),
        "InvariantReport(e=11, sigma=-5, chi_h=Fraction(3, 2), b2plus=2, "
        "b2minus=7, candidate=None)",
        ("e", "sigma", "chi_h", "b2plus", "b2minus", "candidate"), False,
    ),
    SurfaceSpec: (
        lambda: SurfaceSpec(2, 1),
        "SurfaceSpec(genus=2, boundary_count=1)",
        ("genus", "boundary_count"), False,
    ),
    HomologyClass: (
        lambda: HomologyClass((1, -2, 0, 3)),
        "HomologyClass(coords=(1, -2, 0, 3))",
        ("coords",), True,
    ),
    CurveClass: (
        lambda: CurveClass("c", NONSEP, homology=HomologyClass((1, 0)), word=parse_word("a1")),
        "CurveClass(name='c', kind='nonsep', h=None, boundary_index=None, "
        "homology=HomologyClass(coords=(1, 0)), word=(('a1', 1),))",
        ("name", "kind", "h", "boundary_index", "homology", "word"), True,
    ),
    TwistLetter: (
        lambda: TwistLetter("c", -1),
        "TwistLetter(curve='c', sign=-1)",
        ("curve", "sign"), True,
    ),
    Factorization: (
        torus, TORUS_REPR, ("spec", "curves", "letters", "target"), False,
    ),
    CatalogEntry: (
        lambda: CatalogEntry("X", "a torus", torus(), FiberCounts(1, 2), False,
                             ledger=(LedgerEntry("sep"),), notes=("n",), aliases=("Y",)),
        f"CatalogEntry(name='X', description='a torus', factorization={TORUS_REPR}, "
        "counts=FiberCounts(genus=1, n=2, s=()), hyperelliptic=False, "
        "ledger=(LedgerEntry(kind='sep', multiplicity=1, value=None),), "
        "notes=('n',), aliases=('Y',))",
        ("name", "description", "factorization", "counts", "hyperelliptic", "ledger",
         "notes", "aliases"), False,
    ),
    ConstraintProfile: (
        lambda: ConstraintProfile(4, 24),
        "ConstraintProfile(genus=4, max_total_fibers=24)",
        ("genus", "max_total_fibers", "hyperelliptic"), False,
    ),
    FeasibilityRow: (
        lambda: FeasibilityRow(FiberCounts(2, 8, (1,)), REJECT_CHI_H),
        "FeasibilityRow(counts=FiberCounts(genus=2, n=8, s=(1,)), verdict='chi-h')",
        ("counts", "verdict"), True,
    ),
    Witness: (
        lambda: Witness("W", 18, True),
        "Witness(name='W', fibers=18, hyperelliptic=True)",
        ("name", "fibers", "hyperelliptic"), False,
    ),
    BoundsReport: (
        lambda: BoundsReport(3, 12, 18, 18, 18, (Witness("W", 18, True),), ("a note",)),
        "BoundsReport(genus=3, n_lower=12, n_upper=18, m_lower=18, m_upper=18, "
        "witnesses=(Witness(name='W', fibers=18, hyperelliptic=True),), "
        "notes=('a note',))",
        ("genus", "n_lower", "n_upper", "m_lower", "m_upper", "witnesses", "notes"), False,
    ),
    GroupPresentation: (
        lambda: GroupPresentation(("a", "b"), (parse_word("a b a~ b~"),)),
        "GroupPresentation(generators=('a', 'b'), "
        "relators=((('a', 1), ('b', 1), ('a', -1), ('b', -1)),))",
        ("generators", "relators"), False,
    ),
    AbelianInvariants: (
        lambda: AbelianInvariants((2, 0)),
        "AbelianInvariants(divisors=(2, 0))",
        ("divisors",), False,
    ),
    EnumerationResult: (
        lambda: EnumerationResult(6, 9, merged=3, deductions=1),
        "EnumerationResult(order=6, cosets_defined=9, merged=3, deductions=1, "
        "lookahead_passes=0)",
        ("order", "cosets_defined", "merged", "deductions", "lookahead_passes"), False,
    ),
    VerificationReport: (
        lambda: VerificationReport(True),
        "VerificationReport(matrix_ok=True)",
        ("matrix_ok",), False,
    ),
}


def fields(obj):
    """The names a record keeps: its ``__match_args__`` without the
    init-only keyword ``ConstraintProfile`` matches but does not store."""
    return [name for name in type(obj).__match_args__ if hasattr(obj, name)]


def values(obj):
    return tuple(getattr(obj, name) for name in fields(obj))


@pytest.mark.parametrize("cls", [pytest.param(cls, id=cls.__name__) for cls in RECORDS])
def test_record_semantics(cls):
    build, text, match_args, slotted = RECORDS[cls]
    obj, twin = build(), build()
    assert type(obj) is cls and twin is not obj
    assert repr(obj) == text
    assert cls.__match_args__ == match_args
    assert hasattr(obj, "__dict__") is not slotted

    # Equal to its twin, hashing as the tuple of its fields does.
    assert obj == twin and not obj != twin
    assert hash(obj) == hash(twin) == hash(values(obj))
    # Not equal to that tuple, nor to a record of another class with the
    # same field names and values.
    assert obj != values(obj) and values(obj) != obj
    other = object.__new__(type("Other", (_Record,), {"__match_args__": tuple(fields(obj))}))
    for name, value in zip(fields(obj), values(obj)):
        object.__setattr__(other, name, value)
    assert obj != other and other != obj

    for name in fields(obj):
        with pytest.raises(AttributeError, match=repr(name)):
            setattr(obj, name, getattr(twin, name))
        with pytest.raises(AttributeError, match=repr(name)):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert not hasattr(obj, "extra") and obj == twin

    for copied in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(copied) is cls
        assert copied == obj and hash(copied) == hash(obj) and repr(copied) == text
