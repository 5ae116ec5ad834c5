"""Packaging gate: the runtime stays standard-library only."""

import ast
import sys
import types
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "lefschetz"


def test_runtime_imports_only_the_standard_library():
    sources = sorted(SOURCE_DIR.glob("*.py"))
    assert sources, f"no modules found under {SOURCE_DIR}"
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert not outside, f"non-stdlib imports: {outside}"


# Every name `from lefschetz import X` accepts; a deletion elsewhere must
# not drop one unnoticed.
PUBLIC_NAMES = """
AbelianInvariants BOUNDARY BoundsReport CatalogEntry ConstraintProfile
CurveClass EnumerationResult Factorization FeasibilityRow FiberCounts
GroupPresentation HomologyClass InvariantReport LedgerEntry MissingHomology
MonoParseError NONSEP NoWordData SEP SurfaceSpec TwistLetter
VerificationReport Word abelianization cancel_adjacent_inverses cap_boundary
check_counts chi_and_betti classify_kind_from_word conjugate_factorization
endo_nagami_total enumerate_feasible euler_characteristic factorization_matrix
get_entry homology_of_word hurwitz_move hyperelliptic_signature
invariant_report is_symplectic load_catalog min_fiber_bounds
min_nonseparating_bound pairing_matrix parse_mono parse_word pi1_presentation
quotient_by_cycles serialize_mono signature_bound_check surface_group
symplectic_pairing todd_coxeter twist_count_congruence twist_matrix
verify_homological_relator
""".split()


def test_public_names():
    import lefschetz

    exported = sorted(
        name
        for name, value in vars(lefschetz).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == sorted(PUBLIC_NAMES)
