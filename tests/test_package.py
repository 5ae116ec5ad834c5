"""Packaging gates: the runtime stays standard-library only, every Python
file compiles without a warning, no module imports a name it does not use,
an import inside a function is one of the deferrals listed here, and each
record of ``tests/mutants.py`` still matches the source."""

import ast
import importlib
import inspect
import sys
import types
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIR = ROOT / "src" / "lefschetz"


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


def test_every_python_file_compiles_without_warnings():
    # An invalid escape such as "\d" warns at compile time: DeprecationWarning
    # up to 3.11, SyntaxWarning from 3.12.  As errors, both raise here.
    paths = sorted(
        path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py")
    )
    assert paths
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in paths:
            compile(path.read_bytes(), str(path), "exec", dont_inherit=True)


# Every name `from lefschetz import X` accepts; a deletion elsewhere must
# not drop one unnoticed.
PUBLIC_NAMES = """
AbelianInvariants BOUNDARY BoundsReport CatalogEntry ConstraintProfile
CurveClass EnumerationResult Factorization FeasibilityRow FiberCounts
GroupPresentation HomologyClass InvariantReport LedgerEntry MissingHomology
MonoParseError NONSEP NoWordData SEP SurfaceSpec TwistLetter
VerificationReport Word abelianization cancel_adjacent_inverses cap_boundary
check_counts chi_and_betti endo_nagami_total enumerate_feasible
euler_characteristic factorization_matrix get_entry homology_of_word
hurwitz_move hyperelliptic_signature invariant_report load_catalog
min_fiber_bounds min_nonseparating_bound parse_mono parse_word
pi1_presentation quotient_by_cycles serialize_mono signature_bound_check
surface_group todd_coxeter twist_count_congruence verify_homological_relator
""".split()


def test_public_names():
    import lefschetz

    assert sorted(lefschetz.__all__) == sorted(PUBLIC_NAMES)
    listed = dir(lefschetz)
    for name in PUBLIC_NAMES:
        assert name in listed, name
        module = importlib.import_module(f"lefschetz.{lefschetz._MODULE_OF[name]}")
        value = getattr(lefschetz, name)
        assert value is vars(module)[name], name
        if isinstance(value, (type, types.FunctionType)):
            # The table names the defining submodule, not one that re-imports it.
            assert value.__module__ == module.__name__, name

    star = {}
    exec("from lefschetz import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(PUBLIC_NAMES)
    assert all(star[name] is getattr(lefschetz, name) for name in star)

    with pytest.raises(AttributeError, match="no_such_name"):
        lefschetz.no_such_name


# Each public callable's parameters as ``inspect.signature`` prints them
# without annotations: names, kinds (``/`` and ``*`` mark positional-only
# and keyword-only) and defaults; a class gives its constructor's.  A knob
# added or dropped shows here.
PUBLIC_SIGNATURES = {
    "AbelianInvariants": "(divisors)",
    "BoundsReport": "(genus, n_lower, n_upper, m_lower, m_upper, witnesses, notes)",
    "CatalogEntry": "(name, description, factorization, counts, hyperelliptic, "
                    "ledger=None, notes=(), aliases=())",
    "ConstraintProfile": "(genus, max_total_fibers, hyperelliptic=True)",
    "CurveClass": "(name, kind, h=None, boundary_index=None, homology=None, word=None)",
    "EnumerationResult": "(order, cosets_defined, merged=0, deductions=0, lookahead_passes=0)",
    "Factorization": "(spec, curves, letters, target=())",
    "FeasibilityRow": "(counts, verdict)",
    "FiberCounts": "(genus, n, s=())",
    "GroupPresentation": "(generators, relators)",
    "HomologyClass": "(coords)",
    "InvariantReport": "(e, sigma, chi_h, b2plus, b2minus, candidate)",
    "LedgerEntry": "(kind, multiplicity=1, value=None)",
    "MissingHomology": "(curve_name)",
    "MonoParseError": "(line, message)",
    "SurfaceSpec": "(genus, boundary_count=0)",
    "TwistLetter": "(curve, sign=1)",
    "VerificationReport": "(matrix_ok)",
    "abelianization": "(p)",
    "cancel_adjacent_inverses": "(f)",
    "cap_boundary": "(f)",
    "check_counts": "(c, p)",
    "chi_and_betti": "(e, sigma)",
    "endo_nagami_total": "(entries)",
    "enumerate_feasible": "(p)",
    "euler_characteristic": "(c)",
    "factorization_matrix": "(f)",
    "get_entry": "(name)",
    "homology_of_word": "(word, spec)",
    "hurwitz_move": "(f, i, direction='right')",
    "hyperelliptic_signature": "(c)",
    "invariant_report": "(entry_name)",
    "load_catalog": "()",
    "min_fiber_bounds": "(g)",
    "min_nonseparating_bound": "(g)",
    "parse_mono": "(text)",
    "parse_word": "(text)",
    "pi1_presentation": "(entry_name)",
    "quotient_by_cycles": "(p, cycles)",
    "serialize_mono": "(f, comment=None)",
    "signature_bound_check": "(c, sigma)",
    "surface_group": "(g)",
    "todd_coxeter": "(p, max_cosets=1000000)",
    "twist_count_congruence": "(c)",
    "verify_homological_relator": "(f)",
}
# Public names with no Python-level signature: the kind constants, the
# ``Word`` type alias and an exception that keeps ``ValueError``'s constructor.
UNSIGNED_NAMES = {"BOUNDARY", "NONSEP", "SEP", "NoWordData", "Word"}


def test_public_signatures():
    import lefschetz

    found = {}
    for name in lefschetz.__all__:
        value = getattr(lefschetz, name)
        init = getattr(value, "__init__", None) if isinstance(value, type) else None
        function = inspect.unwrap(value)  # load_catalog is an lru_cache wrapper
        if isinstance(function, types.FunctionType) or isinstance(init, types.FunctionType):
            sig = inspect.signature(value)
            found[name] = str(sig.replace(
                parameters=[p.replace(annotation=p.empty) for p in sig.parameters.values()],
                return_annotation=sig.empty,
            ))
    assert found == PUBLIC_SIGNATURES
    assert set(lefschetz.__all__) - set(found) == UNSIGNED_NAMES


# Every public name lefschetz.twists defines: the calculus, which stayed
# there when the factorization values moved to their own module.
TWISTS_NAMES = """
Matrix NECESSITY_NOTE VerificationReport factorization_matrix hurwitz_move
transvect verify_homological_relator
""".split()


def test_moved_value_names_keep_their_twists_path():
    namespace = {}
    exec(f"from lefschetz.twists import {', '.join(TWISTS_NAMES)}", namespace)
    for name in TWISTS_NAMES:
        value = namespace[name]
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == "lefschetz.twists", name


def test_every_import_is_used():
    unused = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        # A Name node is any read of a name, annotations and the bases of
        # attribute chains (``cli.X``, ``operator.mul``) included.
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        # ``import a.b`` binds a; ``from __future__`` imports bind nothing.
        unused += [
            f"{path.stem}.{bound}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
            for alias in node.names
            if (bound := alias.asname or alias.name.partition(".")[0]) not in used
        ]
    assert not unused, f"imported but never used: {unused}"


# (module, innermost enclosing function, module the statement imports) ->
# why that import waits for the call: each keeps a module out of some
# process that loads the enclosing module.
DEFERRED_IMPORTS = {
    ("cli", "_emit", "json"): "only --json output loads json",
    ("cli", "_load_mono", "pathlib"): "only a command that reads a file loads pathlib",
    ("cli", "_load_mono", ".mono"): "pi1 of a catalog entry loads no .mono parser",
    ("_cli_catalog", "_cmd_catalog", ".mono"): "catalog list and show load no mono",
    ("catalog", "presentation_from_factorization", ".fpgroup"):
        "catalog list and show load no group layer",
    ("invariants", "_fraction", "fractions"):
        "a command that prints no rational loads no fractions",
}


def test_every_function_level_import_is_a_listed_deferral():
    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # The function's own statements; a nested function is its own key.
            stack = list(func.body)
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(node, ast.Import):
                    found += [(path.stem, func.name, a.name) for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    found.append((path.stem, func.name,
                                  "." * node.level + (node.module or "")))
                stack.extend(ast.iter_child_nodes(node))
    assert sorted(found) == sorted(DEFERRED_IMPORTS)


def test_every_mutant_record_matches_todays_source():
    # The cheap half of tests/mutants.py: each old text occurs exactly once
    # in its module and each test named to kill the mutant exists, so a
    # rewrite of the target or a renamed test fails here, not in the runner.
    from mutants import MUTANTS

    assert len({m.id for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (SOURCE_DIR / m.file).read_text().count(m.old) == 1, m.id
        assert m.new != m.old, m.id
        for node in m.kills:
            path, _, name = node.partition("::")
            assert f"\ndef {name}(" in (ROOT / path).read_text(), (m.id, node)


def test_cli_keeps_its_entry_points_and_constants():
    # The handlers moved to one private module each; these names stay in cli,
    # and enumerate's warning threshold is in its handler, its one reader.
    from lefschetz import _cli_enumerate, cli

    assert callable(cli.main) and callable(cli.console_entry)
    assert (cli.EXIT_OK, cli.EXIT_NEGATIVE, cli.EXIT_USAGE) == (0, 1, 2)
    assert cli._MAX_S_FLAGS == 8
    assert _cli_enumerate.ENUMERATE_WARN_ROWS == 10**6
