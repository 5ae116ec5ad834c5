"""Packaging gates: the runtime stays standard-library only, every Python
file compiles without a warning, no module imports a name it does not use,
and an import inside a function is one of the deferrals listed here."""

import ast
import importlib
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


def test_cli_keeps_its_entry_points_and_constants():
    # The handlers moved to one private module each; these names stay in cli,
    # and enumerate's warning threshold is in its handler, its one reader.
    from lefschetz import _cli_enumerate, cli

    assert callable(cli.main) and callable(cli.console_entry)
    assert (cli.EXIT_OK, cli.EXIT_NEGATIVE, cli.EXIT_USAGE) == (0, 1, 2)
    assert cli._MAX_S_FLAGS == 8
    assert _cli_enumerate.ENUMERATE_WARN_ROWS == 10**6
