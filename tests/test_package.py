"""Packaging gate: the runtime stays standard-library only."""

import ast
import sys
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
