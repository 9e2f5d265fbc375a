"""The package imports nothing beyond the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fflv"


def absolute_imports(path: Path) -> list[str]:
    """Top-level module names of the file's absolute imports."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.partition(".")[0] for name in names]


def test_package_is_dependency_free():
    sources = sorted(SRC.glob("*.py"))
    assert any(absolute_imports(path) for path in sources)
    outside = {
        (path.name, name)
        for path in sources
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert outside == set()
