"""The package imports nothing beyond the standard library, its modules
import each other in layers, and it runs on the oldest supported Python."""

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


def relative_imports(path: Path) -> set[str]:
    """Sibling modules the file imports by ``from . import x`` or ``from .x import``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.partition(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


# Each module may import only the modules below it; cli and __init__ sit on top.
ALLOWED_IMPORTS = {
    "rootsys": set(),
    "polytope": {"rootsys"},
    "characters": {"polytope", "rootsys"},
    "marked_poset": {"polytope", "rootsys"},
    "straightening": {"polytope", "rootsys"},
}


def test_module_layering():
    sources = {path.stem: path for path in SRC.glob("*.py")}
    assert set(sources) - {"cli", "__init__"} == set(ALLOWED_IMPORTS)
    assert relative_imports(sources["polytope"]) == {"rootsys"}
    for name, allowed in ALLOWED_IMPORTS.items():
        assert relative_imports(sources[name]) <= allowed, name


def test_int_byte_conversions_name_the_byte_order():
    """int.to_bytes and int.from_bytes take a default byte order only from
    Python 3.11 on, and pyproject.toml supports 3.10."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("to_bytes", "from_bytes")
            ):
                named = any(kw.arg == "byteorder" for kw in node.keywords)
                calls.append((path.name, node.lineno, named or len(node.args) >= 2))
    assert calls
    assert [call for call in calls if not call[2]] == []
