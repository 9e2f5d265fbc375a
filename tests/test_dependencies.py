"""The package imports nothing beyond the standard library, its modules
import each other in layers, a process loads only the modules it uses, and
it runs on the oldest supported Python."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fflv

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


def test_package_does_not_import_dataclasses():
    """`dataclasses` pulls `inspect` and `dis` into every cold start; the
    value classes build on `rootsys._Frozen` instead."""
    importers = [path.name for path in sorted(SRC.glob("*.py"))
                 if "dataclasses" in absolute_imports(path)]
    assert importers == []


def test_package_does_not_import_typing():
    """`typing` is the largest import of a cold start after `argparse`; the
    record classes are `collections.namedtuple` subclasses instead."""
    importers = [path.name for path in sorted(SRC.glob("*.py"))
                 if "typing" in absolute_imports(path)]
    assert importers == []


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
    "straightening": {"rootsys"},
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


def test_exports_resolve_to_their_defining_modules():
    for name in fflv.__all__[:-1]:
        value = getattr(fflv, name)
        defining = [module for module, exported in fflv._EXPORTS.items()
                    if name in exported]
        assert len(defining) == 1, name
        module = importlib.import_module(f"fflv.{defining[0]}")
        assert value is getattr(module, name), name
        if hasattr(value, "__module__"):
            assert value.__module__ == module.__name__, name
    assert dir(fflv) == sorted(fflv.__all__)


def test_counterexample_lives_with_the_other_records():
    from fflv import polytope, rootsys

    assert fflv.Counterexample is polytope.Counterexample is rootsys.Counterexample
    assert "Counterexample" in fflv._EXPORTS["rootsys"]


def test_exports_read_the_defining_module_on_each_access(monkeypatch):
    # Nothing is cached in the package, so a patch on the defining module
    # is what the package name returns.
    from fflv import polytope

    marker = object()
    monkeypatch.setattr(polytope, "minkowski_verify", marker)
    assert fflv.minkowski_verify is marker
    monkeypatch.undo()
    assert fflv.minkowski_verify is polytope.minkowski_verify
    assert "minkowski_verify" not in vars(fflv)


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from fflv import *", namespace)
    assert {name: namespace[name] for name in fflv.__all__} == {
        name: getattr(fflv, name) for name in fflv.__all__}
    assert namespace["__version__"] == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        fflv.no_such_name
    assert not hasattr(fflv, "no_such_name")


# Run in a fresh interpreter: note the modules a bare interpreter has
# loaded, import the package and the CLI, run one verb, then print the
# modules loaded since, so that a module `site` loads is never counted.
COLD_START = """\
import sys
bare = set(sys.modules)
import fflv, fflv.cli
fflv.cli.main(sys.argv[1:])
print(*sorted(set(sys.modules) - bare))
"""


def loaded_modules(*argv: str, flags: tuple[str, ...] = ()) -> set[str]:
    src = str(Path(fflv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", COLD_START, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


# Verbs that print a bare count, not JSON.
PLAIN_OUTPUT = {
    "paths --family odd --n 1 --count",
    "points --family odd --n 2 --weight 1,1 --count",
    "dim --family odd --n 2 --weight 1,1",
}


@pytest.mark.parametrize("argv, extra", [
    ("paths --family odd --n 1 --count", set()),
    ("poset --family even --n 2", set()),
    ("verify minkowski --n 1 --max-coeff 1", {"fflv.polytope"}),
    ("points --family odd --n 2 --weight 1,1 --count", {"fflv.polytope"}),
    ("dim --family odd --n 2 --weight 1,1", {"fflv.polytope"}),
    ("verify abs --n 1 --max-coeff 1", {"fflv.polytope", "fflv.marked_poset"}),
    ("char --family odd --n 1 --weight 1", {"fflv.polytope", "fflv.characters"}),
    ("verify straightening --n 1", {"fflv.straightening"}),
])
def test_cli_loads_only_the_modules_its_verb_calls(argv, extra):
    loaded = loaded_modules(*argv.split())
    fflv_modules = {m for m in loaded if m.partition(".")[0] == "fflv"}
    assert fflv_modules == {"fflv", "fflv.cli", "fflv.rootsys"} | extra
    assert "dataclasses" not in loaded
    assert "typing" not in loaded
    if argv in PLAIN_OUTPUT:
        assert "json" not in loaded


@pytest.mark.parametrize("argv", [
    "paths --family odd --n 1 --count",
    "verify straightening --n 1",
    "verify abs --n 1 --max-coeff 1",
])
def test_cli_without_site_loads_no_typing(argv):
    """A `site` that preloads `typing` hides it from the check above; with
    `-S` nothing loads it before the package does."""
    assert "typing" not in loaded_modules(*argv.split(), flags=("-S",))
