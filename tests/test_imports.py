"""Every name a library module imports is used in that module, every
private module-level name is read somewhere in the package, and every
public function or class is exported, read in the package or traced by
the benchmark."""

import ast
from pathlib import Path

import pytest

import fracrat

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fracrat"
_TRACING = _PACKAGE.parent.parent / "perfbench" / "tracing.py"
# __init__.py imports to re-export, so its names are read from outside
_MODULES = sorted(p.name for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


def _names_read(tree: ast.AST) -> set[str]:
    """The names `tree` reads: as a name, an attribute root, or inside a
    string annotation."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for annotation in annotations:
        for n in ast.walk(annotation) if annotation is not None else ():
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                read |= {m.id for m in ast.walk(ast.parse(n.value, mode="eval"))
                         if isinstance(m, ast.Name)}
    return read


def _unused_imports(source: str) -> list[str]:
    """The names bound by an import in `source` that the module never
    reads (_names_read). `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = _names_read(tree)
    return sorted(name for name in bound if name not in used)


def _top_level_names(tree: ast.Module, assignments: bool = True):
    """The names `tree` binds at its top level by a def or a class, and,
    with `assignments`, by an assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif assignments and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def _read_across(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """The (module, name) pairs some module of `trees` reads: a module
    reads its own names (_names_read), and another one imports a name from
    there or reads it as an attribute of that module."""
    read = {(module, name) for module, tree in trees.items() for name in _names_read(tree)}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rpartition(".")[2]
                read |= {(source, alias.name) for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.add((node.value.id, node.attr))
    return read


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """The "module.name" of each name with one leading underscore that a
    module of `sources` (module name -> source) binds at its top level
    and that no module reads (_read_across)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {(module, name) for module, tree in trees.items() for name in _top_level_names(tree)
               if name.startswith("_") and not name.startswith("__")}
    return sorted(f"{module}.{name}" for module, name in defined - _read_across(trees))


def _unreached_public_names(sources: dict[str, str], exported, traced) -> list[str]:
    """The "module.name" of each public function or class that a module of
    `sources` other than __init__ defines at its top level, and that is
    neither in `exported` (the package's __all__), nor read by a module
    (_read_across), nor named in `traced` (the benchmark tracer's LAYERS:
    module -> names such as "ParamPoly.__mul__")."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = {(module, name) for module, tree in trees.items() if module != "__init__"
               for name in _top_level_names(tree, assignments=False) if not name.startswith("_")}
    reached = _read_across(trees)
    reached |= {(module, name.partition(".")[0]) for module, names in traced.items() for name in names}
    return sorted(f"{module}.{name}" for module, name in defined - reached if name not in exported)


def _traced_layers() -> dict:
    """perfbench/tracing.py's LAYERS, read off its source without importing it."""
    for node in ast.parse(_TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{_TRACING} defines no LAYERS")


@pytest.mark.parametrize("module", _MODULES)
def test_no_module_keeps_an_unused_import(module):
    assert _unused_imports((_PACKAGE / module).read_text()) == []


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text() for p in _PACKAGE.glob("*.py")}
    assert _unread_private_names(sources) == []


def test_every_public_function_and_class_is_reached():
    sources = {p.stem: p.read_text() for p in _PACKAGE.glob("*.py")}
    assert _unreached_public_names(sources, fracrat.__all__, _traced_layers()) == []


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import gcd, isfinite\n"
        "from .exact import _ring as ring, clear_denominators\n"
        "def f(x: 'Fraction') -> 'tuple[int, Fraction]':\n"
        "    return isfinite(x)\n"
        "from fractions import Fraction\n"
    )
    assert _unused_imports(source) == ["clear_denominators", "gcd", "os", "ring"]
    assert _unused_imports("import os.path\nos.sep\n") == []


def test_the_scan_finds_an_unread_private_name():
    sources = {
        "a": (
            "import b\n"
            "_LIMIT = 3\n"
            "_left, (_right, kept) = 1, (2, 3)\n"
            "__dunder__ = 0\n"
            "def _helper(x: '_Box'):\n"
            "    return x\n"
            "class _Box:\n"
            "    _field = 1\n"
            "def _unread():\n"
            "    _local = _LIMIT\n"
            "    return b._imported\n"
            "_helper(1)\n"
            "_stored = 0\n"
            "_stored = 1\n"
        ),
        "b": (
            "from .a import _left\n"
            "import a\n"
            "_imported = a._right\n"
        ),
    }
    assert _unread_private_names(sources) == ["a._stored", "a._unread"]


def test_the_scan_finds_an_unreached_public_name():
    sources = {
        "__init__": (
            "from .a import Exported, reexported\n"
            "__all__ = ['Exported']\n"
        ),
        "a": (
            "import b\n"
            "LIMIT = 3\n"
            "class Exported:\n"
            "    def method(self):\n"
            "        return helper()\n"
            "def helper():\n"
            "    return b.by_attribute\n"
            "def reexported():\n"
            "    pass\n"
            "class Traced:\n"
            "    def __mul__(self, other):\n"
            "        pass\n"
            "def traced():\n"
            "    pass\n"
            "def unreached():\n"
            "    return LIMIT\n"
            "class Unreached:\n"
            "    pass\n"
        ),
        "b": (
            "from .a import Exported\n"
            "def by_attribute():\n"
            "    pass\n"
            "def by_import():\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
            "def exported_elsewhere():\n"
            "    pass\n"
        ),
        "c": "from .b import by_import\n",
    }
    traced = {"a": ("Traced.__mul__", "traced")}
    assert _unreached_public_names(sources, ["Exported", "exported_elsewhere"], traced) == [
        "a.Unreached",
        "a.unreached",
    ]
