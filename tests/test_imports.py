"""Every name a library module imports is used in that module, and every
private module-level name is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fracrat"
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


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """The "module.name" of each name with one leading underscore that a
    module of `sources` (module name -> source) binds at its top level, by
    a def, a class or an assignment, and that no module reads: the module
    itself never does (_names_read), and no other one imports it from
    there or reads it as an attribute of that module."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined |= {(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")}
    read = {(module, name) for module, tree in trees.items() for name in _names_read(tree)}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rpartition(".")[2]
                read |= {(source, alias.name) for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.add((node.value.id, node.attr))
    return sorted(f"{module}.{name}" for module, name in defined if (module, name) not in read)


@pytest.mark.parametrize("module", _MODULES)
def test_no_module_keeps_an_unused_import(module):
    assert _unused_imports((_PACKAGE / module).read_text()) == []


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text() for p in _PACKAGE.glob("*.py")}
    assert _unread_private_names(sources) == []


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
