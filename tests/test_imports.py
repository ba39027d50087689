"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fracrat"
# __init__.py imports to re-export, so its names are read from outside
_MODULES = sorted(p.name for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """The names bound by an import in `source` that the module never
    references: not as a name, an attribute root, or inside a string
    annotation. `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in annotations:
        for n in ast.walk(annotation) if annotation is not None else ():
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= {m.id for m in ast.walk(ast.parse(n.value, mode="eval"))
                         if isinstance(m, ast.Name)}
    return sorted(name for name in bound if name not in used)


@pytest.mark.parametrize("module", _MODULES)
def test_no_module_keeps_an_unused_import(module):
    assert _unused_imports((_PACKAGE / module).read_text()) == []


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
