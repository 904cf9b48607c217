"""Source hygiene of the package: every imported name is used."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vclab"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module.

    A name counts as read when it occurs as a name expression (attribute
    roots included), inside a string annotation, or in ``__all__``.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    holders = []  # annotations and the __all__ value, which may name imports in strings
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            holders.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            holders.append(node.returns)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            holders.append(node.value)
    for holder in filter(None, holders):
        for node in ast.walk(holder):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_scan_flags_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Iterable, Optional\n\ndef f(x: 'Optional[int]'):\n    return sys.argv, 'os'\n"
    assert unused_imports(source) == ["Iterable (line 3)", "os (line 1)"]


def test_scan_counts_all_and_attribute_roots():
    source = "from . import a, b\nfrom .c import d\n__all__ = ['d']\n\ndef f():\n    return a.x(b)\n"
    assert unused_imports(source) == []


def test_package_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
