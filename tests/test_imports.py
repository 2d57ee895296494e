"""No module of ternalg but ``__init__`` imports a name it never uses.

``__init__`` imports to re-export; every other module imports to use, so
a name it imports and never reads is dead, most often left behind when the
code that read it was deleted.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ternalg"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names
                            if alias.name != "*")
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_scan_sees_an_unused_import():
    source = ("import os, os.path as osp\n"
              "from math import prod, gcd as g\n"
              "from .linalg import vec_sub\n"
              "def f(x: 'unused') -> int:\n"
              "    return prod(x) + os.sep\n")
    assert unused_imports(source) == ["g", "osp", "vec_sub"]


def test_modules_are_found():
    assert {"algebra.py", "coalgebra.py", "linalg.py",
            "report.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
