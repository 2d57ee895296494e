"""No module of ternalg but ``__init__`` imports a name it never uses,
none defines a private name it never reads, none generates code, and
only ``report`` sizes the slots of packed members.

``__init__`` imports to re-export; every other module imports to use, so
a name it imports and never reads is dead, most often left behind when the
code that read it was deleted.  A private module-level function, class or
assignment is the module's own, so it is dead too unless the module reads
it.  The written identities are compiled to closures, so no module needs
the builtins ``eval``, ``exec`` or ``compile``.  ``report.check_packed``
lifts the tables of a packed law and takes their scale and slot width,
so no other module calls ``pair_width``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ternalg"
FILES = sorted(p.name for p in SRC.glob("*.py"))
MODULES = [name for name in FILES if name != "__init__.py"]


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


def unread_private_names(source: str) -> list:
    """The private names ``source`` binds at module level by a function,
    class or assignment, and never reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            defined.update(name.id for target in targets
                           for name in ast.walk(target)
                           if isinstance(name, ast.Name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in defined - read
                  if name.startswith("_") and not name.endswith("__"))


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


def test_the_scan_sees_an_unread_private_name():
    source = ("from .scalars import ONE as _ONE\n"
              "__all__ = ['f']\n"
              "_WIDTH, (_a, b) = 8, (1, 2)\n"
              "_SEEN: set = set()\n"
              "_used = _WIDTH\n"
              "class _Left: pass\n"
              "def _helper(x):\n"
              "    _local = x\n"
              "    return x + _used\n"
              "def _orphan():\n"
              "    return _ONE\n"
              "f = _helper\n")
    assert unread_private_names(source) == ["_Left", "_SEEN", "_a", "_orphan"]


@pytest.mark.parametrize("module", FILES)
def test_no_unread_private_name(module):
    assert unread_private_names((SRC / module).read_text(
        encoding="utf-8")) == []


def code_generation_calls(source: str) -> list:
    """The calls in ``source`` of ``eval``, ``exec`` or ``compile`` by bare
    name, as (line, name); a method such as ``re.compile`` is not one."""
    return sorted((node.lineno, node.func.id)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("eval", "exec", "compile"))


def test_the_scan_sees_code_generation():
    source = ("import re\n"
              "PATTERN = re.compile('x')\n"
              "def compile_identity(text):\n"
              "    code = compile(text, '<identity>', 'eval')\n"
              "    exec('y = 1')\n"
              "    return eval(code), compile_identity\n")
    assert code_generation_calls(source) == [
        (4, "compile"), (5, "exec"), (6, "eval")]


@pytest.mark.parametrize("module", FILES)
def test_no_code_generation(module):
    assert code_generation_calls((SRC / module).read_text(
        encoding="utf-8")) == []


def calls_of(source: str, name: str) -> list:
    """The lines of ``source`` that call ``name``, by bare name or as an
    attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and name in (getattr(node.func, "id", None),
                               getattr(node.func, "attr", None)))


def test_the_scan_sees_a_call_of_pair_width():
    source = ("from . import linalg\n"
              "from .linalg import pair_width\n"
              "def width(d, mu, cols):\n"
              "    w = pair_width(d, mu, cols)\n"
              "    return w, linalg.pair_width(d, mu), pair_width\n")
    assert calls_of(source, "pair_width") == [4, 5]


@pytest.mark.parametrize("module", [m for m in FILES if m != "report.py"])
def test_only_report_calls_pair_width(module):
    assert calls_of((SRC / module).read_text(encoding="utf-8"),
                    "pair_width") == []
