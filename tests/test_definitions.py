"""Every module-level definition in the package is used somewhere.

A companion to ``test_imports.py``: it parses every module under
``src/soficovers`` and fails on a module-level function, class or
constant (dunders aside) that no code in ``src/``, ``tests/`` or
``bench/`` references outside the definition itself.  A reference is a
name, an attribute, an imported name, or a word of a string that is not
a docstring (``bench/tracing.py`` names the functions it wraps in
strings); a mention in a docstring or a comment does not keep a
definition alive.  Nor does the package's re-export in ``__init__.py``:
a public name must be used or tested somewhere else.  Deleting a second
copy of some job then cannot leave its helpers behind.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "soficovers"
MODULES = sorted(PACKAGE.glob("*.py"))
SOURCES = sorted(
    p
    for top in ("src", "tests", "bench")
    for p in (ROOT / top).rglob("*.py")
    if p != PACKAGE / "__init__.py"
)
WORD = re.compile(r"[A-Za-z_]\w*")


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring nodes of a module and its classes and functions."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, owners)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }


def references(tree: ast.AST) -> Counter:
    """How often each name is referenced under ``tree``."""
    skip = _docstrings(tree)
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in node.names)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skip
        ):
            found.update(WORD.findall(node.value))
    return found


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Module-level (name, defining statement) pairs, dunders left out."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out += [(name, node) for name in names if not name.startswith("__")]
    return out


def dead_definitions(module: ast.Module, everywhere: Counter) -> list[str]:
    """Names that ``module`` defines and nothing outside their own
    definition references; ``everywhere`` counts references in every
    source file, ``module`` included."""
    return [
        name
        for name, node in definitions(module)
        if everywhere[name] <= references(node)[name]
    ]


def test_scan_flags_an_unused_definition():
    source = '''
"""used_in_docstring is not a use."""
import os
CONSTANT = 1
TRACED = ("used_by_string",)
def used_by_string(): pass
def recursive(n):
    return recursive(n - 1)
def used_in_docstring():
    """used_in_docstring calls itself nowhere."""
class Kept: pass
def caller():
    return Kept(), os
'''
    tree = ast.parse(source)
    assert dead_definitions(tree, references(tree)) == [
        "CONSTANT",
        "TRACED",
        "recursive",
        "used_in_docstring",
        "caller",
    ]


@pytest.fixture(scope="module")
def everywhere() -> Counter:
    total: Counter = Counter()
    for path in SOURCES:
        total += references(ast.parse(path.read_text()))
    return total


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_definitions_are_used(path, everywhere):
    assert dead_definitions(ast.parse(path.read_text()), everywhere) == []
