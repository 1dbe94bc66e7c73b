"""Every module-level definition in the package is used by a product.

A companion to ``test_imports.py``: it parses every module under
``src/soficovers`` and fails on a module-level function, class or
constant (dunders aside) that nothing a product runs references outside
the definition itself.  A product is the package itself (its CLI
commands and ``verify-paper`` criteria), the benchmark under ``bench/``
and the ``python -c`` snippets of the CI workflows.  A reference is a
name, an attribute, an imported name, or a word of a string that is not
a docstring (``bench/tracing.py`` names the functions it wraps in
strings); in a workflow file every word counts.  A mention in a
docstring or a comment does not keep a definition alive.  Nor does the
package's re-export in ``__init__.py``, nor a test under ``tests/`` or
``bench/tests/``: a definition only the tests reach belongs in the tests,
as a reference route.  Deleting a second copy of some job then cannot
leave its helpers behind.  Methods are not scanned.
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


def product_references(root: Path) -> Counter:
    """References in the Python files under ``root/src`` and ``root/bench``,
    the package's ``__init__.py`` and every ``tests`` directory left out,
    plus every word of the workflow files of ``root``."""
    total: Counter = Counter()
    for top in ("src", "bench"):
        for path in (root / top).rglob("*.py"):
            relative = path.relative_to(root)
            if "tests" not in relative.parts and not relative.match("src/*/__init__.py"):
                total += references(ast.parse(path.read_text()))
    for path in (root / ".github" / "workflows").glob("*.yml"):
        total.update(WORD.findall(path.read_text()))
    return total


def test_scan_counts_products_not_tests(tmp_path):
    files = {
        "src/pkg/mod.py": "def run(): pass\ndef snippet(): pass\n"
        "def benched(): pass\ndef exported(): pass\ndef tested(): pass\n",
        "src/pkg/__init__.py": "from .mod import exported\n",
        "src/pkg/cli.py": "from .mod import run\n",
        "bench/run.py": "from pkg.mod import benched\n",
        "bench/tests/test_bench.py": "from pkg.mod import tested\n",
        "tests/test_mod.py": "from pkg.mod import exported, tested\n",
        ".github/workflows/ci.yml": "run: python -c 'from pkg.mod import snippet'\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    module = ast.parse(files["src/pkg/mod.py"])
    assert dead_definitions(module, product_references(tmp_path)) == [
        "exported",
        "tested",
    ]


@pytest.fixture(scope="module")
def everywhere() -> Counter:
    return product_references(ROOT)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_definitions_are_used(path, everywhere):
    assert dead_definitions(ast.parse(path.read_text()), everywhere) == []
