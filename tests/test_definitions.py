"""Every definition in the package is used by a product.

A companion to ``test_imports.py``: it parses every module under
``src/soficovers`` and fails on a module-level function, class or
constant (dunders aside) that nothing a product runs references outside
the definition itself, and on a class member nothing a product runs
reads.  A product is the package itself (its CLI
commands and ``verify-paper`` criteria), the benchmark under ``bench/``
and the ``python -c`` snippets of the CI workflows.  A reference is a
name, an attribute, an imported name, or a word of a string that is not
a docstring (``bench/tracing.py`` names the functions it wraps in
strings); in a workflow file every word counts.  A mention in a
docstring or a comment does not keep a definition alive.  Nor does the
package's re-export in ``__init__.py``, nor a test under ``tests/`` or
``bench/tests/``: a definition only the tests reach belongs in the tests,
as a reference route.  Deleting a second copy of some job then cannot
leave its helpers behind.

Class members are every annotated field (of a dataclass or a
NamedTuple), property and method of a class, dunders aside.  One is read
by an attribute in load context, ``obj.name`` but not ``obj.name = x``
and not ``getattr(obj, "name")``, outside the member's own definition; in
a workflow file every word after a dot counts.  Members are matched by
name alone, so a read of one class's ``members`` keeps every class's
alive.  A field that only its own class fills and no product reads is a
fact computed for nobody.
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
DOTTED = re.compile(r"\.([A-Za-z_]\w*)")


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


def attribute_reads(tree: ast.AST) -> Counter:
    """How often each attribute name is read, in load context, under ``tree``."""
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def class_members(tree: ast.AST) -> list[tuple[str, str, ast.AST]]:
    """(class, member, defining statement) of every annotated field,
    property and method of the classes under ``tree``, dunders left out."""
    out = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            else:
                continue
            if not name.startswith("__"):
                out.append((cls.name, name, node))
    return out


def dead_members(module: ast.Module, reads: Counter) -> list[str]:
    """``Class.member`` for each class member of ``module`` that nothing
    outside its own definition reads; ``reads`` counts attribute reads in
    every source file, ``module`` included."""
    return [
        f"{cls}.{name}"
        for cls, name, node in class_members(module)
        if reads[name] <= attribute_reads(node)[name]
    ]


def test_scan_flags_an_unread_member():
    source = '''
from dataclasses import dataclass
from typing import NamedTuple
@dataclass(frozen=True)
class Record:
    """Record.in_docstring is not a read."""
    read: int
    written: int
    in_docstring: int
    def called(self):
        return 0
    def recursive(self):
        return self.recursive()
    @property
    def size(self):
        return self.read
    def __len__(self):
        return 0
class Pair(NamedTuple):
    left: int
    by_name: int
    unannotated = "not a field"
def use(record, pair):
    record.written = pair.left
    return record.size, record.called(), getattr(pair, "by_name")
'''
    tree = ast.parse(source)
    assert dead_members(tree, attribute_reads(tree)) == [
        "Record.written",
        "Record.in_docstring",
        "Record.recursive",
        "Pair.by_name",
    ]


def product_sources(root: Path) -> tuple[list[ast.Module], list[str]]:
    """The parsed Python files under ``root/src`` and ``root/bench``, the
    package's ``__init__.py`` and every ``tests`` directory left out, and
    the text of the workflow files of ``root``."""
    trees = [
        ast.parse(path.read_text())
        for top in ("src", "bench")
        for path in (root / top).rglob("*.py")
        if "tests" not in path.relative_to(root).parts
        and not path.relative_to(root).match("src/*/__init__.py")
    ]
    workflows = [path.read_text() for path in (root / ".github" / "workflows").glob("*.yml")]
    return trees, workflows


def product_references(root: Path) -> Counter:
    """References in the product's Python files, plus every word of its
    workflow files (see :func:`product_sources`)."""
    trees, workflows = product_sources(root)
    total: Counter = Counter()
    for tree in trees:
        total += references(tree)
    for text in workflows:
        total.update(WORD.findall(text))
    return total


def product_attribute_reads(root: Path) -> Counter:
    """Attribute reads in the product's Python files, plus every word after
    a dot in its workflow files (see :func:`product_sources`)."""
    trees, workflows = product_sources(root)
    total: Counter = Counter()
    for tree in trees:
        total += attribute_reads(tree)
    for text in workflows:
        total.update(DOTTED.findall(text))
    return total


def test_scan_counts_products_not_tests(tmp_path):
    files = {
        "src/pkg/mod.py": "def run(): pass\ndef snippet(): pass\n"
        "def benched(): pass\ndef exported(): pass\ndef tested(): pass\n"
        "class Box:\n    ran: int\n    benched: int\n    snippet: int\n"
        "    exported: int\n    tested: int\n",
        "src/pkg/__init__.py": "from .mod import exported\nexported().exported\n",
        "src/pkg/cli.py": "from .mod import Box, run\ndef show(box): return box.ran\n",
        "bench/run.py": "from pkg.mod import benched\ndef go(box): return box.benched\n",
        "bench/tests/test_bench.py": "from pkg.mod import tested\ntested().tested\n",
        "tests/test_mod.py": "from pkg.mod import exported, tested\ntested().tested\n",
        ".github/workflows/ci.yml": "run: python -c 'from pkg.mod import snippet; snippet().snippet'\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    module = ast.parse(files["src/pkg/mod.py"])
    assert dead_definitions(module, product_references(tmp_path)) == [
        "exported",
        "tested",
    ]
    assert dead_members(module, product_attribute_reads(tmp_path)) == [
        "Box.exported",
        "Box.tested",
    ]


@pytest.fixture(scope="module")
def everywhere() -> Counter:
    return product_references(ROOT)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_definitions_are_used(path, everywhere):
    assert dead_definitions(ast.parse(path.read_text()), everywhere) == []


@pytest.fixture(scope="module")
def reads() -> Counter:
    return product_attribute_reads(ROOT)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_class_members_are_read(path, reads):
    assert dead_members(ast.parse(path.read_text()), reads) == []
