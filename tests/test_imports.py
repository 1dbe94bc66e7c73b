"""Every name a package module imports is used in that module.

No linter runs on the package, so this scan stands in for one: it parses
each module except ``__init__.py`` (whose imports are re-exports), each
test file and each benchmark file, and fails on an imported name that
the file never references.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "soficovers").glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("bench/**/*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == ["os", "c"]


@pytest.mark.parametrize(
    "path",
    MODULES + SCRIPTS,
    ids=[p.name for p in MODULES] + [str(p.relative_to(ROOT)) for p in SCRIPTS],
)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
