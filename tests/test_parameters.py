"""Every defaulted parameter of a package function is set by some call.

A companion to ``test_definitions.py``: it parses every module under
``src/soficovers`` for the module-level functions and the methods with
default values, and every call in ``src/``, ``tests/`` and ``bench/``.
A defaulted parameter is set when some call by the function's name passes
it by position, by keyword, or through ``*args`` (every position) or
``**kwargs`` (every keyword); a class name calls its ``__init__``.  Calls
are matched by name alone, so a call to another function of the same name
counts as well: the scan may miss an unset parameter, but it flags none
that a call sets.  A parameter no call sets has only its default value,
so it belongs in the body as a constant; a new option arrives with a
caller that sets it.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class CallSites:
    """What the calls by one name pass: the most positional arguments,
    every keyword, and whether some call spreads ``*`` or ``**``."""

    positions: int = 0
    keywords: set[str] = field(default_factory=set)
    star: bool = False
    double_star: bool = False


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int, str]]:
    """(owner, call name, positional index or -1, parameter) for every
    parameter with a default of a module-level function or method; a
    method's index leaves out ``self`` or ``cls``, and -1 marks a
    keyword-only parameter."""
    found = []
    functions = [(None, node) for node in tree.body]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            functions += [(node.name, item) for item in node.body]
    for cls, fn in functions:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
        )
        skip = 1 if cls is not None and not static else 0
        name = cls if fn.name == "__init__" else fn.name
        owner = fn.name if cls is None else f"{cls}.{fn.name}"
        first = len(positional) - len(args.defaults)
        for i in range(first, len(positional)):
            found.append((owner, name, i - skip, positional[i].arg))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((owner, name, -1, arg.arg))
    return found


def call_sites(tree: ast.AST) -> dict[str, CallSites]:
    """What the calls under ``tree`` pass, by called name."""
    sites: dict[str, CallSites] = defaultdict(CallSites)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            site = sites[node.func.id]
        elif isinstance(node.func, ast.Attribute):
            site = sites[node.func.attr]
        else:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args):
            site.star = True
        site.positions = max(site.positions, len(node.args))
        for kw in node.keywords:
            if kw.arg is None:
                site.double_star = True
            else:
                site.keywords.add(kw.arg)
    return sites


def unset_parameters(
    modules: dict[str, ast.Module], sites: dict[str, CallSites]
) -> list[str]:
    """``module.owner(parameter)`` for each defaulted parameter that no
    call in ``sites`` passes."""
    unset = []
    for module, tree in modules.items():
        for owner, name, index, param in defaulted_parameters(tree):
            site = sites.get(name, CallSites())
            if site.double_star or param in site.keywords:
                continue
            if index >= 0 and (site.star or site.positions > index):
                continue
            unset.append(f"{module}.{owner}({param})")
    return unset


def scan(root: Path) -> list[str]:
    """The unset defaulted parameters of the package under ``root``."""
    package = root / "src" / "soficovers"
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    everywhere = [
        node
        for top in ("src", "tests", "bench")
        for path in sorted((root / top).rglob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    return unset_parameters(modules, call_sites(ast.Module(everywhere, [])))


def test_scan_flags_an_unset_parameter():
    package = ast.parse(
        '''
def by_position(a, b=1, c=2): pass
def by_keyword(a, b=1, *, c=2, d=3): pass
def by_star(a, b=1): pass
def by_double_star(a, *, b=1): pass
class Box:
    def __init__(self, size=1, colour="red"): pass
    def fill(self, amount=1): pass
    @staticmethod
    def make(kind="plain"): pass
'''
    )
    callers = ast.parse(
        '''
by_position(0, 1)
by_keyword(0, c=5)
by_star(*args)
by_double_star(0, **options)
Box(3).fill()
Box.make("fancy")
'''
    )
    assert unset_parameters({"m": package}, call_sites(callers)) == [
        "m.by_position(c)",
        "m.by_keyword(b)",
        "m.by_keyword(d)",
        "m.Box.__init__(colour)",
        "m.Box.fill(amount)",
    ]


def test_every_defaulted_parameter_is_set_somewhere():
    assert scan(ROOT) == []
