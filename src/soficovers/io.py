"""File formats: graphs, block codes, conjugacy squares, DOT export.

All formats are JSON with a ``"format": 1`` version field.  Derived
graphs serialize to the same graph format plus a ``"provenance"`` block
(member sets, witnesses, factor maps); parsers ignore unknown keys, so
derived files round-trip through :func:`load_graph`.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from typing import Any, Optional

from .errors import GraphFormatError
from .graphs import (
    LabeledGraph,
    PeriodicWord,
    _format_one,
    _names,
    build_graph,
    normalize_periodic,
)
from .analysis import CoverBundle
from .codes import ConjugacySquare, SlidingBlockCode, rule_entries
from .covers import StableCore, SubsetFamily, SubsetGraph
from .fibers import BundleGraph, FiberCore


def graph_to_data(g: LabeledGraph, provenance: Optional[Mapping] = None) -> dict:
    symbols, vertices = g.symbols, g.vertices
    data: dict[str, Any] = {
        "format": 1,
        "alphabet": list(symbols),
        "vertices": list(vertices),
        "edges": [
            {"from": vertices[u], "label": symbols[a], "to": vertices[v]} for u, a, v in g.edges
        ],
    }
    if provenance is not None:
        data["provenance"] = dict(provenance)
    return data


def _read_json(path: str) -> Any:
    """Parse a UTF-8 JSON file; bytes that do not decode, text that does
    not parse, an integer literal past Python's digit limit and nesting
    past the recursion limit all raise :class:`GraphFormatError` naming
    the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise GraphFormatError(f"{path}: JSON nests too deeply to read") from None
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError among them
        raise GraphFormatError(f"{path}: not valid JSON ({exc})") from None


def _graph_at(data: Any, where: str) -> LabeledGraph:
    """:func:`build_graph` with its errors prefixed by ``where``."""
    try:
        return build_graph(data)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{where}: {exc}") from None


def load_graph(path: str) -> LabeledGraph:
    return _graph_at(_read_json(path), path)


def subset_provenance(family: SubsetFamily) -> dict:
    """Provenance of a subset family: its kind, base vertices and member
    sets, then the witnesses of a StableCore, the member edges of a
    BundleGraph or FiberCore, the seed sets of a FiberCore, and the mode of
    a SubsetGraph or BundleGraph, in that order."""
    base = family.base
    prov: dict[str, Any] = {
        "kind": type(family).__name__,
        "base_vertices": list(base.vertices),
        "members": [sorted(base.vertices[v] for v in s) for s in family.members],
    }
    if isinstance(family, StableCore):
        prov["witnesses"] = [
            {
                "idempotent_word": [base.symbols[a] for a in u],
                "continuation_word": [base.symbols[a] for a in v],
            }
            for (u, v) in family.witnesses
        ]
    if isinstance(family, (BundleGraph, FiberCore)):
        prov["member_edges"] = [
            [base.edge_name(k) for k in edges] for edges in family.member_edges
        ]
    if isinstance(family, FiberCore):
        prov["seeds"] = [
            {
                "detail": s.detail,
                "members": sorted(base.vertices[v] for v in s.members),
            }
            for s in family.seeds
        ]
    if isinstance(family, (SubsetGraph, BundleGraph)):
        prov["mode"] = family.mode
    return prov


def factor_provenance(origin: LabeledGraph, bundle: CoverBundle) -> dict:
    """Provenance of the follower merge of ``origin``."""
    return {
        "kind": "CoverBundle",
        "origin_vertices": list(origin.vertices),
        "classes": [[origin.vertices[v] for v in cls] for cls in bundle.classes],
        "factor_vertex": list(bundle.factor_vertex),
    }


def code_to_data(code: SlidingBlockCode) -> dict:
    return {
        "format": 1,
        "window_radius": code.radius,
        "input_alphabet": list(code.input_alphabet),
        "output_alphabet": list(code.output_alphabet),
        "rules": [
            {"block": list(block), "out": out} for block, out in rule_entries(code)
        ],
    }


def code_from_data(data: Mapping, where: str = "code") -> SlidingBlockCode:
    """Validate and build a block code; ``format`` must be the integer 1,
    the radius a nonnegative integer, every symbol, block entry and output a
    string, and no alphabet may repeat a symbol.  The rule is keyed by
    alphabet indices: this is where a code's names become indices."""
    if not isinstance(data, Mapping):
        raise GraphFormatError(f"{where}: must be a mapping")
    _format_one(data, f"{where}: ")
    radius = data.get("window_radius")
    if type(radius) is not int or radius < 0:
        raise GraphFormatError(f"{where}: 'window_radius' must be a nonnegative integer")
    for key in ("input_alphabet", "output_alphabet", "rules"):
        if not isinstance(data.get(key), Sequence) or isinstance(data.get(key), (str, bytes)):
            raise GraphFormatError(f"{where}: {key!r} must be a list")
    input_alphabet = _names(data["input_alphabet"], f"{where}: input_alphabet")
    output_alphabet = _names(data["output_alphabet"], f"{where}: output_alphabet")
    in_index = {s: k for k, s in enumerate(input_alphabet)}
    out_index = {s: k for k, s in enumerate(output_alphabet)}
    if len(in_index) < len(input_alphabet) or len(out_index) < len(output_alphabet):
        raise GraphFormatError(f"{where}: an alphabet repeats a symbol")
    rule: dict[tuple[int, ...], int] = {}
    for pos, rec in enumerate(data["rules"]):
        spot = f"{where}: rules[{pos}]"
        if not isinstance(rec, Mapping) or "block" not in rec or "out" not in rec:
            raise GraphFormatError(f"{spot}: need 'block' and 'out'")
        block = _names(rec["block"], f"{spot}: block")
        out = rec["out"]
        if not isinstance(out, str):
            raise GraphFormatError(f"{spot}: 'out' must be a string, got {out!r}")
        if len(block) != 2 * radius + 1:
            raise GraphFormatError(
                f"{spot}: block length {len(block)} != {2 * radius + 1}"
            )
        for s in block:
            if s not in in_index:
                raise GraphFormatError(f"{spot}: unknown input symbol {s!r}")
        if out not in out_index:
            raise GraphFormatError(f"{spot}: unknown output symbol {out!r}")
        key = tuple(in_index[s] for s in block)
        if rule.setdefault(key, out_index[out]) != out_index[out]:
            raise GraphFormatError(f"{spot}: conflicting rule for block {block!r}")
    return SlidingBlockCode(input_alphabet, output_alphabet, radius, rule)


def load_code(path: str) -> SlidingBlockCode:
    return code_from_data(_read_json(path), where=path)


def square_to_data(square: ConjugacySquare) -> dict:
    return {
        "format": 1,
        "graph_g": graph_to_data(square.graph_g),
        "graph_h": graph_to_data(square.graph_h),
        "edge_code": code_to_data(square.edge_code),
        "edge_code_inv": code_to_data(square.edge_code_inv),
        "label_code": code_to_data(square.label_code),
        "label_code_inv": code_to_data(square.label_code_inv),
    }


def square_from_data(data: Mapping, where: str = "square") -> ConjugacySquare:
    if not isinstance(data, Mapping):
        raise GraphFormatError(f"{where}: must be a mapping")
    _format_one(data, f"{where}: ")
    for key in ("graph_g", "graph_h", "edge_code", "edge_code_inv",
                "label_code", "label_code_inv"):
        if key not in data:
            raise GraphFormatError(f"{where}: missing key {key!r}")
    return ConjugacySquare(
        _graph_at(data["graph_g"], f"{where}: graph_g"),
        _graph_at(data["graph_h"], f"{where}: graph_h"),
        code_from_data(data["edge_code"], f"{where}: edge_code"),
        code_from_data(data["edge_code_inv"], f"{where}: edge_code_inv"),
        code_from_data(data["label_code"], f"{where}: label_code"),
        code_from_data(data["label_code_inv"], f"{where}: label_code_inv"),
    )


def load_square(path: str) -> ConjugacySquare:
    return square_from_data(_read_json(path), where=path)


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: LabeledGraph, name: str = "G") -> str:
    """Deterministic DOT text; write-only (not parsed back).  Each vertex
    and symbol name is quoted once."""
    vertices = [_dot_quote(v) for v in g.vertices]
    labels = [f" [label={_dot_quote(a)}];" for a in g.symbols]
    lines = [f"digraph {_dot_quote(name)} {{"]
    lines += [f"  {v};" for v in vertices]
    lines += [f"  {vertices[u]} -> {vertices[v]}{labels[a]}" for u, a, v in g.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_periodic(g: LabeledGraph, text: str) -> PeriodicWord:
    """Parse one period of a periodic word.

    Comma-separated symbol names always work; without commas the text is
    taken as one symbol if it names one, else split character by character.
    """
    if not text:
        raise GraphFormatError("empty periodic word")
    if "," in text:
        parts = [p for p in text.split(",") if p]
    elif text in g.symbols:
        parts = [text]
    else:
        parts = list(text)
    if not parts:
        raise GraphFormatError(f"periodic word {text!r} names no symbol")
    indices = []
    for p in parts:
        if p not in g.symbols:
            raise GraphFormatError(
                f"unknown symbol {p!r}; graph alphabet is {list(g.symbols)}"
            )
        indices.append(g.symbols.index(p))
    return normalize_periodic(tuple(indices))
