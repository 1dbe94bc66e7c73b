"""File formats: graphs, block codes, conjugacy squares, DOT export.

All formats are JSON with a ``"format": 1`` version field.  Derived
graphs serialize to the same graph format plus a ``"provenance"`` block
(member sets, witnesses, factor maps); parsers ignore unknown keys, so
derived files round-trip through :func:`load_graph`.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional, Sequence, TextIO

from .errors import GraphFormatError
from .graphs import (
    LabeledGraph,
    PeriodicWord,
    _format_one,
    _names,
    build_graph,
    normalize_periodic,
)
from .codes import ConjugacySquare, SlidingBlockCode, rule_entries


def graph_to_data(g: LabeledGraph, provenance: Optional[Mapping] = None) -> dict:
    data: dict[str, Any] = {
        "format": 1,
        "alphabet": list(g.symbols),
        "vertices": list(g.vertices),
        "edges": [
            {"from": g.vertices[u], "label": g.symbols[a], "to": g.vertices[v]}
            for u, a, v in g.edges
        ],
    }
    if provenance is not None:
        data["provenance"] = dict(provenance)
    return data


def load_graph_data(data: Mapping) -> LabeledGraph:
    return build_graph(data)


def load_graph(path: str) -> LabeledGraph:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"{path}: not valid JSON ({exc})") from None
    try:
        return build_graph(data)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def dump_graph(g: LabeledGraph, fh: TextIO, provenance: Optional[Mapping] = None) -> None:
    json.dump(graph_to_data(g, provenance), fh, indent=2)
    fh.write("\n")


def _member_names(base: LabeledGraph, members: Sequence[frozenset[int]]) -> list[list[str]]:
    return [sorted(base.vertices[v] for v in s) for s in members]


def subset_provenance(cover) -> dict:
    """Provenance for SubsetGraph / StableCore style objects."""
    prov: dict[str, Any] = {
        "kind": type(cover).__name__,
        "base_vertices": list(cover.base.vertices),
        "members": _member_names(cover.base, cover.members),
    }
    witnesses = getattr(cover, "witnesses", None)
    if witnesses is not None:
        prov["witnesses"] = [
            {
                "idempotent_word": [cover.base.symbols[a] for a in u],
                "continuation_word": [cover.base.symbols[a] for a in v],
            }
            for (u, v) in witnesses
        ]
    mode = getattr(cover, "mode", None)
    if mode is not None:
        prov["mode"] = mode
    return prov


def bundle_provenance(bundle) -> dict:
    """Provenance for BundleGraph / FiberCore style objects."""
    prov: dict[str, Any] = {
        "kind": type(bundle).__name__,
        "base_vertices": list(bundle.base.vertices),
        "members": _member_names(bundle.base, bundle.members),
        "member_edges": [
            [bundle.base.edge_name(k) for k in be.members]
            for be in bundle.bundle_edges
        ],
    }
    seeds = getattr(bundle, "seeds", None)
    if seeds is not None:
        prov["seeds"] = [
            {
                "kind": s.kind,
                "detail": s.detail,
                "members": sorted(bundle.base.vertices[v] for v in s.members),
            }
            for s in seeds
        ]
    return prov


def factor_provenance(bundle) -> dict:
    """Provenance for CoverBundle (merged graph) objects."""
    return {
        "kind": "CoverBundle",
        "origin_vertices": list(bundle.origin.vertices),
        "classes": [
            [bundle.origin.vertices[v] for v in cls] for cls in bundle.classes
        ],
        "factor_vertex": list(bundle.factor_vertex),
    }


def code_to_data(code: SlidingBlockCode) -> dict:
    data: dict[str, Any] = {
        "format": 1,
        "window_radius": code.radius,
        "input_alphabet": list(code.input_alphabet),
        "output_alphabet": list(code.output_alphabet),
        "rules": [
            {"block": list(block), "out": out} for block, out in rule_entries(code)
        ],
    }
    if callable(code.rule):
        data["partial"] = True  # only evaluated entries are stored
    return data


def code_from_data(data: Mapping, where: str = "code") -> SlidingBlockCode:
    """Validate and build a block code; ``format`` must be the integer 1,
    the radius a nonnegative integer, and every symbol, block entry and
    output a string."""
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
    in_set, out_set = set(input_alphabet), set(output_alphabet)
    rule: dict[tuple[str, ...], str] = {}
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
            if s not in in_set:
                raise GraphFormatError(f"{spot}: unknown input symbol {s!r}")
        if out not in out_set:
            raise GraphFormatError(f"{spot}: unknown output symbol {out!r}")
        if block in rule and rule[block] != out:
            raise GraphFormatError(f"{spot}: conflicting rule for block {block!r}")
        rule[block] = out
    return SlidingBlockCode(input_alphabet, output_alphabet, radius, rule)


def load_code(path: str) -> SlidingBlockCode:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"{path}: not valid JSON ({exc})") from None
    return code_from_data(data, where=path)


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
        build_graph(data["graph_g"]),
        build_graph(data["graph_h"]),
        code_from_data(data["edge_code"], f"{where}: edge_code"),
        code_from_data(data["edge_code_inv"], f"{where}: edge_code_inv"),
        code_from_data(data["label_code"], f"{where}: label_code"),
        code_from_data(data["label_code_inv"], f"{where}: label_code_inv"),
    )


def load_square(path: str) -> ConjugacySquare:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"{path}: not valid JSON ({exc})") from None
    return square_from_data(data, where=path)


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: LabeledGraph, name: str = "G") -> str:
    """Deterministic DOT text; write-only (not parsed back)."""
    lines = [f"digraph {_dot_quote(name)} {{"]
    for v in g.vertices:
        lines.append(f"  {_dot_quote(v)};")
    for u, a, v in g.edges:
        lines.append(
            f"  {_dot_quote(g.vertices[u])} -> {_dot_quote(g.vertices[v])}"
            f" [label={_dot_quote(g.symbols[a])}];"
        )
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
