"""Bundled example graphs and their frozen expected constructions.

The bases are small presentations exercised throughout the test suite and
by the ``verify-paper`` command; the ``*_expected`` entries are frozen
derived graphs that the constructions must reproduce up to
label-preserving isomorphism.
"""

from __future__ import annotations

import json
from importlib import resources

from .graphs import LabeledGraph, build_graph

BASE_FIXTURES: tuple[str, ...] = (
    "example_a",
    "example_b",
    "even_shift",
    "single_loop",
    "two_renamed_loops",
    "two_loops_vs_one",
    "chain_stabilization",
)

# fixture name -> construction key -> expected-graph resource
EXPECTED_GRAPHS: dict[str, dict[str, str]] = {
    "example_a": {
        "subset_full": "example_a_subset_full",
        "stable_core": "example_a_stable_core",
        "fiber_core": "example_a_fiber_core",
    },
    "example_b": {
        "stable_core": "example_b_stable_core",
        "extended_core": "example_b_stable_core",
    },
}


def load_fixture(name: str) -> LabeledGraph:
    """Load a bundled graph (base or expected) by resource name."""
    ref = resources.files(__package__) / "fixtures" / f"{name}.json"
    try:
        text = ref.read_text()
    except FileNotFoundError:
        raise KeyError(f"no bundled fixture named {name!r}") from None
    return build_graph(json.loads(text))
