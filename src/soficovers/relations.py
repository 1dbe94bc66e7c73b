"""Boolean reachability relations of labeled paths.

For a word w, the relation holds (u, v) exactly when some path labeled w
runs from u to v.  Rows are vertex bitmasks, so composition is one
integer OR per vertex in each row.

The closure of the single-symbol relations under composition is finite;
every element has an idempotent power inside it.  Ranges of idempotent-led
products are precisely the endpoint sets of left-infinite labeled paths,
which is what the stabilized covers are built from.

The transition monoid still seeds the stable family.  For one word,
though, the constructions walk vertex masks instead of composing
relations: the past and forward sets of a periodic word come from
:func:`analysis.past_masks` and :func:`analysis.forward_masks`.  The
word relations, their idempotent powers and their stabilized ranges and
domains stay here as the independent route: the tail oracle
(``covers.stable_sets_from_tails``), the tail-configuration check in
``verification`` and the tests hold the walks to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BudgetExceededError
from .graphs import LabeledGraph, bits, mask_image

DEFAULT_MONOID_BUDGET = 200_000


def mask_of(members: Iterable[int]) -> int:
    m = 0
    for v in members:
        m |= 1 << v
    return m


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


@dataclass(frozen=True)
class BoolRelation:
    """Relation on {0..size-1}; bit v of rows[u] means (u, v) holds."""

    size: int
    rows: tuple[int, ...]

    def compose(self, other: "BoolRelation") -> "BoolRelation":
        out = []
        for row in self.rows:
            acc = 0
            rest = row
            while rest:
                v = (rest & -rest).bit_length() - 1
                acc |= other.rows[v]
                rest &= rest - 1
            out.append(acc)
        return BoolRelation(self.size, tuple(out))

    def image(self, mask: int) -> int:
        return mask_image(self.rows, mask)

    def ran_mask(self) -> int:
        acc = 0
        for row in self.rows:
            acc |= row
        return acc

    def dom_mask(self) -> int:
        return mask_of(u for u, row in enumerate(self.rows) if row)

    def is_empty(self) -> bool:
        return all(row == 0 for row in self.rows)

    def is_idempotent(self) -> bool:
        return self.compose(self) == self

    def transpose(self) -> "BoolRelation":
        rows = [0] * self.size
        for u, row in enumerate(self.rows):
            rest = row
            while rest:
                v = (rest & -rest).bit_length() - 1
                rows[v] |= 1 << u
                rest &= rest - 1
        return BoolRelation(self.size, tuple(rows))


def identity_relation(size: int) -> BoolRelation:
    return BoolRelation(size, tuple(1 << v for v in range(size)))


def symbol_relation(g: LabeledGraph, symbol: int) -> BoolRelation:
    return BoolRelation(len(g.vertices), g.index.rows[symbol])


def word_relation(g: LabeledGraph, word: Sequence[int]) -> BoolRelation:
    rels = {a: symbol_relation(g, a) for a in set(word)}
    rel = identity_relation(len(g.vertices))
    for a in word:
        rel = rel.compose(rels[a])
    return rel


def omega_power(rel: BoolRelation, budget: int = 1_000_000) -> BoolRelation:
    """The unique idempotent power of ``rel``.

    Powers of a single relation form a cyclic semigroup, so the first
    idempotent encountered is the only one.  The budget is a safety net;
    at desk scale the loop ends after a few steps.
    """
    power = rel
    for _ in range(budget):
        if power.compose(power) == power:
            return power
        power = power.compose(rel)
    raise BudgetExceededError("no idempotent power found within budget", budget)


class TransitionMonoid:
    """Closure of the single-symbol relations under composition.

    ``elements`` are the relations of nonempty words, in breadth-first
    (shortest word first, symbols in alphabet order) discovery order, with
    one witness word each. The empty-word identity is kept on the side: it
    is the unit of the monoid but carries left-tail semantics only when
    some nonempty word happens to realize it, in which case it also shows
    up in ``elements``.
    """

    def __init__(
        self,
        elements: list[BoolRelation],
        words: list[tuple[int, ...]],
        identity: BoolRelation,
        generators: list[int],
    ):
        self.elements = elements
        self.words = words
        self.identity = identity
        self.generators = generators  # symbol -> element index
        self.index = {rel.rows: i for i, rel in enumerate(elements)}
        self.idempotent_flags = [rel.is_idempotent() for rel in elements]

    def __len__(self) -> int:
        return len(self.elements)

    def idempotent_indices(self) -> list[int]:
        return [i for i, flag in enumerate(self.idempotent_flags) if flag]

    def word_of(self, index: int) -> tuple[int, ...]:
        return self.words[index]


def transition_monoid(
    g: LabeledGraph, budget: int = DEFAULT_MONOID_BUDGET
) -> TransitionMonoid:
    """Generate the full transition monoid of ``g``.

    Raises BudgetExceededError (CLI exit 3) when the closure would exceed
    ``budget`` elements.
    """
    n_sym = len(g.symbols)
    base = [symbol_relation(g, a) for a in range(n_sym)]
    elements: list[BoolRelation] = []
    words: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    generators: list[int] = []
    for a, rel in enumerate(base):
        if rel.rows not in index:
            index[rel.rows] = len(elements)
            elements.append(rel)
            words.append((a,))
        generators.append(index[rel.rows])
    todo = list(range(len(elements)))
    while todo:
        i = todo.pop(0)
        for a, gen in enumerate(base):
            rel = elements[i].compose(gen)
            if rel.rows not in index:
                if len(elements) >= budget:
                    raise BudgetExceededError(
                        f"transition monoid exceeds {budget} elements", budget
                    )
                index[rel.rows] = len(elements)
                elements.append(rel)
                words.append(words[i] + (a,))
                todo.append(len(elements) - 1)
    return TransitionMonoid(elements, words, identity_relation(len(g.vertices)), generators)


def stabilized_range(rel: BoolRelation) -> int:
    """Limit of ran(rel^k): endpoints of left-infinite paths through rel-blocks.

    ran(rel^(k+1)) is the rel-image of ran(rel^k) and the sequence is
    decreasing, so the first repeat is the limit.
    """
    mask = rel.ran_mask()
    while True:
        nxt = rel.image(mask)
        if nxt == mask:
            return mask
        mask = nxt


def stabilized_domain(rel: BoolRelation) -> int:
    """Limit of dom(rel^k): start vertices of right-infinite rel-block paths."""
    return stabilized_range(rel.transpose())
