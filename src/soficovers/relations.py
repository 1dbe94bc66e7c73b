"""Boolean reachability relations of labeled paths.

For a word w, the relation holds (u, v) exactly when some path labeled w
runs from u to v.  Rows are vertex bitmasks, so composition is one
integer OR per vertex in each row.

The closure of the single-symbol relations under composition, the
transition monoid, is finite; every element has an idempotent power
inside it.  Ranges of idempotent-led products are precisely the endpoint
sets of left-infinite labeled paths, which is what the stabilized covers
are built from, so the monoid's idempotents seed the stable family.
:func:`transition_monoid` interns every row reachable from a singleton
once, with its step along each symbol, and then searches breadth-first
over the elements as strings of row ids: bytes, whose product with a
symbol is one ``bytes.translate``, or tuples when the rows take more
than 256 ids.  The search keeps a parent and a symbol per element, not
a word, and rebuilds the words once it ends.  On a right-resolving
graph whose rows fit in a byte every row is empty or one vertex, so an
element squares by translating its own row ids through themselves;
other graphs flag the idempotents by walking the right Cayley graph the
search records.  The result is kept on the graph: each graph's monoid
is generated once, however many constructions read it.  It keeps one
word per element and the ranges, domains and words of the idempotents,
which is all the constructions read.

For one word the constructions walk vertex masks instead of composing
relations: the past and forward sets of a periodic word come from
:func:`analysis.past_masks` and :func:`analysis.forward_masks`.
Composition and the stabilized range stay here for the tail oracle
(``covers.stable_sets_from_tails``), the independent route to the
stable family.  The word relations, their idempotent powers and
stabilized domains, which the tests hold the walks to, live in the
tests (``tests/test_relations.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import BudgetExceededError
from .graphs import LabeledGraph, bits, kept, mask_image

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


def symbol_relation(g: LabeledGraph, symbol: int) -> BoolRelation:
    return BoolRelation(len(g.vertices), g.index.rows[symbol])


@dataclass(eq=False, repr=False)
class TransitionMonoid:
    """Closure of the single-symbol relations under composition.

    ``words`` holds one witness word per element of the monoid, in
    breadth-first (shortest word first, symbols in alphabet order)
    discovery order; ``idempotent_flags[i]`` says whether the relation of
    ``words[i]`` composed with itself is itself.  ``idempotent_ends`` holds
    the ranges, domains and words of the idempotents in monoid order: the
    sources of the stable and co-stable closures.  The elements themselves
    are not kept; each is the product of the symbol relations along its word.
    """

    words: list[tuple[int, ...]]
    idempotent_flags: list[bool]
    idempotent_ends: tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]

    def __len__(self) -> int:
        return len(self.words)

    def idempotent_indices(self) -> list[int]:
        return [i for i, flag in enumerate(self.idempotent_flags) if flag]


def transition_monoid(
    g: LabeledGraph, budget: int = DEFAULT_MONOID_BUDGET
) -> TransitionMonoid:
    """The full transition monoid of ``g``, generated on first use.

    The finished monoid is kept on the graph (:func:`graphs.kept`).
    Raises BudgetExceededError (CLI exit 3) when the monoid has more than
    ``budget`` elements, whether it is generated now or was kept from an
    earlier call; a generation that overruns keeps nothing.
    """
    monoid = kept(g, "_transition_monoid", lambda g: _generate_monoid(g, budget))
    if len(monoid) > budget:
        raise _overrun(budget)
    return monoid


def _overrun(budget: int) -> BudgetExceededError:
    return BudgetExceededError(f"transition monoid exceeds {budget} elements")


def _generate_monoid(g: LabeledGraph, budget: int) -> TransitionMonoid:
    """Breadth-first search over the elements as strings of row ids.

    Row u of x·a is the ``a``-step of row u of x.  So the rows reachable
    from the singletons are interned first (:func:`_row_table`), and an
    element is the string of its n row ids: x·a is x with each id
    replaced by its ``a``-step's id.  When every id fits in a byte, the
    string is a ``bytes`` and the product is one ``bytes.translate``;
    otherwise the same search runs on tuples of ids through
    ``operator.itemgetter``.

    The search keeps no word per element.  It fills the right Cayley
    graph as one flat list, ``right[i * k + a]`` being the index of
    found[i]·a for k symbols, and records where each element was first
    found: ``origin[j]`` is that position in ``right`` (parent
    ``origin[j] // k``, last symbol ``origin[j] % k``), or ``a - k`` for
    the generator of symbol a.  The words are rebuilt from ``origin`` in
    one pass once the search ends.

    An element e is idempotent exactly when e·e = e.  On a right-resolving
    graph every row is empty (id 0) or one vertex v (id v + 1), which
    ``len(masks) == n + 1`` detects.  Row u of e·e is then row v of e
    when row u of e is {v}, so while the ids fit in a byte e·e is one
    ``bytes.translate`` of e's own row ids through ``b"\\0" + e``.  On
    every other graph e is idempotent exactly when following e's own
    word from e along ``right`` comes back to e.  The range and domain
    of each idempotent are read off its row ids.
    """
    masks, step = _row_table(g, budget)
    n = len(g.vertices)
    k = len(step)
    if len(masks) <= 256:
        tables: list = [bytes(ids) + bytes(256 - len(ids)) for ids in step]
        ident: Sequence[int] = bytes(range(1, n + 1))
        product = bytes.translate
    else:
        # More than 256 distinct vertex sets need at least 9 vertices, so
        # itemgetter gets several keys and returns a tuple.
        tables = step
        ident = tuple(range(1, n + 1))
        product = lambda x, s: itemgetter(*x)(s)
    found: list = []
    origin: list[int] = []
    index: dict = {}
    for a, table in enumerate(tables):
        x = product(ident, table)
        if x not in index:
            if len(found) >= budget:
                raise _overrun(budget)
            index[x] = len(found)
            found.append(x)
            origin.append(a - k)
    right: list[int] = []
    size = len(found)
    for x in found:  # found grows as the search runs
        for table in tables:
            y = product(x, table)
            j = index.get(y)
            if j is None:
                if size >= budget:
                    raise _overrun(budget)
                j = index[y] = size
                found.append(y)
                origin.append(len(right))
                size += 1
            right.append(j)
    words: list[tuple[int, ...]] = []
    for o in origin:
        words.append((o + k,) if o < 0 else words[o // k] + (o % k,))
    if len(masks) == n + 1 <= 256:
        pad = bytes(255 - n)
        flags = [x.translate(b"\0" + x + pad) == x for x in found]
    else:
        flags = []
        for e, word in enumerate(words):
            j = e
            for a in word:
                j = right[j * k + a]
            flags.append(j == e)
    ranges, domains, ends = [], [], []
    for e, flag in enumerate(flags):
        if flag:
            ran = dom = 0
            for u, r in enumerate(found[e]):
                if r:
                    ran |= masks[r]
                    dom |= 1 << u
            ranges.append(ran)
            domains.append(dom)
            ends.append(words[e])
    return TransitionMonoid(words, flags, (tuple(ranges), tuple(domains), tuple(ends)))


def _row_table(g: LabeledGraph, budget: int) -> tuple[list[int], list[list[int]]]:
    """Every row mask reachable from a singleton, and its step along each
    symbol by id.

    Id 0 is the empty set and ids 1..n the singletons; ``step[a][r]`` is
    the id of the ``a``-step of ``masks[r]``.  Every other id is a row of
    some element of the monoid, so more than ``n * budget + n + 1`` ids
    mean more than ``budget`` elements.
    """
    base = g.index.rows
    n = len(g.vertices)
    masks = [0] + [1 << v for v in range(n)]
    ids = dict(zip(masks, range(n + 1)))
    limit = n * budget + n + 1
    step: list[list[int]] = [[0] for _ in base]  # the empty row stays empty
    r = 1
    while r < len(masks):
        mask = masks[r]
        for rows, out in zip(base, step):
            image = mask_image(rows, mask)
            t = ids.get(image)
            if t is None:
                if len(masks) >= limit:
                    raise _overrun(budget)
                t = ids[image] = len(masks)
                masks.append(image)
            out.append(t)
        r += 1
    return masks, step


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
