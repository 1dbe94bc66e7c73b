import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficovers import BudgetExceededError, LabeledGraph, exit_code_for, load_fixture
from soficovers.relations import (
    BoolRelation,
    _row_table,
    identity_relation,
    omega_power,
    stabilized_domain,
    stabilized_range,
    symbol_relation,
    transition_monoid,
    word_relation,
)


def relation(rows):
    return BoolRelation(len(rows), tuple(rows))


def is_idempotent(rel):
    return rel.compose(rel) == rel


def test_symbol_relation_matches_edges(example_b):
    s = example_b.symbols.index
    r = symbol_relation(example_b, s("1"))
    # label 1: a->a and b->a
    assert r.ran_mask() == 0b1
    assert r.dom_mask() == 0b11


def test_word_relation_is_composition(example_a):
    s = example_a.symbols.index
    word = (s("0"), s("2"), s("3"))
    step = symbol_relation(example_a, word[0])
    for a in word[1:]:
        step = step.compose(symbol_relation(example_a, a))
    assert word_relation(example_a, word) == step


def test_identity_is_neutral():
    r = relation([0b10, 0b01, 0b110])
    ident = identity_relation(3)
    assert ident.compose(r) == r
    assert r.compose(ident) == r


def test_omega_power_idempotent(example_a):
    for a in range(len(example_a.symbols)):
        e = omega_power(symbol_relation(example_a, a))
        assert is_idempotent(e)
        assert e.compose(e) == e


def test_omega_power_needs_iteration():
    chain = load_fixture("chain_stabilization")
    s = chain.symbols.index
    r = symbol_relation(chain, s("a"))
    assert r.ran_mask() == 0b110  # one step reaches {2,3}
    assert stabilized_range(r) == 0b100  # only 3 survives the tail
    e = omega_power(r)
    assert is_idempotent(e)
    assert e != r


def test_monoid_closed_under_composition(example_b):
    monoid = transition_monoid(example_b)
    relations = [word_relation(example_b, word) for word in monoid.words]
    elements = set(relations)
    assert len(elements) == len(monoid)
    for x in relations:
        for y in relations:
            product = x.compose(y)
            if not product.is_empty():
                assert product in elements


def test_monoid_words_reproduce_elements(example_a):
    monoid = transition_monoid(example_a)
    relations = [word_relation(example_a, word) for word in monoid.words]
    assert len(set(relations)) == len(monoid)
    assert [is_idempotent(rel) for rel in relations] == monoid.idempotent_flags


def test_monoid_budget_exceeded(example_a):
    with pytest.raises(BudgetExceededError) as exc:
        transition_monoid(example_a, budget=2)
    assert exit_code_for(exc.value) == 3


def test_monoid_is_kept_on_the_graph():
    g = load_fixture("example_a")
    monoid = transition_monoid(g)
    assert transition_monoid(g) is monoid
    assert transition_monoid(g, len(monoid)) is monoid
    assert transition_monoid(load_fixture("example_a")) is not monoid


def test_kept_monoid_keeps_the_budget():
    g = load_fixture("example_a")
    budget = len(transition_monoid(g)) - 1
    with pytest.raises(BudgetExceededError) as kept:
        transition_monoid(g, budget)
    with pytest.raises(BudgetExceededError) as fresh:
        transition_monoid(load_fixture("example_a"), budget)
    assert exit_code_for(kept.value) == 3
    assert str(kept.value) == str(fresh.value) == f"transition monoid exceeds {budget} elements"


def test_overrun_keeps_nothing():
    g = load_fixture("example_a")
    with pytest.raises(BudgetExceededError):
        transition_monoid(g, 2)
    monoid = transition_monoid(g)
    assert len(monoid) == 16
    assert transition_monoid(g) is monoid


@pytest.mark.parametrize("n", [255, 256])
def test_monoid_of_a_cycle_on_either_side_of_the_byte_width(n):
    """An n-cycle's rows take n + 1 ids: 256 fit in a byte, 257 do not.
    Either way its monoid is the cyclic group generated by the shift."""
    g = LabeledGraph(
        ("a",), tuple(f"c{i}" for i in range(n)), tuple((i, 0, (i + 1) % n) for i in range(n))
    )
    monoid = transition_monoid(g)
    assert len(_row_table(g, n)[0]) == n + 1
    assert monoid.words == [(0,) * k for k in range(1, n + 1)]
    assert monoid.idempotent_flags == [False] * (n - 1) + [True]
    full = (1 << n) - 1
    assert monoid.idempotent_ends == ((full,), (full,), ((0,) * n,))
    with pytest.raises(BudgetExceededError, match=f"^transition monoid exceeds {n - 1} elements$"):
        transition_monoid(g, n - 1)


def test_kept_monoid_leaves_equality_alone():
    g = load_fixture("example_b")
    transition_monoid(g)
    copy = load_fixture("example_b")
    assert g == copy and hash(g) == hash(copy) and repr(g) == repr(copy)
    assert {g: 1}[copy] == 1


def test_stabilized_range_is_omega_limit(example_a):
    s = example_a.symbols.index
    for word in ((s("0"),), (s("2"), s("3")), (s("0"), s("1"), s("2"))):
        rel = word_relation(example_a, word)
        assert stabilized_range(rel) == omega_power(rel).ran_mask()
        assert stabilized_domain(rel) == omega_power(rel).dom_mask()


masks = st.integers(0, 15)
relations4 = st.builds(lambda rows: relation(rows), st.lists(masks, min_size=4, max_size=4))


@settings(max_examples=60, deadline=None)
@given(relations4, relations4, relations4)
def test_compose_associative(r1, r2, r3):
    assert r1.compose(r2).compose(r3) == r1.compose(r2.compose(r3))


@settings(max_examples=60, deadline=None)
@given(relations4)
def test_omega_power_property(r):
    e = omega_power(r)
    assert is_idempotent(e)
    # omega power is a power of r, hence commutes with it
    assert e.compose(r) == r.compose(e)
