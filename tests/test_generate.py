from collections import Counter

import pytest

from polyrings import generate
from polyrings.errors import ConsistencyError
from polyrings.generate import (
    convex_polyominoes,
    fixed_polyominoes,
    stack_polyominoes,
    unimodal_compositions,
)
from polyrings.polyomino import is_convex, is_stack

from pool import convex_upto


def _by_size(it):
    counts = Counter()
    for p in it:
        counts[len(p)] += 1
    return counts


def test_fixed_counts():
    # 1, 2, 6, 19, 63, 216, 760: fixed polyominoes by cell count
    counts = _by_size(fixed_polyominoes(7))
    assert [counts[k] for k in range(1, 8)] == [1, 2, 6, 19, 63, 216, 760]


def test_convex_counts_and_membership():
    # 1, 2, 6, 19, 59, 176, 502, 1374, 3630: convex polyominoes by cell
    # count (OEIS A067675)
    counts = _by_size(convex_polyominoes(9))
    assert [counts[k] for k in range(1, 10)] == [1, 2, 6, 19, 59, 176, 502, 1374, 3630]
    got = {p.cells for p in convex_polyominoes(6)}
    want = {p.cells for p in fixed_polyominoes(6) if is_convex(p)}
    assert got == want


def test_stack_counts():
    counts = _by_size(stack_polyominoes(10))
    assert [counts[k] for k in range(1, 11)] == [
        1, 2, 4, 8, 15, 27, 47, 79, 130, 209,
    ]


def test_stack_generator_equals_filtered_fixed():
    got = {p.cells for p in stack_polyominoes(7)}
    want = {p.cells for p in fixed_polyominoes(7) if is_stack(p)}
    assert got == want


def test_generated_stacks_are_stacks_and_unique():
    seen = set()
    for p in stack_polyominoes(8):
        assert is_stack(p)
        assert p.cells not in seen
        seen.add(p.cells)


def test_unimodal_compositions_shape():
    for comp in unimodal_compositions(5):
        assert sum(comp) <= 5
        assert all(c >= 1 for c in comp)
        peak = comp.index(max(comp))
        assert list(comp[: peak + 1]) == sorted(comp[: peak + 1])
        assert list(comp[peak:]) == sorted(comp[peak:], reverse=True)


def test_empty_and_negative_sizes_yield_nothing():
    for gen in (fixed_polyominoes, convex_polyominoes, stack_polyominoes):
        for n in (0, -1, -5):
            assert list(gen(n)) == [], (gen.__name__, n)


def test_convex_enumerator_matches_the_brute_filter_in_order():
    # convex_upto is the oracle's filter over every fixed polyomino,
    # in the order fixed_polyominoes yields them
    brute = convex_upto(9)
    for n in range(1, 10):
        got = [p.cells for p in convex_polyominoes(n)]
        assert got == [p.cells for p in brute if len(p) <= n], n


def test_non_convex_candidate_raises(monkeypatch):
    u_shape = ((1, 1), (1, 2), (2, 1), (3, 1), (3, 2))
    monkeypatch.setattr(generate, "_convex_cell_tuples", lambda size: [u_shape])
    with pytest.raises(ConsistencyError):
        list(convex_polyominoes(5))
