"""The acceptance gate: one test (or pair) per numbered criterion.

The terminal summary prints one PASS/FAIL line per criterion; see
conftest.py. Criterion 5 is split in two: the sweep of checkers and
multiplicities, and the closed forms for regularity and a-invariant,
which report their smallest counterexample if they ever fail.
"""

import random
from itertools import combinations

import pytest

from polyrings.bigraph import build_graph, hall_violator, max_matching
from polyrings.errors import BadParameters
from polyrings.gorenstein import (
    is_gorenstein_convex,
    is_gorenstein_stack_corners,
    is_gorenstein_stack_subsets,
)
from polyrings.invariants import (
    a_invariant_stack_exact,
    decompose,
    full_report,
    ladder_polyomino,
    multiplicity_ladder,
    multiplicity_pk,
    multiplicity_recursive,
    multiplicity_rectangle,
    pk_polyomino,
    regularity_stack_exact,
)
from polyrings.polyomino import Polyomino, heights, is_rectangle, is_stack
from polyrings.srcomplex import (
    deletion_facets,
    facets,
    hilbert_numerator,
    invariants_from_complex,
    link_facets,
    transport_facet,
    transport_facet_inverse,
)
from polyrings.toric import initial_ideal, mono_str, variable_order, verify_groebner
from oracles import (
    brute_deltas,
    brute_directed_cuts,
    brute_max_disjoint_cuts,
    brute_perfect_matching,
    horizontal_interval,
    induced_connected,
    neigh_x,
    neigh_y,
    vertex_set,
    vertical_interval,
)
from pool import CONVEX_FIXTURES, STACK_FIXTURES, complex_of, convex_upto, fx, stacks_upto


def test_criterion_01():
    """ex1: printed initial ideal, five printed facets, multiplicity 5 twice."""
    p = fx("ex1")
    ii = initial_ideal(p)
    assert {mono_str(t) for t in ii.generators} == {
        "x11x32", "x21x32", "x12x21", "x13x21", "x13x22",
    }
    fs = facets(complex_of(p))
    assert {tuple(sorted(f)) for f in fs} == {
        ((1, 1), (2, 1), (2, 2), (2, 3), (3, 1)),
        ((1, 1), (1, 2), (2, 2), (2, 3), (3, 1)),
        ((1, 1), (1, 2), (1, 3), (2, 3), (3, 1)),
        ((1, 2), (2, 2), (2, 3), (3, 1), (3, 2)),
        ((1, 2), (1, 3), (2, 3), (3, 1), (3, 2)),
    }
    assert len(fs) == 5
    assert multiplicity_recursive(p) == 5


def test_criterion_02():
    """ex3: recursion gives 14, decompose matches the printed panels, facets agree."""
    p = fx("ex3")
    assert multiplicity_recursive(p) == 14
    dec = decompose(p)
    assert dec.v == (4, 2)
    assert sorted(dec.p1.cells) == [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)]
    assert sorted(dec.p2.cells) == [(1, 1), (2, 1), (2, 2)]
    assert len(facets(complex_of(p))) == 14


def test_criterion_03():
    """Rectangles 2..7: recursion equals the binomial; facets agree up to 5."""
    for m in range(2, 8):
        for n in range(2, 8):
            rect = Polyomino(
                [(c, r) for c in range(1, m) for r in range(1, n)]
            )
            assert (rect.m, rect.n) == (m, n)
            want = multiplicity_rectangle(m, n)
            assert multiplicity_recursive(rect) == want
            if m <= 5 and n <= 5:
                assert len(facets(complex_of(rect))) == want


def test_criterion_04():
    """Gorenstein verdicts and witnesses on fig9, fig8, fig12_a, fig12_b."""
    v9 = is_gorenstein_convex(fx("fig9"))
    assert v9.gorenstein
    assert [c.subset.indices() for c in v9.certificates] == [(4,), (1, 4)]
    v8 = is_gorenstein_convex(fx("fig8"))
    assert not v8.gorenstein
    assert str(v8.violation) == "T={x4,x5,x6}, |N_Y(T)|=3, need 4"
    for name, want in (("fig12_a", True), ("fig12_b", False)):
        p = fx(name)
        assert is_gorenstein_convex(p).gorenstein is want
        assert is_gorenstein_stack_subsets(p).gorenstein is want
        assert is_gorenstein_stack_corners(p) is want


def test_criterion_05():
    """Stack sweep <= 9 cells: checkers, palindromicity, recursion, purity, Groebner, formulas."""
    for p in stacks_upto(9):
        tri = is_gorenstein_convex(p).gorenstein
        assert tri == is_gorenstein_stack_subsets(p).gorenstein
        assert tri == is_gorenstein_stack_corners(p)
        c = complex_of(p)
        h = hilbert_numerator(c)
        assert (tuple(h) == tuple(reversed(h))) == tri
        fs = facets(c)
        assert multiplicity_recursive(p) == len(fs)
        assert all(len(f) == p.m + p.n - 1 for f in fs)
        assert verify_groebner(p)


def test_criterion_05_reg_and_a_closed_forms():
    """Stack sweep <= 9 cells: checkers, palindromicity, recursion, purity, Groebner, formulas."""
    broken = []
    for p in stacks_upto(9):
        ci = invariants_from_complex(complex_of(p))
        if (regularity_stack_exact(p), a_invariant_stack_exact(p)) != (
            ci.regularity, ci.a_invariant
        ):
            broken.append(p)
    if broken:
        total = len(stacks_upto(9))
        smallest = min(broken, key=lambda p: len(p.cells))
        ci = invariants_from_complex(complex_of(smallest))
        pytest.fail(
            "the closed forms reg = min(n-1, min_j (j-1+w_j)) and "
            "a = reg - (m+n-1) are not identities: "
            f"{len(broken)} of {total} stacks with <= 9 cells disagree "
            "with the facet complex. Smallest counterexample: "
            f"{len(smallest.cells)} cells, vertex heights "
            f"{heights(smallest)}, where the complex certifies "
            f"a = {ci.a_invariant}, regularity = {ci.regularity} "
            f"against a = {a_invariant_stack_exact(smallest)}, "
            f"regularity = {regularity_stack_exact(smallest)}."
        )


def test_criterion_06():
    """fig13: cut packing 4 via the row family, a = -4, printed cut examples."""
    p = fx("fig13")
    vs = vertex_set(p)
    # the row family: delta+ of the vertices of each level, each a
    # directed cut by definition (proper source, delta- empty), pairwise
    # disjoint, and a packing of the maximum size
    rows = [brute_deltas(vs, set(), {j}) for j in range(1, p.n + 1)]
    assert all(plus and not minus for plus, minus in rows)
    assert all(not (a & b) for (a, _), (b, _) in combinations(rows, 2))
    assert brute_max_disjoint_cuts(p) == len(rows) == 4
    assert invariants_from_complex(complex_of(p)).a_invariant == -4
    _, minus1 = brute_deltas(vs, {3}, {2, 3})
    assert minus1 == frozenset({(3, 1)})  # {x3, y2, y3} is no cut
    plus2, minus2 = brute_deltas(vs, {3}, {1, 2})
    assert not minus2  # {x3, y1, y2} is a cut
    assert plus2 == frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})
    assert plus2 in brute_directed_cuts(p)


def test_criterion_07():
    """fig14: regularity 3."""
    assert full_report(fx("fig14")).regularity == 3


def test_criterion_08():
    """Interval lemma equivalences, 2-connectivity, Hall-matching agreement."""
    shapes = [fx(n) for n in CONVEX_FIXTURES] + list(convex_upto(7))
    for p in shapes:
        vs = vertex_set(p)
        xs, ys = set(range(1, p.m + 1)), set(range(1, p.n + 1))
        # 2-connected: at least 3 nodes, connected, and no cut vertex
        assert p.m + p.n >= 3 and induced_connected(vs, xs, ys)
        assert all(induced_connected(vs, xs - {i}, ys) for i in xs)
        assert all(induced_connected(vs, xs, ys - {j}) for j in ys)
        g = build_graph(p)
        assert (
            (len(max_matching(g)) == p.m == p.n)
            == (hall_violator(g) is None)
            == brute_perfect_matching(p)
        )
        columns = {x: neigh_y(vs, {x}) for x in xs}
        for r in range(1, p.m):
            for t in map(set, combinations(range(1, p.m + 1), r)):
                ny = neigh_y(vs, t)
                assert vertical_interval(vs, p.cells, t) == induced_connected(vs, t, ny)
                outside_not_nested = all(columns[x] - ny for x in xs - t)
                u = ys - ny
                pullback_equal = neigh_x(vs, u) == xs - t
                assert outside_not_nested == pullback_equal
                lhs = pullback_equal and horizontal_interval(vs, p.cells, u)
                has_edge = any(i not in t and j in u for i, j in vs)
                assert lhs == (has_edge and induced_connected(vs, xs - t, u))


def test_criterion_09():
    """Transport: printed figa/figb vectors, round trips, counting identities."""
    figa_f = frozenset(
        {(1, 3), (1, 4), (2, 4), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3), (6, 3)}
    )
    out = transport_facet(figa_f, 3, 3, 6)
    assert out == frozenset(
        {(1, 3), (1, 4), (2, 4), (3, 2), (3, 3), (4, 3), (5, 3), (6, 1), (6, 2)}
    )
    assert transport_facet_inverse(out, 3, 3, 6) == figa_f
    figb_f = frozenset(
        {(1, 2), (1, 3), (1, 4), (2, 4), (3, 1), (4, 1), (4, 2), (5, 2)}
    )
    out_b = transport_facet(figb_f, 3, 2, 5)
    assert out_b == frozenset(
        {(1, 2), (1, 3), (1, 4), (2, 4), (3, 1), (3, 2), (4, 2), (5, 1)}
    )
    assert transport_facet_inverse(out_b, 3, 2, 5) == figb_f
    for name in STACK_FIXTURES:
        p = fx(name)
        if len(p.cells) > 8 or is_rectangle(p):
            continue
        dec = decompose(p)
        c = complex_of(p)
        dels = deletion_facets(c, dec.v)
        i, h = dec.v
        for f in dels:
            assert transport_facet_inverse(
                transport_facet(f, i, h, p.m), i, h, p.m
            ) == f
        assert len(dels) == len(facets(complex_of(dec.p1)))
        assert len(link_facets(c, dec.v)) == len(facets(complex_of(dec.p2)))


def test_criterion_10():
    """pk closed form against the facet oracle; ladders against the recursion."""
    assert multiplicity_pk(3, 3, 2) == 5 == len(facets(complex_of(pk_polyomino(3, 3, 2))))
    assert multiplicity_pk(3, 4, 3) == 9 == len(facets(complex_of(pk_polyomino(3, 4, 3))))
    rng = random.Random(11)
    made = 0
    while made < 20:
        m = rng.randint(3, 6)
        n = rng.randint(3, 6)
        steps = rng.randint(1, m - 1)
        ks = sorted((rng.randint(2, n) for _ in range(steps)), reverse=True)
        try:
            lp = ladder_polyomino(m, n, ks)
        except BadParameters:
            continue
        if len(lp.cells) > 10 or not is_stack(lp):
            continue
        assert multiplicity_ladder(m, n, ks) == multiplicity_recursive(lp)
        made += 1
