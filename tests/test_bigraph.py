"""The paper's bipartite graph of a convex polyomino, read through the
oracles' neighbour sets: interval conditions, Hall's condition as the
Gorenstein scan reports it, directed cuts and the rook number."""

from itertools import combinations

import pytest

from polyrings.errors import NotConvex
from polyrings.gorenstein import is_gorenstein_convex
from polyrings.invariants import full_report, rook_number
from polyrings.polyomino import Polyomino
from polyrings.srcomplex import hilbert_numerator
from oracles import (
    brute_deltas,
    brute_directed_cuts,
    brute_max_disjoint_cuts,
    brute_perfect_matching,
    brute_rook_number,
    horizontal_interval,
    induced_connected,
    neigh_x,
    neigh_y,
    vertical_interval,
    vertex_set,
)
from pool import CONVEX_FIXTURES, complex_of, convex_upto, fx, stacks_upto

SMALL_FIXTURES = ("single_cell", "ex1", "ex3", "fig13", "figb", "fig9", "vertical")


def test_neighbors_vertical_fixture():
    p = fx("vertical")
    vs = vertex_set(p)
    assert neigh_y(vs, {1}) == {3, 4}
    assert neigh_y(vs, {1, 4}) == {1, 2, 3, 4}
    assert neigh_y(vs, {1, 2}) == {1, 2, 3, 4}
    # same neighbor set, but only T2 = {1, 2} steps through contiguous levels
    assert vertical_interval(vs, p.cells, {1, 2})
    assert not vertical_interval(vs, p.cells, {1, 4})
    assert induced_connected(vs, {1, 2}, {1, 2, 3, 4})
    assert not induced_connected(vs, {1, 4}, {1, 2, 3, 4})


def test_neighbors_fig6():
    p = fx("fig6")
    vs = vertex_set(p)
    assert neigh_x(vs, {1, 5}) == {1, 2, 3, 4}
    assert neigh_x(vs, {2, 3}) == {1, 2, 3, 4, 5}
    assert horizontal_interval(vs, p.cells, {2, 3})


def test_fig6_residual_graphs():
    p = fx("fig6")
    vs = vertex_set(p)
    xs, ys = set(range(1, p.m + 1)), set(range(1, p.n + 1))
    assert not induced_connected(vs, xs - {5}, ys - neigh_y(vs, {5}))
    ny2 = neigh_y(vs, {1, 2, 3})
    assert ny2 == ys
    # residual keeps x4 and x5 with no y at all, hence no edges
    assert xs - {1, 2, 3} == {4, 5}
    assert not induced_connected(vs, xs - {1, 2, 3}, ys - ny2)


def test_singleton_neighbor_sets_are_intervals():
    for p in convex_upto(6):
        vs = vertex_set(p)
        assert all(vertical_interval(vs, p.cells, {i}) for i in range(1, p.m + 1))
        assert all(horizontal_interval(vs, p.cells, {j}) for j in range(1, p.n + 1))


def test_fig9_perfect_matching():
    p = fx("fig9")
    vs = vertex_set(p)
    v = is_gorenstein_convex(p)
    assert v.violation is None or v.violation.kind != "hall"
    witness = {(1, 1), (2, 2), (3, 4), (4, 3)}
    assert witness <= vs
    assert brute_perfect_matching(p)


def test_unequal_sides_never_match():
    p = fx("figb")
    assert p.m != p.n
    v = is_gorenstein_convex(p)
    assert v.violation.kind == "hall"
    assert (v.violation.subset.side, len(v.violation.subset)) == ("X", p.m)
    assert not brute_perfect_matching(p)


def test_rook_number_against_the_brute_recursion():
    for p in [fx(n) for n in CONVEX_FIXTURES] + list(convex_upto(9)):
        assert rook_number(p) == brute_rook_number(p), sorted(p.cells)


def test_rook_number_rejects_a_non_convex_shape():
    with pytest.raises(NotConvex):
        rook_number(fx("fig1_left"))


def test_rook_number_on_a_wide_staircase_band():
    # cells (i, i) and (i + 1, i): 1500 cell columns, each open for two rows
    k = 1500
    band = Polyomino([(i, i) for i in range(1, k + 1)] + [(i + 1, i) for i in range(1, k)])
    assert rook_number(band) == k


def test_hall_violator_is_violating():
    for p in [fx(name) for name in ("fig8", "ex3", "fig12_b")] + list(convex_upto(8)):
        v = is_gorenstein_convex(p)
        if v.violation is None or v.violation.kind != "hall":
            continue
        vs = vertex_set(p)
        t = set(v.violation.subset.indices())
        nbors = neigh_y(vs, t) if v.violation.subset.side == "X" else neigh_x(vs, t)
        assert v.violation.observed == len(nbors) < len(t) == v.violation.required


def test_fig13_cut_examples():
    p = fx("fig13")
    vs = vertex_set(p)
    _, minus1 = brute_deltas(vs, {3}, {2, 3})
    assert minus1 == frozenset({(3, 1)})  # so {x3, y2, y3} is no cut
    plus2, minus2 = brute_deltas(vs, {3}, {1, 2})
    assert plus2 == frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})
    assert minus2 == frozenset()
    assert plus2 in brute_directed_cuts(p)


def test_cut_criterion_matches_definition():
    # delta-(T) empty iff N_Y(T^x) inside T^y
    for name in SMALL_FIXTURES:
        p = fx(name)
        vs = vertex_set(p)
        xs, ys = range(1, p.m + 1), range(1, p.n + 1)
        for tx in (set(t) for k in range(p.m + 1) for t in combinations(xs, k)):
            ny = neigh_y(vs, tx)
            for ty in (set(t) for k in range(p.n + 1) for t in combinations(ys, k)):
                _, minus = brute_deltas(vs, tx, ty)
                assert (not minus) == (ny <= ty), (name, tx, ty)


def row_family(p):
    """delta+({y_j}) for every level j: the cut of each level's vertices."""
    vs = vertex_set(p)
    return [brute_deltas(vs, set(), {j}) for j in range(1, p.n + 1)]


def column_family(p):
    """delta+((X minus x_i) u Y) for every column i."""
    vs = vertex_set(p)
    xs, ys = set(range(1, p.m + 1)), set(range(1, p.n + 1))
    return [brute_deltas(vs, xs - {i}, ys) for i in range(1, p.m + 1)]


def assert_packing(family):
    """Each member is a directed cut by definition (its source is
    proper and nonempty by construction), and no two share an edge."""
    assert all(plus and not minus for plus, minus in family)
    for (a, _), (b, _) in combinations(family, 2):
        assert not (a & b)


def test_row_and_column_cut_families():
    for p in list(stacks_upto(8)) + [fx("fig11")]:
        rows, cols = row_family(p), column_family(p)
        assert len(rows) == p.n and len(cols) == p.m
        assert_packing(rows)
        assert_packing(cols)


def test_fig13_max_cuts_is_the_row_family():
    p = fx("fig13")
    rows = row_family(p)
    assert brute_max_disjoint_cuts(p) == len(rows) == 4
    assert_packing(rows)


def test_single_cell_max_cuts():
    assert brute_max_disjoint_cuts(fx("single_cell")) == 2


def test_max_cuts_against_oracle_and_complex():
    # the true identity: the packing number equals -a from the facet
    # complex, and d - r(P), which invariants --oracle checks
    for p in stacks_upto(7):
        d = p.m + p.n - 1
        a = len(hilbert_numerator(complex_of(p))) - 1 - d
        assert brute_max_disjoint_cuts(p) == -a == d - rook_number(p)


def test_max_cuts_can_beat_the_box_bound():
    # packing 6 disjoint cuts on a 5x4 box: the max{m,n} prediction fails here
    p = fx("figb")
    assert (p.m, p.n) == (5, 4)
    assert brute_max_disjoint_cuts(p) == 6 > max(p.m, p.n)


def test_rook_number_is_the_regularity_of_every_small_stack():
    stacks = stacks_upto(12)
    assert len(stacks) == 1364
    for p in stacks:
        assert rook_number(p) == full_report(p).regularity, sorted(p.cells)
