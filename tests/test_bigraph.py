from itertools import combinations

from polyrings.bigraph import (
    SideSubset,
    build_graph,
    hall_violator,
    max_matching,
    neighbors_x,
    neighbors_y,
    rook_number,
)
from polyrings.invariants import full_report
from polyrings.polyomino import Polyomino
from polyrings.srcomplex import invariants_from_complex
from oracles import (
    brute_deltas,
    brute_directed_cuts,
    brute_max_disjoint_cuts,
    horizontal_interval,
    induced_connected,
    neigh_y,
    recursive_kuhn_matching,
    vertical_interval,
    vertex_set,
)
from pool import CONVEX_FIXTURES, complex_of, convex_upto, fx, stacks_upto

SMALL_FIXTURES = ("single_cell", "ex1", "ex3", "fig13", "figb", "fig9", "vertical")


def edges_of(g):
    """The edge set as read from adj_x, after checking adj_y agrees."""
    pairs = [(i, j) for i in range(1, g.m + 1) for j in range(1, g.n + 1)]
    by_x = {(i, j) for i, j in pairs if g.adj_x[i] >> (j - 1) & 1}
    by_y = {(i, j) for i, j in pairs if g.adj_y[j] >> (i - 1) & 1}
    assert by_x == by_y
    return by_x


def test_single_cell_is_complete_2x2():
    g = build_graph(fx("single_cell"))
    assert (g.m, g.n) == (2, 2)
    assert edges_of(g) == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_fig13_has_ten_edges():
    g = build_graph(fx("fig13"))
    assert (g.m, g.n) == (3, 4)
    assert len(edges_of(g)) == 10


def test_incidence_equals_vertex_set():
    for name in CONVEX_FIXTURES:
        p = fx(name)
        assert edges_of(build_graph(p)) == vertex_set(p), name
    for p in convex_upto(7):
        assert edges_of(build_graph(p)) == vertex_set(p)


def test_every_line_has_at_least_two_vertices():
    for p in convex_upto(6):
        g = build_graph(p)
        assert all(g.adj_x[i].bit_count() >= 2 for i in range(1, g.m + 1))
        assert all(g.adj_y[j].bit_count() >= 2 for j in range(1, g.n + 1))


def test_neighbors_vertical_fixture():
    p = fx("vertical")
    g = build_graph(p)
    vs = vertex_set(p)
    assert neighbors_y(g, SideSubset.from_indices("X", [1], g.m)).indices() == (3, 4)
    assert neighbors_y(g, SideSubset.from_indices("X", [1, 4], g.m)).indices() == (1, 2, 3, 4)
    assert neighbors_y(g, SideSubset.from_indices("X", [1, 2], g.m)).indices() == (1, 2, 3, 4)
    # same neighbor set, but only T2 = {1, 2} steps through contiguous levels
    assert vertical_interval(vs, p.cells, {1, 2})
    assert not vertical_interval(vs, p.cells, {1, 4})
    assert induced_connected(vs, {1, 2}, {1, 2, 3, 4})
    assert not induced_connected(vs, {1, 4}, {1, 2, 3, 4})


def test_neighbors_fig6():
    p = fx("fig6")
    g = build_graph(p)
    assert neighbors_x(g, SideSubset.from_indices("Y", [1, 5], g.n)).indices() == (1, 2, 3, 4)
    u1 = SideSubset.from_indices("Y", [2, 3], g.n)
    assert neighbors_x(g, u1).indices() == (1, 2, 3, 4, 5)
    assert horizontal_interval(vertex_set(p), p.cells, {2, 3})


def test_empty_subset_has_no_neighbors():
    g = build_graph(fx("fig6"))
    assert len(neighbors_y(g, SideSubset.from_indices("X", [], g.m))) == 0
    assert len(neighbors_x(g, SideSubset.from_indices("Y", [], g.n))) == 0


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
    g = build_graph(fx("fig9"))
    vs = vertex_set(fx("fig9"))
    assert hall_violator(g) is None
    witness = {(1, 1), (2, 2), (3, 4), (4, 3)}
    assert witness <= vs
    mm = max_matching(g)
    assert len(mm) == 4
    assert all((i, j) in vs for i, j in mm.items())


def test_unequal_sides_never_match():
    p = fx("figb")
    g = build_graph(p)
    assert g.m != g.n
    assert len(max_matching(g)) < max(g.m, g.n)
    assert hall_violator(g) is not None


def test_matching_equals_recursive_kuhn():
    shapes = [fx(n) for n in CONVEX_FIXTURES] + list(convex_upto(7))
    for p in shapes:
        assert max_matching(build_graph(p)) == recursive_kuhn_matching(p), sorted(p.cells)


def test_hall_verdict_on_a_wide_staircase_band():
    # cells (i, i) and (i + 1, i): augmenting paths grow to about 0.68 k
    # steps, past Python's recursion limit at k = 1500
    k = 1500
    band = Polyomino([(i, i) for i in range(1, k + 1)] + [(i + 1, i) for i in range(1, k)])
    g = build_graph(band)
    assert g.m == g.n == k + 1
    assert hall_violator(g) is None


def test_hall_violator_is_violating():
    for p in [fx(name) for name in ("fig8", "ex3", "fig12_b")] + list(convex_upto(8)):
        g = build_graph(p)
        t = hall_violator(g)
        if t is None:
            continue
        nbors = neighbors_y(g, t) if t.side == "X" else neighbors_x(g, t)
        assert len(nbors) < len(t)


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
        g = build_graph(p)
        for xb in range(1 << g.m):
            tx = SideSubset("X", xb, g.m)
            ny = neighbors_y(g, tx).bits
            for yb in range(1 << g.n):
                ty = SideSubset("Y", yb, g.n)
                _, minus = brute_deltas(vs, set(tx.indices()), set(ty.indices()))
                assert (not minus) == (not ny & ~ty.bits), (name, xb, yb)


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
        inv = invariants_from_complex(complex_of(p))
        d = p.m + p.n - 1
        assert brute_max_disjoint_cuts(p) == -inv.a_invariant == d - rook_number(p)


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
