import pytest

from polyrings.errors import NotConvex, NotStack
from polyrings.gorenstein import (
    is_gorenstein_convex,
    is_gorenstein_stack_corners,
    is_gorenstein_stack_subsets,
)
from polyrings.polyomino import Polyomino, mirror, transpose
from polyrings.srcomplex import invariants_from_complex
from oracles import (
    brute_admissible,
    brute_gorenstein_convex,
    brute_stack_subsets,
    horizontal_interval,
    is_palindrome,
    neigh_x,
    neigh_y,
    vertex_set,
    vertical_interval,
)
from pool import CONVEX_FIXTURES, complex_of, convex_upto, fx, stacks_upto


def square(k):
    return Polyomino([(c, r) for c in range(1, k) for r in range(1, k)])


def test_fig8_violation():
    v = is_gorenstein_convex(fx("fig8"))
    assert not v.gorenstein
    assert v.violation.kind == "cardinality"
    assert v.violation.subset.indices() == (4, 5, 6)
    assert (v.violation.observed, v.violation.required) == (3, 4)
    assert str(v.violation) == "T={x4,x5,x6}, |N_Y(T)|=3, need 4"


def test_fig8_worked_subsets():
    # the four sample subsets exercise every way T can drop out
    p = fx("fig8")
    vs = vertex_set(p)
    xs, ys = set(range(1, p.m + 1)), set(range(1, p.n + 1))

    def conditions(t):
        """(N_Y(T) vertical interval, pull-back equal, horizontal interval)."""
        u = ys - neigh_y(vs, t)
        return (
            vertical_interval(vs, p.cells, t),
            neigh_x(vs, u) == xs - t,
            horizontal_interval(vs, p.cells, u),
        )

    assert conditions({4, 5, 6}) == (True, True, True)
    assert ((4, 5, 6), (1, 2, 3)) in brute_admissible(p)  # |N_Y(T)| = 3, not 4
    assert conditions({1, 4, 5, 6}) == (False, True, True)
    assert conditions({4}) == (True, False, True)
    assert conditions({6}) == (True, True, False)
    assert neigh_y(vs, {6}) == {2, 3}


def test_fig9_certificates():
    v = is_gorenstein_convex(fx("fig9"))
    assert v.gorenstein
    assert v.violation is None
    got = [(c.subset.indices(), c.neighbors.indices()) for c in v.certificates]
    assert got == [((4,), (2, 3)), ((1, 4), (1, 2, 3))]


def test_fig12_pair():
    a = fx("fig12_a")
    assert is_gorenstein_convex(a).gorenstein
    assert is_gorenstein_stack_subsets(a).gorenstein
    assert is_gorenstein_stack_corners(a)
    b = fx("fig12_b")
    vb = is_gorenstein_convex(b)
    assert not vb.gorenstein
    assert not is_gorenstein_stack_subsets(b).gorenstein
    assert not is_gorenstein_stack_corners(b)
    assert str(is_gorenstein_stack_subsets(b).violation) == "T={x1,x5}, |N_Y(T)|=2, need 3"


def test_single_cell_is_gorenstein():
    p = fx("single_cell")
    v = is_gorenstein_convex(p)
    assert v.gorenstein and v.certificates == ()
    assert is_gorenstein_stack_subsets(p).gorenstein
    assert is_gorenstein_stack_corners(p)


def test_rectangles():
    for k in (2, 3, 4, 5):
        sq = square(k)
        assert is_gorenstein_convex(sq).gorenstein
        assert is_gorenstein_stack_subsets(sq).gorenstein
        assert is_gorenstein_stack_corners(sq)
    rect = Polyomino([(1, 1), (1, 2)])
    v = is_gorenstein_convex(rect)
    assert not v.gorenstein
    assert v.violation.kind == "hall"
    assert not is_gorenstein_stack_corners(rect)


def test_checkers_agree_on_all_small_stacks():
    for p in stacks_upto(10):
        a = is_gorenstein_convex(p).gorenstein
        b = is_gorenstein_stack_subsets(p).gorenstein
        c = is_gorenstein_stack_corners(p)
        assert a == b == c, sorted(p.cells)


def test_violation_present_iff_not_gorenstein():
    for p in list(convex_upto(7)) + [fx(n) for n in CONVEX_FIXTURES]:
        v = is_gorenstein_convex(p)
        assert (v.violation is None) == v.gorenstein


def test_against_definition_level_oracle():
    for p in list(convex_upto(7)) + [fx(n) for n in CONVEX_FIXTURES]:
        assert is_gorenstein_convex(p).gorenstein == brute_gorenstein_convex(p)


def test_interval_scan_against_the_literal_sweep():
    # same verdict, first violation and certificate list as the 2^m sweep
    # of the oracle, on every convex shape with at most 9 cells
    for p in convex_upto(9):
        v = is_gorenstein_convex(p)
        got = [(c.subset.indices(), c.neighbors.indices()) for c in v.certificates]
        if v.violation is not None and v.violation.kind == "hall":
            t = set(v.violation.subset.indices())
            vs = vertex_set(p)
            nbors = neigh_y(vs, t) if v.violation.subset.side == "X" else neigh_x(vs, t)
            assert v.violation.observed == len(nbors) < len(t) == v.violation.required
            assert got == [] and not brute_gorenstein_convex(p)
            continue
        want = brute_admissible(p)
        bad = next((k for k, (t, ny) in enumerate(want) if len(ny) != len(t) + 1), None)
        assert v.gorenstein == (bad is None), sorted(p.cells)
        if bad is None:
            assert got == want, sorted(p.cells)
        else:
            t, ny = want[bad]
            assert got == want[:bad], sorted(p.cells)
            assert v.violation.kind == "cardinality"
            assert v.violation.subset.indices() == t
            assert (v.violation.observed, v.violation.required) == (len(ny), len(t) + 1)


def test_square_box_past_the_old_sweep_limit():
    # m = 40 columns: no subset budget limits the verdict
    v = is_gorenstein_convex(square(40))
    assert v.gorenstein and v.violation is None and v.certificates == ()


def test_stack_subsets_against_quantifier_oracle():
    for p in stacks_upto(9):
        assert is_gorenstein_stack_subsets(p).gorenstein == brute_stack_subsets(p)


def test_stanley_h_vector_cross_check():
    # Gorenstein iff symmetric h-vector, checked on every stack <= 10 cells
    for p in stacks_upto(10):
        h = invariants_from_complex(complex_of(p)).h_vector
        assert is_palindrome(h) == is_gorenstein_convex(p).gorenstein


def test_transpose_and_mirror_invariance():
    for name in CONVEX_FIXTURES:
        p = fx(name)
        want = is_gorenstein_convex(p).gorenstein
        assert is_gorenstein_convex(transpose(p)).gorenstein == want
        assert is_gorenstein_convex(mirror(p)).gorenstein == want


def test_input_guards():
    with pytest.raises(NotConvex):
        is_gorenstein_convex(fx("fig1_left"))
    with pytest.raises(NotStack):
        is_gorenstein_stack_subsets(fx("fig9"))
    with pytest.raises(NotStack):
        is_gorenstein_stack_corners(fx("fig9"))
    # 27 x 2 vertex box: no size guard, the Hall gate decides
    wide = Polyomino([(c, 1) for c in range(1, 27)])
    v = is_gorenstein_convex(wide)
    assert not v.gorenstein and v.violation.kind == "hall"
    assert (v.violation.subset.side, len(v.violation.subset)) == ("X", 27)
    assert (v.violation.observed, v.violation.required) == (2, 27)


def test_wide_staircase_band_verdict():
    # cells (i, i) and (i + 1, i), m = n = 1501: the scan meets 1127247
    # level intervals, and the Hall gate passes
    k = 1500
    band = Polyomino([(i, i) for i in range(1, k + 1)] + [(i + 1, i) for i in range(1, k)])
    v = is_gorenstein_convex(band)
    assert not v.gorenstein
    assert len(v.certificates) == 1499
    assert v.violation.kind == "cardinality"
    assert str(v.violation.subset) == "{x1501}"
    assert (v.violation.observed, v.violation.required) == (3, 2)
