import json

import pytest
from hypothesis import given, settings, strategies as st

from polyrings.errors import (
    DisconnectedCells,
    DisconnectedResult,
    EmptyInput,
    EmptyResult,
    MalformedGrid,
)
from polyrings.polyomino import (
    Polyomino,
    cells_at_or_above,
    corners,
    has_monotone_paths,
    heights,
    is_column_convex,
    is_convex,
    is_rectangle,
    is_row_convex,
    is_stack,
    mirror,
    parse,
    serialize,
    transpose,
)
from oracles import brute_convex, brute_heights, delete_cell, fixed_polyominoes
from pool import CONVEX_FIXTURES, STACK_FIXTURES, convex_upto, fx, stacks_upto


def test_parse_single_cell():
    p = parse("#")
    assert p.cells == frozenset({(1, 1)})
    assert (p.m, p.n) == (2, 2)


def test_parse_grid_rows_top_first():
    # top grid row carries the highest cell row
    p = parse("..#.\n.##.\n####")
    assert p.cells == frozenset(
        {(3, 3), (2, 2), (3, 2), (1, 1), (2, 1), (3, 1), (4, 1)}
    )


def test_parse_json_cells():
    p = parse(json.dumps([[1, 1], [2, 1], [2, 2]]))
    assert p.cells == frozenset({(1, 1), (2, 1), (2, 2)})


def test_parse_json_normalizes_offsets():
    assert parse("[[5, 7], [6, 7]]").cells == frozenset({(1, 1), (2, 1)})


def test_parse_rejects_bad_input():
    with pytest.raises(EmptyInput):
        parse("")
    with pytest.raises(EmptyInput):
        parse("...\n...")
    with pytest.raises(EmptyInput):
        parse("[]")
    with pytest.raises(MalformedGrid):
        parse("##\n#")
    with pytest.raises(MalformedGrid):
        parse("#x")
    with pytest.raises(MalformedGrid):
        parse('{"a": 1}')
    with pytest.raises(MalformedGrid):
        parse("[[1]]")
    with pytest.raises(MalformedGrid):
        parse("[[true, 1]]")
    with pytest.raises(DisconnectedCells):
        parse("[[1, 1], [3, 1]]")
    with pytest.raises(DisconnectedCells):
        parse("#.#")


def test_serialize_round_trip_on_fixtures():
    for name in CONVEX_FIXTURES + ("fig1_left",):
        p = fx(name)
        assert parse(serialize(p)).cells == p.cells


def test_convexity_fixtures():
    assert not is_convex(fx("fig1_left"))
    assert is_convex(fx("fig1_right"))
    assert not has_monotone_paths(fx("fig1_left"))
    assert has_monotone_paths(fx("fig1_right"))


def test_row_but_not_column_convex():
    p = parse("[[1, 2], [2, 2], [2, 1], [3, 1], [3, 3], [2, 3]]")
    assert is_row_convex(p)
    assert not is_column_convex(p)
    assert not is_convex(p)


def test_convex_equals_monotone_paths_exhaustive():
    # two definitions of convexity agree on every shape with <= 7 cells
    for p in fixed_polyominoes(7):
        assert is_convex(p) == has_monotone_paths(p)
        assert is_convex(p) == brute_convex(p)


def test_is_stack_fixtures():
    for name in STACK_FIXTURES:
        assert is_stack(fx(name)), name
    for name in ("fig8", "fig9", "fig6", "ex6", "ex7", "vertical", "fig1_right"):
        assert not is_stack(fx(name)), name
    assert is_stack(parse("###\n###"))


def test_is_rectangle():
    assert is_rectangle(parse("###\n###"))
    assert is_rectangle(fx("single_cell"))
    assert not is_rectangle(fx("ex1"))


def test_heights_fixtures():
    assert heights(fx("figb")) == (4, 4, 2, 2, 2)
    assert heights(fx("ex3")) == (3, 4, 4, 2)
    assert heights(parse("##\n##")) == (3, 3, 3)
    for name in CONVEX_FIXTURES:
        assert heights(fx(name)) == tuple(brute_heights(fx(name))), name


def test_heights_of_stacks_are_unimodal():
    for p in stacks_upto(7):
        hs = heights(p)
        peak = hs.index(max(hs))
        assert all(a <= b for a, b in zip(hs[: peak + 1], hs[1 : peak + 1]))
        assert all(a >= b for a, b in zip(hs[peak:], hs[peak + 1 :]))


def test_corners_single_cell_and_block():
    cs = corners(fx("single_cell"))
    assert cs["inside"] == frozenset()
    assert cs["outside"] == frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})
    assert cs["interior"] == frozenset()
    cs = corners(parse("##\n##"))
    assert cs["interior"] == frozenset({(2, 2)})
    assert cs["outside"] == frozenset({(1, 1), (1, 3), (3, 1), (3, 3)})


def test_corners_fig11():
    assert corners(fx("fig11"))["inside"] == frozenset(
        {(2, 3), (3, 5), (4, 3), (5, 2)}
    )


def test_corner_kinds_match_incidence_counts():
    # outside / inside / interior = vertex lying in exactly 1 / 3 / 4 cells
    for name in CONVEX_FIXTURES:
        p = fx(name)
        cs = corners(p)
        for a, b in p.vertices:
            hit = sum(
                (c, r) in p.cells
                for c in (a - 1, a)
                for r in (b - 1, b)
            )
            assert ((a, b) in cs["outside"]) == (hit == 1), name
            assert ((a, b) in cs["inside"]) == (hit == 3), name
            assert ((a, b) in cs["interior"]) == (hit == 4), name


def test_transpose_mirror_are_involutions():
    for name in CONVEX_FIXTURES:
        p = fx(name)
        assert transpose(transpose(p)).cells == p.cells
        assert mirror(mirror(p)).cells == p.cells
        assert (transpose(p).m, transpose(p).n) == (p.n, p.m)
        assert (mirror(p).m, mirror(p).n) == (p.m, p.n)


def test_transpose_maps_cells_and_corners():
    p = fx("ex3")
    assert transpose(p).cells == frozenset(
        {(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (1, 3)}
    )
    for name in ("fig11", "fig8"):
        q = fx(name)
        flipped = {(j, i) for i, j in corners(q)["inside"]}
        assert corners(transpose(q))["inside"] == flipped


def test_mirror_preserves_convexity_and_stackness():
    for p in stacks_upto(6):
        assert is_stack(mirror(p))
        assert heights(mirror(p)) == heights(p)[::-1]


def test_delete_cell():
    p = fx("ex3")
    q = delete_cell(p, (2, 3))
    assert q.cells == frozenset({(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)})
    with pytest.raises(EmptyInput):
        delete_cell(fx("single_cell"), (1, 1))
    with pytest.raises(DisconnectedCells):
        delete_cell(parse("###"), (2, 1))
    with pytest.raises(ValueError):
        delete_cell(p, (9, 9))


def test_delete_cell_renormalizes():
    # deleting the only cell of the last column shrinks the box
    p = parse("##\n##")
    q = delete_cell(p, (2, 2))
    assert (q.m, q.n) == (3, 3)
    assert q.cells == frozenset({(1, 1), (2, 1), (1, 2)})


def test_cells_at_or_above():
    p = fx("ex3")
    q = cells_at_or_above(p, 2)
    assert q.cells == frozenset({(1, 1), (2, 1), (2, 2)})
    with pytest.raises(EmptyResult):
        cells_at_or_above(p, 9)
    with pytest.raises(DisconnectedResult):
        cells_at_or_above(parse("#.#\n###"), 2)


def test_cells_at_or_above_keeps_stacks_stacks():
    for p in stacks_upto(7):
        for level in range(2, max(heights(p))):
            if any(r >= level for _, r in p.cells):
                assert is_stack(cells_at_or_above(p, level))


def test_every_generated_convex_shape_really_is():
    for p in convex_upto(6):
        assert is_convex(p)
        assert brute_convex(p)


@st.composite
def connected_cells(draw):
    count = draw(st.integers(min_value=1, max_value=9))
    cells = {(1, 1)}
    for _ in range(count - 1):
        frontier = sorted(
            (c + dc, r + dr)
            for c, r in cells
            for dc, dr in ((1, 0), (-1, 0), (0, 1), (0, -1))
            if (c + dc, r + dr) not in cells
        )
        cells.add(draw(st.sampled_from(frontier)))
    return cells


@settings(max_examples=60, deadline=None)
@given(connected_cells())
def test_serialize_parse_round_trip(cells):
    p = Polyomino(cells)
    assert parse(serialize(p)).cells == p.cells
    assert transpose(transpose(p)).cells == p.cells
