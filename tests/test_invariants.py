import random
from collections import Counter

import pytest

from polyrings import invariants, polyomino, srcomplex, toric
from polyrings.errors import (
    BadParameters,
    ConsistencyError,
    GroebnerUnverified,
    IsRectangle,
    NotConvex,
    NotPure,
    NotStack,
)
from polyrings.gorenstein import GorensteinVerdict, is_gorenstein_convex
from polyrings.invariants import (
    a_invariant_stack_exact,
    decompose,
    full_report,
    h_vector_recursive,
    ladder_polyomino,
    multiplicity_ladder,
    multiplicity_pk,
    multiplicity_recursive,
    multiplicity_rectangle,
    pk_polyomino,
    regularity_stack_exact,
    rook_number,
)
from polyrings.polyomino import (
    Polyomino,
    cells_at_or_above,
    column_bounds,
    distinguished_vertex,
    ferrers,
    heights,
    is_nw_parallelogram,
    is_rectangle,
    is_stack,
    mirror,
    parse,
    stack_from_profile,
    transpose,
    vertex_spans,
)
from polyrings.srcomplex import build_complex, facets, hilbert_numerator
from polyrings.toric import variable_order
from oracles import brute_ferrers, brute_rook_number, brute_stack_images, delete_cell
from pool import (
    CONVEX_FIXTURES,
    STACK_FIXTURES,
    complex_of,
    convex_upto,
    fx,
    stacks_upto,
)


def test_closed_forms_on_fixtures():
    # here the bounding-box bounds are attained, so full_report adds no note
    fig14 = fx("fig14")
    assert (fig14.m, fig14.n) == (6, 4)
    assert regularity_stack_exact(fig14) == 3
    assert a_invariant_stack_exact(fig14) == -6
    fig13 = fx("fig13")
    assert a_invariant_stack_exact(fig13) == -4
    single = fx("single_cell")
    assert (a_invariant_stack_exact(single), regularity_stack_exact(single)) == (-2, 1)
    assert [full_report(p).notes for p in (fig14, fig13, single)] == [()] * 3


def test_closed_forms_need_a_stack():
    with pytest.raises(NotStack):
        a_invariant_stack_exact(fx("fig9"))
    with pytest.raises(NotStack):
        regularity_stack_exact(fx("fig9"))


def test_closed_forms_are_bounds_not_values():
    # the predictions cap the truth; towers on a wide base beat them,
    # first at five cells, and below five cells they are exact
    split = {}
    for p in stacks_upto(7):
        reg = len(hilbert_numerator(complex_of(p))) - 1
        a = reg - (p.m + p.n - 1)
        bound_a, bound_reg = -max(p.m, p.n), min(p.m, p.n) - 1
        assert a <= bound_a
        assert reg <= bound_reg
        if (a, reg) != (bound_a, bound_reg):
            k = len(p.cells)
            split[k] = split.get(k, 0) + 1
    assert split == {5: 3, 6: 7, 7: 12}


def test_five_cell_counterexamples():
    for cells in (
        [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)],
        [(1, 1), (2, 1), (2, 2), (2, 3), (3, 1)],
        [(1, 1), (2, 1), (3, 1), (3, 2), (3, 3)],
    ):
        p = Polyomino(cells)
        assert is_stack(p) and (p.m, p.n) == (4, 4)
        assert len(hilbert_numerator(complex_of(p))) - 1 == 2  # a = 2 - 7
        assert (a_invariant_stack_exact(p), regularity_stack_exact(p)) == (-5, 2)
        assert full_report(p).notes == (
            "bounding-box bounds predict a=-4, regularity=3; "
            "the recursion gives a=-5, regularity=2 (reported)",
        )


def test_full_report_past_the_fvector_guard():
    # 10-cell base row with a 2-cell tower at one end: 26 vertices; the
    # report needs no complex, and the complex it is checked against is
    # on the polynomial chain path, which no work budget limits
    p = Polyomino([(c, 1) for c in range(1, 11)] + [(10, 2), (10, 3)])
    assert len(p.vertices) == 26
    assert srcomplex._rank_poset(complex_of(p)) is not None
    r = full_report(p)
    assert (r.a_invariant, r.regularity) == (-12, 2)
    assert r.h_vector == hilbert_numerator(complex_of(p))
    assert r.multiplicity == sum(r.h_vector)
    assert all(r.methods[name] == "recursion" for name in (
        "a_invariant", "regularity", "multiplicity", "h_vector",
    ))
    assert r.notes == (
        "bounding-box bounds predict a=-11, regularity=3; the recursion gives "
        "a=-12, regularity=2 (reported)",
    )


def test_decompose_ex3():
    dec = decompose(fx("ex3"))
    assert dec.v == (4, 2)
    assert sorted(dec.p1.cells) == [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)]
    assert sorted(dec.p2.cells) == [(1, 1), (2, 1), (2, 2)]
    assert is_stack(dec.p1) and is_stack(dec.p2)


def test_decompose_figb():
    p = fx("figb")
    dec = decompose(p)
    assert dec.v == (3, 2)
    assert dec.p1.cells == delete_cell(p, (4, 1)).cells


def test_decompose_guards():
    with pytest.raises(IsRectangle):
        decompose(parse("##\n##"))
    with pytest.raises(NotStack):
        decompose(fx("fig9"))


def test_decompose_outputs_are_stacks():
    for p in stacks_upto(8):
        if is_rectangle(p):
            continue
        dec = decompose(p)
        assert is_stack(dec.p1) and is_stack(dec.p2)
        assert len(dec.p1.cells) == len(p.cells) - 1
        assert dec.v == distinguished_vertex(p)


def test_multiplicity_rectangle():
    assert multiplicity_rectangle(2, 2) == 2
    assert multiplicity_rectangle(3, 3) == 6
    assert multiplicity_rectangle(4, 3) == 10
    for m in range(2, 8):
        assert multiplicity_rectangle(m, 2) == m
    with pytest.raises(BadParameters):
        multiplicity_rectangle(1, 5)


def test_multiplicity_recursive_fixtures():
    assert multiplicity_recursive(fx("ex3")) == 14
    assert multiplicity_recursive(fx("ex1")) == 5
    rect = Polyomino([(c, r) for c in range(1, 4) for r in range(1, 3)])
    assert multiplicity_recursive(rect) == multiplicity_rectangle(4, 3)
    with pytest.raises(NotStack):
        multiplicity_recursive(fx("fig9"))


def test_multiplicity_matches_facet_count():
    for p in stacks_upto(9):
        assert multiplicity_recursive(p) == len(facets(complex_of(p)))


def test_multiplicity_mirror_invariant():
    for p in stacks_upto(8):
        assert multiplicity_recursive(mirror(p)) == multiplicity_recursive(p)


def test_step_matches_the_cell_level_construction():
    # the profile step against delete_cell and cells_at_or_above, driven
    # by the distinguished vertex read off the vertex heights
    for p in stacks_upto(12):
        if is_rectangle(p):
            continue
        i, level = distinguished_vertex(p)
        hs = heights(p)
        top_cell = (1, hs[0] - 1) if i == 1 else (p.m - 1, hs[-1] - 1)
        dec = decompose(p)
        assert dec.v == (i, level)
        assert dec.p1 == delete_cell(p, top_cell)
        assert dec.p2 == cells_at_or_above(p, level)
        assert multiplicity_recursive(p) == multiplicity_recursive(mirror(p))


def test_multiplicity_of_a_deep_stack(monkeypatch):
    # one recursion level per cell: 1700+ cells run past Python's default
    # recursion limit of 1000
    monkeypatch.setattr(invariants, "_mult_memo", {})
    rng = random.Random(0)
    width = 59
    peak = rng.randrange(width)
    hs = sorted(rng.randint(1, 59) for _ in range(peak)) + [59]
    hs += sorted((rng.randint(1, 59) for _ in range(width - peak - 1)), reverse=True)
    p = stack_from_profile(hs)
    assert (p.m, p.n) == (60, 60) and len(p.cells) >= 1700
    assert multiplicity_recursive(p) == multiplicity_recursive(mirror(p))
    rep = full_report(p)
    assert rep.methods["gorenstein"] == "interval criterion"
    assert rep.gorenstein is False


def test_full_report_on_a_70_cell_strip_and_its_transpose():
    # the vertical strip has n = 71 levels: bit sets have no width cap
    strip = Polyomino([(1, r) for r in range(1, 71)])
    for p in (strip, transpose(strip)):
        rep = full_report(p)
        assert (rep.multiplicity, rep.gorenstein) == (71, False)
        assert rep.methods["gorenstein"] == "interval criterion"


def test_h_recursion_matches_the_complex():
    for p in stacks_upto(11):
        assert h_vector_recursive(p) == hilbert_numerator(complex_of(p)), sorted(p.cells)


def test_h_splits_along_the_decomposition():
    # h_P = h_P1 + t * h_P2 read off three complexes, independent of the
    # recursion's own arithmetic
    for p in stacks_upto(9):
        if is_rectangle(p):
            continue
        dec = decompose(p)
        h1 = hilbert_numerator(complex_of(dec.p1))
        h2 = (0,) + hilbert_numerator(complex_of(dec.p2))
        width = max(len(h1), len(h2))
        h1 += (0,) * (width - len(h1))
        h2 += (0,) * (width - len(h2))
        assert hilbert_numerator(complex_of(p)) == tuple(map(sum, zip(h1, h2)))


def test_h_of_a_rectangle():
    # a cells wide, b cells tall: h_k = binom(a, k) * binom(b, k)
    rect = stack_from_profile((3, 3, 3, 3))
    assert h_vector_recursive(rect) == (1, 12, 18, 4)
    assert multiplicity_recursive(rect) == multiplicity_rectangle(5, 4) == 35


def test_h_is_unchanged_by_sorting_the_profile():
    # a stack and the stack of its sorted profile are Ferrers shapes with
    # one lam, so their rings are isomorphic (the invariants docstring)
    stacks = stacks_upto(11)
    assert len(stacks) == 852
    for p in stacks:
        hs = invariants._profile(p)
        assert invariants._h(hs) == invariants._h(tuple(sorted(hs, reverse=True))), hs


def octagon(side, cut):
    """The side x side box without the cells whose L1 distance to a
    corner is below cut."""
    return Polyomino(
        (c, r)
        for c in range(1, side + 1)
        for r in range(1, side + 1)
        if min(c - 1, side - c) + min(r - 1, side - r) >= cut
    )


def test_octagons_take_the_recursion():
    # octagons are Ferrers shapes: all four values come off the
    # recursion, even where the complex's Groebner check would need more
    # than MAX_SPAIRS S-pairs (301 and 357 vertices)
    for side, cut, size in ((16, 4, 249), (18, 5, 301), (20, 6, 357)):
        p = octagon(side, cut)
        assert len(p.vertices) == size and not is_stack(p)
        r = full_report(p)
        assert set(r.methods.values()) == {"recursion", "interval criterion"}, size
        assert r.regularity == rook_number(p), size


def test_memo_is_cleared_past_its_bound(monkeypatch):
    monkeypatch.setattr(invariants, "_mult_memo", {})
    monkeypatch.setattr(invariants, "_MEMO_MAX_ENTRIES", 5)
    big, small = stack_from_profile((1, 3, 4, 2)), stack_from_profile((1, 2))
    e = multiplicity_recursive(big)
    assert len(invariants._mult_memo) > 5
    assert multiplicity_recursive(small) == 5
    assert set(invariants._mult_memo) == {(1, 2), (1,), (2,)}
    assert multiplicity_recursive(big) == e


def test_multiplicity_transpose_invariant():
    # the transpose of a stack is usually not one; go through the complex
    p = fx("fig14")
    q = transpose(p)
    assert not is_stack(q)
    o = variable_order(q)
    assert sum(hilbert_numerator(build_complex(q, o))) == multiplicity_recursive(p) == 37


def test_partition_of_facet_counts():
    # e(P) = e(P1) + e(P2) by three independent facet enumerations
    for name in ("fig5_a", "fig5_b", "fig13", "ex1", "ex3", "figb"):
        p = fx(name)
        assert len(p.cells) <= 8 and not is_rectangle(p)
        dec = decompose(p)
        e = len(facets(complex_of(p)))
        e1 = len(facets(complex_of(dec.p1)))
        e2 = len(facets(complex_of(dec.p2)))
        assert e == e1 + e2


def test_pk_values():
    assert multiplicity_pk(3, 3, 2) == 5
    assert multiplicity_pk(3, 4, 3) == 9
    assert sorted(pk_polyomino(3, 3, 2).cells) == [(1, 1), (1, 2), (2, 1)]
    assert multiplicity_recursive(fx("ex1")) == multiplicity_pk(3, 3, 2)


def test_pk_guards():
    with pytest.raises(BadParameters):
        multiplicity_pk(4, 4, 4)  # k must stay below n
    with pytest.raises(BadParameters):
        multiplicity_pk(2, 4, 2)
    with pytest.raises(BadParameters):
        multiplicity_pk(4, 4, 1)


def test_pk_matches_recursion():
    for m in range(3, 7):
        for n in range(3, 7):
            for k in range(2, n):
                built = pk_polyomino(m, n, k)
                assert (built.m, built.n) == (m, n)
                assert multiplicity_pk(m, n, k) == multiplicity_recursive(built)


def test_ladder_staircase():
    lp = ladder_polyomino(4, 4, [3, 2])
    assert sorted(lp.cells) == [
        (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1),
    ]
    assert multiplicity_ladder(4, 4, [3, 2]) == multiplicity_recursive(lp) == 14
    # a leading full-height step changes nothing
    assert multiplicity_ladder(4, 4, [4, 3, 2]) == 14


def test_ladder_memoises_shared_subproblems():
    # the full m = n = 30 staircase: without the memo the recursion
    # revisits shared subproblems exponentially often
    ks = tuple(range(30, 1, -1))
    lp = ladder_polyomino(30, 30, ks)
    assert multiplicity_ladder(30, 30, ks) == multiplicity_recursive(lp)


def test_ladder_special_cases():
    # all-equal steps collapse to the rectangle value
    assert multiplicity_ladder(4, 4, [4, 4, 4]) == multiplicity_rectangle(4, 4)
    # a single step is the pk geometry
    for n in range(3, 6):
        for k in range(2, n):
            assert multiplicity_ladder(4, n, [k]) == multiplicity_pk(4, n, k)


def test_ladder_matches_recursion_on_random_staircases():
    rng = random.Random(7)
    made = 0
    while made < 25:
        m = rng.randint(3, 6)
        n = rng.randint(3, 6)
        steps = rng.randint(1, m - 1)
        ks = sorted((rng.randint(2, n) for _ in range(steps)), reverse=True)
        try:
            lp = ladder_polyomino(m, n, ks)
        except BadParameters:
            continue
        if len(lp.cells) > 10:
            continue
        assert multiplicity_ladder(m, n, ks) == multiplicity_recursive(lp)
        made += 1


def test_ladder_guards():
    for args in (
        (4, 4, [2, 3]),      # increasing steps
        (4, 4, [1]),         # step below 2
        (4, 4, [5]),         # step above n
        (3, 3, [2, 2, 2]),   # more steps than columns
        (4, 4, [2, 2, 2]),   # declared box taller than realized
    ):
        with pytest.raises(BadParameters):
            multiplicity_ladder(*args)


def test_full_report_fig14():
    r = full_report(fx("fig14"))
    assert (r.d, r.a_invariant, r.regularity, r.multiplicity) == (9, -6, 3, 37)
    assert r.h_vector == (1, 10, 19, 7)
    assert r.gorenstein is False
    assert r.notes == ()
    assert r.methods["multiplicity"] == "recursion"
    assert r.methods["a_invariant"] == "recursion"


def test_full_report_ex3():
    r = full_report(fx("ex3"))
    assert r.multiplicity == 14
    assert r.methods["multiplicity"] == "recursion"
    assert r.h_vector == (1, 6, 6, 1)
    assert r.gorenstein is True
    assert r.notes == ()


def test_full_report_notes_on_beaten_bounds():
    r = full_report(fx("figb"))
    assert (r.a_invariant, r.regularity, r.multiplicity) == (-6, 2, 13)
    assert r.notes == (
        "bounding-box bounds predict a=-5, regularity=3; the recursion gives "
        "a=-6, regularity=2 (reported)",
    )
    r2 = full_report(fx("fig12_b"))
    assert (r2.a_invariant, r2.regularity, r2.multiplicity) == (-6, 3, 32)
    assert r2.h_vector == (1, 9, 16, 6)
    assert len(r2.notes) == 1


def test_full_report_certifies_every_stack_up_to_13_cells():
    # both runtime certificates run on each: deg h against the closed
    # form, palindromic h against the Gorenstein verdict
    for p in stacks_upto(13):
        r = full_report(p)
        assert r.regularity == regularity_stack_exact(p)
        assert r.gorenstein == (r.h_vector == r.h_vector[::-1])


def test_full_report_certifies_every_non_stack_up_to_8_cells():
    # under variable_order every h comes off the recursion for a Ferrers
    # shape and off the complex otherwise, and the palindromicity
    # certificate runs on each
    shapes = [p for p in convex_upto(8) if not is_stack(p)]
    assert len(shapes) == 1956
    sources = Counter()
    for p in shapes:
        r = full_report(p, variable_order(p))
        sources[r.methods["h_vector"]] += 1
        assert r.gorenstein == (r.h_vector == r.h_vector[::-1])
    assert sources == {"recursion": 418, "complex": 1538}


def ferrers_problems(shapes):
    """The shapes whose default report takes the recursion and differs
    from the complex under the default order, or whose default order
    then fails the Groebner check or orients the compatibility graph
    intransitively."""
    bad = []
    for p in shapes:
        try:
            r = full_report(p)
            if r.methods["h_vector"] != "recursion":
                continue
            # a supplied order: the Groebner check runs
            c = build_complex(p, variable_order(p))
            if r.h_vector != hilbert_numerator(c) or srcomplex._rank_poset(c) is None:
                bad.append(p)
        except (ConsistencyError, GroebnerUnverified, NotPure):
            bad.append(p)
    return bad


def test_stack_images_take_the_recursion_up_to_9_cells():
    # ferrers finds exactly the shapes whose vertex columns hold nested
    # level sets, with the oracle's relabelled profile; every stack and
    # every image of one under the 8 grid symmetries is among them; each
    # gets the recursion and a trusted default order, which passes the
    # checks
    shapes = convex_upto(9)
    non_stacks = 0
    for p in shapes:
        shape, lam = ferrers(p), brute_ferrers(p)
        assert (shape is None) == (lam is None), sorted(p.cells)
        if brute_stack_images(p):
            assert shape is not None, sorted(p.cells)
        if shape is not None:
            assert shape[0] == lam, sorted(p.cells)
            assert not variable_order(p).advisory
            assert full_report(p).methods["h_vector"] == "recursion"
            non_stacks += not is_stack(p)
    assert non_stacks == 878
    assert ferrers_problems(shapes) == []


def test_a_wrong_symmetry_fails_the_image_sweep(monkeypatch):
    # full_report reads ferrers' profile, variable_order its spans
    shapes = [p for p in convex_upto(7) if not is_stack(p)]

    def crossing_spans_accepted(p):
        # ferrers' profile and spans, without the nesting test
        spans = vertex_spans(*column_bounds(p)[:2])
        return tuple(sorted((t - b for b, t in spans), reverse=True)[1:]), spans

    def levels_ranked_by_index(p):
        # every span moved down to level 1, as a stack's are: the level
        # degrees then fall with the level, and the key ranks by level
        shape = ferrers(p)
        if shape is None:
            return None
        return shape[0], tuple((1, 1 + t - b) for b, t in shape[1])

    assert ferrers_problems(shapes) == []
    for wrong in (crossing_spans_accepted, levels_ranked_by_index):
        with monkeypatch.context() as mp:
            mp.setattr(invariants, "ferrers", wrong)
            mp.setattr(toric, "ferrers", wrong)
            assert ferrers_problems(shapes), wrong.__name__


def test_full_report_certificates_can_fail(monkeypatch):
    # both certificates run on a Ferrers non-stack: the transpose of
    # fig14, whose lam (5, 3, 2) is the conjugate of fig14's (3, 3, 2, 1, 1),
    # and that of ex3, a Gorenstein stack with h = (1, 6, 6, 1)
    p = fx("fig14")
    image, gorenstein_image = transpose(p), transpose(fx("ex3"))
    assert not is_stack(image) and ferrers(image)[0] == (5, 3, 2)
    assert not is_stack(gorenstein_image) and ferrers(gorenstein_image) is not None
    for shape in (p, image):
        with monkeypatch.context() as mp:
            mp.setattr(invariants, "_exact_regularity", lambda q: 2)
            with pytest.raises(ConsistencyError, match="closed form"):
                full_report(shape)
    # the palindromicity certificate covers the complex's h as well:
    # vertical is a Gorenstein non-Ferrers shape, with h = (1, 5, 5, 1)
    # off the complex, and ex6 a non-Gorenstein one
    q, r = fx("vertical"), fx("ex6")
    assert ferrers(q) is ferrers(r) is None
    for shape, order, forced in (
        (p, None, True),
        (image, None, True),
        (gorenstein_image, variable_order(gorenstein_image), False),
        (q, variable_order(q), False),
        (r, variable_order(r), True),
    ):
        with monkeypatch.context() as mp:
            mp.setattr(invariants, "is_gorenstein_convex", lambda _: GorensteinVerdict(
                forced, None, (), "forced"
            ))
            with pytest.raises(ConsistencyError, match="palindromicity"):
                full_report(shape, order)


def test_full_report_builds_no_complex_for_a_stack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_complex called for a stack")

    monkeypatch.setattr(invariants, "build_complex", refuse)
    monkeypatch.setattr(srcomplex, "build_complex", refuse)
    # the work budgets gate only the complex, which a stack's report skips
    monkeypatch.setattr(srcomplex, "MAX_DP_ENTRIES", 0)
    monkeypatch.setattr(srcomplex, "MAX_FACETS", 0)
    for p in [fx(name) for name in STACK_FIXTURES] + [stack_from_profile((2, 5, 9, 9, 4, 1))]:
        r = full_report(p)
        assert r.h_vector is not None
        assert r.methods["h_vector"] == "recursion"


def test_full_report_on_a_chain_path_non_stack_past_40_vertices():
    # the staircase band of cells (i, i) and (i, i + 1), 1 <= i <= 10:
    # 42 vertices, not a stack, on the polynomial chain path; the old
    # 40-vertex guard reported all four values as unavailable
    p = Polyomino([(i, j) for i in range(1, 11) for j in (i, i + 1)])
    order = variable_order(p)
    assert len(p.vertices) == 42 and not is_stack(p)
    assert srcomplex._rank_poset(build_complex(p, order)) is not None
    r = full_report(p, order)
    h = (1, 20, 171, 816, 2380, 4368, 5005, 3432, 1287, 220, 11)
    assert r.h_vector == h
    assert (r.regularity, r.a_invariant, r.multiplicity) == (10, 10 - r.d, sum(h))
    assert (r.d, r.multiplicity) == (22, 17711)
    assert all(r.methods[name] == "complex" for name in (
        "a_invariant", "regularity", "multiplicity", "h_vector",
    ))
    assert r.notes == ()


def test_full_report_gates_non_stacks():
    # vertex column 1 of vertical holds levels 3-4 and column 4 levels
    # 1-2: not nested, so not a Ferrers shape
    p = fx("vertical")
    assert ferrers(p) is None
    bare = full_report(p)
    assert bare.multiplicity is None
    assert bare.methods["multiplicity"] == "unavailable"
    assert bare.gorenstein is True
    keyed = full_report(p, variable_order(p))
    assert keyed.multiplicity == 12
    assert keyed.methods["multiplicity"] == "complex"
    assert keyed.regularity == keyed.d + keyed.a_invariant


def test_full_report_internal_identities():
    for name in STACK_FIXTURES:
        r = full_report(fx(name))
        if r.regularity is not None and r.a_invariant is not None:
            assert r.regularity == r.d + r.a_invariant
        if r.h_vector is not None and r.multiplicity is not None:
            assert sum(r.h_vector) == r.multiplicity


def test_full_report_rejects_non_convex():
    with pytest.raises(NotConvex):
        full_report(fx("fig1_left"))


def test_full_report_scans_convexity_once(monkeypatch):
    # every reader of the line bounds shares the kept table: one pass
    # over the cells per axis, whatever is asked of the shape
    stack, other = stack_from_profile((2, 3, 1)), transpose(fx("fig14"))
    bounds, axes = polyomino._bounds, []

    def counted(lines, k, far):
        pairs = frozenset(lines)
        axes.append("column" if pairs == p.cells else "row")
        return bounds(pairs, k, far)

    monkeypatch.setattr(polyomino, "_bounds", counted)
    for p in (stack, other):
        axes.clear()
        for read in (
            full_report, variable_order, rook_number, heights, ferrers,
            is_nw_parallelogram, is_gorenstein_convex, is_stack,
        ):
            read(p)
        assert sorted(axes) == ["column", "row"], sorted(p.cells)
    assert is_stack(stack) and not is_stack(other) and ferrers(other) is not None
    assert full_report(stack).multiplicity == multiplicity_recursive(stack)
    # the public checks still run on the kept bounds
    q = Polyomino([(1, 1), (1, 2), (2, 2)])
    for _ in range(2):
        with pytest.raises(NotStack):
            multiplicity_recursive(q)
    bent = fx("fig1_left")
    for _ in range(2):
        with pytest.raises(NotConvex):
            full_report(bent)


def test_report_dict_shape():
    d = full_report(fx("ex3")).to_dict()
    assert d["h_vector"] == [1, 6, 6, 1]
    assert d["notes"] == []
    assert set(d["methods"]) == {
        "a_invariant", "regularity", "multiplicity", "h_vector", "gorenstein",
    }


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


def test_rook_number_is_the_regularity_of_every_small_stack():
    stacks = stacks_upto(12)
    assert len(stacks) == 1364
    for p in stacks:
        assert rook_number(p) == full_report(p).regularity, sorted(p.cells)
