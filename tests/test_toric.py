import pytest

from polyrings import invariants, toric
from polyrings.errors import BadParameters, GroebnerUnverified, TooLarge
from polyrings.invariants import full_report
from polyrings.polyomino import (
    Polyomino,
    ferrers,
    heights,
    is_nw_parallelogram,
    parse,
    transpose,
)
from polyrings.srcomplex import _rank_poset, build_complex, hilbert_numerator
from polyrings.toric import (
    VarOrder,
    initial_ideal,
    inner_minors,
    leading_term,
    mono_str,
    var_str,
    variable_order,
    verify_groebner,
)
from oracles import (
    brute_inner_minor_corners,
    brute_maximal_independent_sets,
    brute_nw_parallelogram,
    brute_verify_groebner,
    generic_revlex_less,
    height_ranking,
    lattice_ranking,
)
from pool import CONVEX_FIXTURES, convex_upto, fixed_upto, fx, shuffled_orders, stacks_upto

# the orders the worked examples print for these two non-stack shapes
EX6_PRINTED = [
    (3, 4), (3, 3), (3, 2), (3, 1), (2, 4), (2, 3), (2, 2),
    (1, 4), (1, 3), (1, 2), (4, 3), (4, 2), (4, 1), (5, 3), (5, 2),
]
EX7_PRINTED = [
    (2, 4), (2, 3), (2, 2), (1, 4), (1, 3), (1, 2),
    (4, 3), (4, 2), (4, 1), (3, 3), (3, 2), (3, 1), (5, 3), (5, 2),
]
# an order under which fig9's inner minors are no Groebner basis
FIG9_BAD = [
    (3, 3), (1, 1), (2, 1), (4, 3), (2, 4), (2, 3), (3, 1),
    (3, 4), (1, 2), (4, 2), (2, 2), (1, 3), (3, 2),
]


def test_ex1_variable_order():
    o = variable_order(fx("ex1"))
    assert not o.advisory
    assert o.ranked == (
        (2, 3), (2, 2), (2, 1), (1, 3), (1, 2), (1, 1), (3, 2), (3, 1),
    )
    assert o.smallest() == (3, 1)
    assert repr(o) == (
        "VarOrder(x23 > x22 > x21 > x13 > x12 > x11 > x32 > x31)"
    )


def test_single_cell_variable_order():
    o = variable_order(fx("single_cell"))
    assert o.ranked == ((2, 2), (2, 1), (1, 2), (1, 1))
    assert not o.advisory


def test_stack_smallest_variable():
    # bottom-row variable of the shortest (then leftmost) column
    for p in stacks_upto(7):
        hs = heights(p)
        i = min(range(1, p.m + 1), key=lambda c: (hs[c - 1], c))
        assert variable_order(p).smallest() == (i, 1)


def test_order_rejects_duplicates():
    with pytest.raises(ValueError):
        VarOrder([(1, 1), (1, 2), (1, 1)])


def test_var_notation():
    assert var_str((1, 2)) == "x12"
    assert var_str((10, 3)) == "x(10,3)"
    assert mono_str([(2, 1), (1, 2)]) == "x12x21"


def test_ex1_minors():
    ms = inner_minors(fx("ex1"))
    assert [m.corners for m in ms] == [
        ((1, 1), (2, 2)),
        ((1, 1), (2, 3)),
        ((1, 2), (2, 3)),
        ((1, 1), (3, 2)),
        ((2, 1), (3, 2)),
    ]
    assert [str(m) for m in ms] == [
        "x12x21 - x11x22",
        "x13x21 - x11x23",
        "x13x22 - x12x23",
        "x12x31 - x11x32",
        "x22x31 - x21x32",
    ]


def test_single_cell_minor():
    ms = inner_minors(fx("single_cell"))
    assert len(ms) == 1
    assert ms[0].corners == ((1, 1), (2, 2))


def test_rectangle_minor_count():
    # vertex box [3]x[3]: three column pairs times three row pairs
    assert len(inner_minors(parse("##\n##"))) == 9
    assert len(inner_minors(parse("###\n###"))) == 18


def test_minor_terms_are_disjoint_pairs():
    for name in CONVEX_FIXTURES:
        for m in inner_minors(fx(name)):
            assert len(m.diagonal) == 2 and len(m.antidiagonal) == 2
            assert not (m.diagonal & m.antidiagonal)


def test_minors_match_brute_intervals():
    for name in CONVEX_FIXTURES:
        p = fx(name)
        got = sorted((m.i, m.j, m.k, m.l) for m in inner_minors(p))
        assert got == brute_inner_minor_corners(p)


def test_ex1_leading_terms():
    p = fx("ex1")
    o = variable_order(p)
    leads = [mono_str(leading_term(m, o)) for m in inner_minors(p)]
    assert leads == ["x12x21", "x13x21", "x13x22", "x11x32", "x21x32"]


def test_single_cell_leading_term():
    p = fx("single_cell")
    (m,) = inner_minors(p)
    assert leading_term(m, variable_order(p)) == frozenset({(1, 2), (2, 1)})


def test_lead_and_trail_partition_the_minor():
    for name in ("ex1", "ex3", "figb", "fig9"):
        p = fx(name)
        o = variable_order(p)
        for m in inner_minors(p):
            lead = leading_term(m, o)
            assert lead in (m.diagonal, m.antidiagonal)
            assert len(lead) == len(m.diagonal | m.antidiagonal) - 2 == 2


def test_ex1_initial_ideal():
    ii = initial_ideal(fx("ex1"))
    assert {mono_str(t) for t in ii.generators} == {
        "x11x32", "x12x21", "x13x21", "x13x22", "x21x32",
    }
    assert len(inner_minors(fx("ex1"))) == 5


def test_single_cell_initial_ideal():
    ii = initial_ideal(fx("single_cell"))
    assert ii.generators == frozenset({frozenset({(1, 2), (2, 1)})})


def test_rectangle_initial_ideal():
    ii = initial_ideal(parse("##\n##"))
    assert len(ii.generators) == 9
    assert all(len(t) == 2 for t in ii.generators)


def test_verify_groebner_examples():
    assert verify_groebner(fx("ex1"))
    assert verify_groebner(fx("single_cell"))


def test_printed_orders_verify():
    assert set(EX6_PRINTED) == fx("ex6").vertices
    assert set(EX7_PRINTED) == fx("ex7").vertices
    assert verify_groebner(fx("ex6"), VarOrder(EX6_PRINTED, advisory=True))
    assert verify_groebner(fx("ex7"), VarOrder(EX7_PRINTED, advisory=True))


def test_mechanical_orders_verify_on_ex6_ex7():
    for name in ("ex6", "ex7"):
        o = variable_order(fx(name))
        assert o.advisory
        assert verify_groebner(fx(name), o)


def test_all_small_stacks_verify():
    for p in stacks_upto(9):
        assert verify_groebner(p)


def test_bad_order_fails_and_gates_the_ideal():
    p = fx("fig9")
    bad = VarOrder(FIG9_BAD, advisory=True)
    assert not verify_groebner(p, bad)
    with pytest.raises(GroebnerUnverified):
        initial_ideal(p, bad)


# the inner minors are no Groebner basis under any of these orders, which
# are built without advisory=True: the check runs on every order a
# caller supplies
def test_unflagged_bad_order_leaves_the_report_unavailable():
    p = Polyomino([(1, 1), (2, 1), (2, 2), (3, 2)])
    order = VarOrder([
        (3, 1), (3, 2), (2, 1), (4, 3), (1, 1), (2, 3), (1, 2), (3, 3), (2, 2), (4, 2),
    ])
    assert not verify_groebner(p, order)
    with pytest.raises(GroebnerUnverified):
        initial_ideal(p, order)
    rep = full_report(p, order)
    assert rep.h_vector is None and rep.multiplicity is None
    assert rep.methods["h_vector"] == rep.methods["multiplicity"] == "unavailable"


def test_unflagged_bad_order_gates_the_ideal_on_fig9():
    p, order = fx("fig9"), VarOrder(FIG9_BAD)
    assert not verify_groebner(p, order)
    with pytest.raises(GroebnerUnverified):
        initial_ideal(p, order)


def test_unflagged_bad_order_on_a_stack_gates_the_complex():
    p = Polyomino([(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
    order = VarOrder([
        (3, 3), (3, 2), (4, 2), (2, 2), (1, 1), (4, 1), (1, 2), (1, 3), (3, 1), (2, 3), (2, 1),
    ])
    assert not verify_groebner(p, order)
    with pytest.raises(GroebnerUnverified):
        build_complex(p, order)


def test_nw_parallelograms_take_their_lattice_order_up_to_9_cells():
    # every NW parallelogram with at most 9 cells, Ferrers shapes
    # included: the lattice order passes the Groebner check and orients
    # the compatibility graph transitively, and its h equals the height
    # ranking's; it is the default order of the others
    lattices = defaults = 0
    for p in convex_upto(9):
        assert is_nw_parallelogram(p) == brute_nw_parallelogram(p), sorted(p.cells)
        if not is_nw_parallelogram(p):
            continue
        lattices += 1
        lattice = VarOrder(lattice_ranking(p))
        assert verify_groebner(p, lattice), sorted(p.cells)
        c = build_complex(p, lattice)
        assert _rank_poset(c) is not None, sorted(p.cells)
        height = build_complex(p, VarOrder(height_ranking(p)))
        assert hilbert_numerator(c) == hilbert_numerator(height), sorted(p.cells)
        if ferrers(p) is None:
            defaults += 1
            assert variable_order(p).ranked == lattice.ranked
            assert variable_order(p).advisory
    assert (lattices, defaults) == (986, 817)


def test_advisory_ideal_passes_after_verification():
    assert variable_order(fx("ex6")).advisory
    ii = initial_ideal(fx("ex6"))
    assert len(ii.generators) == len(inner_minors(fx("ex6"))) == 18


def facet_count(p, order=None):
    gens = initial_ideal(p, order).generators
    return len(brute_maximal_independent_sets(sorted(p.vertices), gens))


def test_facet_count_is_transpose_invariant():
    for name in ("ex1", "ex3", "fig13", "figb", "fig9", "ex6"):
        p = fx(name)
        assert facet_count(p) == facet_count(transpose(p))


def test_facet_count_is_order_independent_on_ex6():
    # the printed and mechanical orders give different initial ideals
    p = fx("ex6")
    printed = VarOrder(EX6_PRINTED, advisory=True)
    assert initial_ideal(p, printed).generators != initial_ideal(p).generators
    assert facet_count(p, printed) == facet_count(p) == 21


def test_minors_match_brute_intervals_on_every_small_polyomino():
    # convex or not: the run-length walk assumes no convexity
    for p in fixed_upto(8):
        got = [(m.i, m.j, m.k, m.l) for m in inner_minors(p)]
        assert sorted(got, key=lambda t: (t[2], t[3], t[0], t[1])) == got
        assert sorted(got) == brute_inner_minor_corners(p)


def assert_terms_match_generic_revlex(p, o):
    for m in inner_minors(p):
        anti, diag = sorted(m.antidiagonal), sorted(m.diagonal)
        want = m.diagonal if generic_revlex_less(anti, diag, o.ranked) else m.antidiagonal
        assert leading_term(m, o) == want


def test_terms_match_generic_revlex_on_small_stacks():
    # and on the worked examples, two of them (fig9, ex6) non-stacks
    # under their advisory order
    examples = [fx(name) for name in ("ex1", "ex3", "figb", "fig13", "fig9", "ex6")]
    for p in examples + list(stacks_upto(9)):
        assert_terms_match_generic_revlex(p, variable_order(p))


def test_terms_match_generic_revlex_under_shuffled_orders():
    for p in convex_upto(7):
        for o in shuffled_orders(p):
            assert_terms_match_generic_revlex(p, o)


def test_verify_groebner_matches_the_all_pairs_oracle():
    verdicts = set()
    shapes = convex_upto(7)
    assert len(shapes) == 765
    for p in shapes:
        for o in [variable_order(p), *shuffled_orders(p)]:
            got = verify_groebner(p, o)
            assert got == brute_verify_groebner(p, o.ranked), (p, o)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_generators_are_the_leading_terms():
    # the rank pairs that initial_ideal and build_complex keep, read back
    # as vertex pairs, against the public per-minor route
    checked = 0
    for p in convex_upto(7):
        for o in [variable_order(p), *shuffled_orders(p)]:
            if not verify_groebner(p, o):
                continue
            want = {leading_term(mn, o) for mn in inner_minors(p)}
            assert initial_ideal(p, o).generators == want, (p, o)
            assert build_complex(p, o).forbidden == want, (p, o)
            checked += 1
    assert checked == 1401


def spair_count(p, order):
    """S-pairs with overlapping leads, counted off the public leading terms."""
    leads = [leading_term(mn, order) for mn in inner_minors(p)]
    return sum(1 for a in range(len(leads)) for b in range(a) if leads[a] & leads[b])


def test_spair_budget_stops_the_check_before_reducing(monkeypatch):
    # ex6 is not a Ferrers shape, so its default order is checked
    p = fx("ex6")
    order = variable_order(p)
    count = spair_count(p, order)
    assert toric.MAX_SPAIRS == 2_000_000 and count == 46 and order.advisory
    monkeypatch.setattr(toric, "MAX_SPAIRS", count - 1)
    refusal = f"{count} S-pairs exceed the budget MAX_SPAIRS = {count - 1}"
    for fn in (verify_groebner, initial_ideal, build_complex):
        with pytest.raises(TooLarge, match=f"^{refusal}$"):
            fn(p, order)
    r = full_report(p, order)
    assert r.h_vector is None and r.methods["h_vector"] == "unavailable"
    assert r.notes == (refusal,)
    # inclusive; and the default order of a Ferrers shape, a stack or
    # not, is not checked at all
    monkeypatch.setattr(toric, "MAX_SPAIRS", count)
    assert verify_groebner(p, order)
    monkeypatch.setattr(toric, "MAX_SPAIRS", 0)
    for name in ("ex3", "fig9"):
        assert len(initial_ideal(fx(name)).generators) == len(inner_minors(fx(name)))


def test_verify_groebner_on_the_9x9_rectangle():
    # 2025 minors: the size the all-pairs check could not reach in tier-1
    p = parse("\n".join(["#" * 9] * 9))
    assert len(inner_minors(p)) == 2025
    assert verify_groebner(p)


def assert_order_rejected(p, order):
    for call in (initial_ideal, verify_groebner, build_complex):
        with pytest.raises(BadParameters):
            call(p, order)
    with pytest.raises(BadParameters):
        full_report(p, order=order)


def test_order_missing_a_vertex_is_rejected():
    p = parse("##\n##")
    ranked = variable_order(p).ranked
    assert_order_rejected(p, VarOrder(ranked[:-1]))
    assert_order_rejected(p, VarOrder(ranked[1:], advisory=True))
    # past the complex guard full_report builds no complex, and still checks
    big = parse("\n".join(["#" * 6] * 6))
    assert len(big.vertices) > 40
    with pytest.raises(BadParameters):
        full_report(big, order=VarOrder(variable_order(big).ranked[:-1]))


def test_a_supplied_order_is_checked_once(monkeypatch):
    # by full_report on the recursion's shapes, which never reach
    # initial_ideal, and by initial_ideal on the complex's
    calls = []
    real = toric._check_ranks

    def spy(p, order):
        calls.append(p)
        return real(p, order)

    monkeypatch.setattr(toric, "_check_ranks", spy)
    monkeypatch.setattr(invariants, "_check_ranks", spy)
    for grid, source in (("##\n##", "recursion"), ("#.\n##\n#.", "recursion"), ("##.\n.##", "complex")):
        p = parse(grid)
        calls.clear()
        assert full_report(p, variable_order(p)).methods["h_vector"] == source
        assert calls == [p], grid
        with pytest.raises(BadParameters):
            full_report(p, VarOrder(variable_order(p).ranked[:-1]))


def test_order_ranking_a_non_vertex_is_rejected():
    p = parse("##\n##")
    ranked = variable_order(p).ranked
    assert_order_rejected(p, VarOrder(ranked + ((9, 9),)))
    assert_order_rejected(p, VarOrder(((9, 9),) + ranked, advisory=True))


def test_terms_under_an_order_missing_a_vertex_are_rejected():
    p = parse("##\n##")
    order = VarOrder(variable_order(p).ranked[:-1])
    unranked = set(p.vertices) - set(order.ranked)
    for mn in inner_minors(p):
        if unranked & (mn.diagonal | mn.antidiagonal):
            with pytest.raises(BadParameters, match="unranked: x11"):
                leading_term(mn, order)
        else:
            assert leading_term(mn, order) in (mn.diagonal, mn.antidiagonal)
