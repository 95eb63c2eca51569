import gc
import random
from math import comb

import pytest

from polyrings import srcomplex
from polyrings.errors import DecompositionFailed, NotAFacet, NotPure, TooLarge
from polyrings.invariants import (
    decompose,
    full_report,
    h_vector_recursive,
    multiplicity_recursive,
)
from polyrings.polyomino import (
    Polyomino,
    distinguished_vertex,
    is_rectangle,
    is_stack,
    parse,
    stack_from_profile,
)
from polyrings.srcomplex import (
    FlagComplex,
    _adjacency,
    _bits,
    _chain_masks,
    _independent_counts,
    _max_independent_sets,
    _rank,
    _rank_poset,
    build_complex,
    deletion_facets,
    f_vector,
    facets,
    hilbert_numerator,
    link_decompose,
    link_facets,
    transport_facet,
    transport_facet_inverse,
)
from polyrings.toric import VarOrder, variable_order, verify_groebner
from oracles import (
    brute_f_vector,
    brute_face_counts,
    brute_independent_sets,
    brute_maximal_independent_sets,
    height_ranking,
)
from pool import complex_of, convex_upto, fx, shuffled_orders, stacks_upto

FIGA_F = frozenset(
    {(1, 3), (1, 4), (2, 4), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3), (6, 3)}
)
FIGB_F = frozenset(
    {(1, 2), (1, 3), (1, 4), (2, 4), (3, 1), (4, 1), (4, 2), (5, 2)}
)


def bar(cells):
    return Polyomino([(c, 1) for c in range(1, cells + 1)])


def box(side):
    return Polyomino([(c, r) for c in range(1, side + 1) for r in range(1, side + 1)])


def notched_box(side, cut):
    """The side x side box without the cells (c, r) whose L1 distance to
    the lower-left, lower-right or upper-left corner is below cut. The
    level spans of vertex columns 2 and m cross, so it is no Ferrers
    shape."""
    return Polyomino(
        (c, r)
        for c in range(1, side + 1)
        for r in range(1, side + 1)
        if min(c - 1, side - c) + r - 1 >= cut and c - 1 + side - r >= cut
    )


def test_build_complex_shapes():
    c = complex_of(fx("ex1"))
    assert (len(c.vertices), len(c.forbidden), c.d) == (8, 5, 5)
    cs = complex_of(fx("single_cell"))
    assert (len(cs.vertices), len(cs.forbidden), cs.d) == (4, 1, 3)
    assert complex_of(parse("#\n#")).d == 4


def test_ex1_facets():
    got = [tuple(sorted(f)) for f in facets(complex_of(fx("ex1")))]
    assert got == [
        ((1, 1), (1, 2), (1, 3), (2, 3), (3, 1)),
        ((1, 1), (1, 2), (2, 2), (2, 3), (3, 1)),
        ((1, 1), (2, 1), (2, 2), (2, 3), (3, 1)),
        ((1, 2), (1, 3), (2, 3), (3, 1), (3, 2)),
        ((1, 2), (2, 2), (2, 3), (3, 1), (3, 2)),
    ]


def test_single_cell_facets():
    got = {tuple(sorted(f)) for f in facets(complex_of(fx("single_cell")))}
    assert got == {
        ((1, 1), (1, 2), (2, 2)),
        ((1, 1), (2, 1), (2, 2)),
    }


def test_every_facet_contains_the_smallest_variable():
    for p in stacks_upto(8):
        small = variable_order(p).smallest()
        assert all(small in f for f in facets(complex_of(p)))
    for name in ("ex6", "ex7", "fig9"):
        c = complex_of(fx(name))
        assert all(c.order.smallest() in f for f in facets(c))


def test_f_vectors():
    cases = {
        "single_cell": (1, 4, 5, 2),
        "ex1": (1, 8, 23, 31, 20, 5),
        "figb": (1, 14, 76, 218, 370, 386, 244, 86, 13),
    }
    for name, want in cases.items():
        c = complex_of(fx(name))
        assert f_vector(c) == want
        assert want == brute_f_vector(c.vertices, c.forbidden, c.d)
    for name in ("ex3", "fig13"):
        c = complex_of(fx(name))
        assert f_vector(c) == brute_f_vector(c.vertices, c.forbidden, c.d)


def test_ranking_orders_every_small_stack_transitively():
    for p in stacks_upto(10):
        assert _rank_poset(complex_of(p)) is not None, sorted(p.cells)


def test_chain_path_matches_the_fallback_and_the_recursion():
    for p in stacks_upto(10):
        c = complex_of(p)
        mask = (1 << len(c.vertices)) - 1
        fv = f_vector(c)
        fs = facets(c)
        assert fv == _independent_counts(_adjacency(c), mask, {})
        assert [tuple(sorted(map(c.vertices.index, f))) for f in fs] == sorted(
            _bits(mk) for mk in _max_independent_sets(_adjacency(c), mask)
        )
        assert fv[-1] == len(fs) == multiplicity_recursive(p)


def test_fallback_on_intransitive_advisory_orders():
    for name in ("fig8", "ex6"):
        c = build_complex(fx(name), variable_order(fx(name)))
        assert c.order.advisory and _rank_poset(c) is None
        assert f_vector(c) == brute_f_vector(c.vertices, c.forbidden, c.d)
        assert [tuple(sorted(f)) for f in facets(c)] == (
            brute_maximal_independent_sets(c.vertices, c.forbidden)
        )


def test_fallback_counts_every_intransitive_small_convex_complex():
    # the height ranking and the shuffled orders that pass the Groebner
    # check, on every convex shape with at most 7 cells; Bron-Kerbosch
    # is held to the brute listing under the height ranking up to 6
    # cells, as the brute force takes seconds at 7. The height ranking
    # was variable_order's default for every non-stack until Ferrers
    # shapes and NW parallelograms got transitive orders; it keeps the
    # fallback covered on those shapes.
    fallback = listed = 0
    for p in convex_upto(7):
        advisory = VarOrder(height_ranking(p), advisory=True)
        for o in [advisory, *shuffled_orders(p)]:
            if not verify_groebner(p, o):
                continue
            c = build_complex(p, o)
            if _rank_poset(c) is None:
                fallback += 1
                assert f_vector(c) == brute_f_vector(c.vertices, c.forbidden, c.d), (p, o)
                if o is advisory and len(p.cells) <= 6:
                    listed += 1
                    assert [tuple(sorted(f)) for f in facets(c)] == (
                        brute_maximal_independent_sets(c.vertices, c.forbidden)
                    ), (p, o)
    assert fallback > 500 and listed == 147


def test_chain_path_on_non_stack_posets():
    # every convex shape with at most 7 cells, under the default order
    # of a non-stack (a Ferrers shape's pulled-back height order, an NW
    # parallelogram's lattice order or the advisory height order) and
    # under the shuffled orders that pass the Groebner check, wherever
    # the ranking is transitive; the cover walk is held to the brute
    # listing up to 6 cells
    chain = listed = 0
    for p in convex_upto(7):
        orders = [] if is_stack(p) else [variable_order(p)]
        for o in orders + shuffled_orders(p):
            if not verify_groebner(p, o):
                continue
            c = build_complex(p, o)
            if _rank_poset(c) is None:
                continue
            chain += 1
            full = (1 << len(c.vertices)) - 1
            assert f_vector(c) == _independent_counts(_adjacency(c), full, {}), (p, o)
            if len(p.cells) <= 6:
                listed += 1
                assert [tuple(sorted(f)) for f in facets(c)] == (
                    brute_maximal_independent_sets(c.vertices, c.forbidden)
                ), (p, o)
    assert (chain, listed) == (430, 159)


def brute_counts(c, mask):
    """Independent sets inside mask, counted by size, by enumeration."""
    inside = [v for k, v in enumerate(c.vertices) if mask >> k & 1]
    sizes = [len(s) for s in brute_independent_sets(inside, c.forbidden)]
    return tuple(sizes.count(k) for k in range(max(sizes) + 1))


def test_independent_counts_multiply_over_components():
    # a triangle, a path on three vertices, an edge and two isolated
    # vertices; vertex k is (k, 1)
    v = [(k, 1) for k in range(10)]
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (6, 7)]
    c = hand_built(v, [(v[a], v[b]) for a, b in edges], 4)
    full = (1 << 10) - 1
    # (1 + 3t) (1 + 3t + t^2) (1 + 2t) (1 + t)^2
    assert _independent_counts(_adjacency(c), full, {}) == (1, 10, 39, 75, 74, 35, 6)
    for mask in (full, 0, 1 << 8, full & ~(1 << 4), 0b1111001110, 0b0011111000):
        assert _independent_counts(_adjacency(c), mask, {}) == brute_counts(c, mask), bin(mask)


def test_independent_counts_fit_the_packing_width():
    # 24 vertices and no edge: every coefficient C(24, k), the largest
    # C(24, 12) = 2704156, stays inside its 25 bits
    assert _independent_counts((0,) * 24, (1 << 24) - 1, {}) == tuple(
        comb(24, k) for k in range(25)
    )


def seeded_stacks(count, low, high, seed):
    """count random stacks with low..high vertices, from a fixed seed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        width = rng.randint(2, 12)
        peak = rng.randrange(width)
        top = rng.randint(1, 12)
        left = sorted(rng.randint(1, top) for _ in range(peak))
        right = sorted((rng.randint(1, top) for _ in range(width - peak - 1)), reverse=True)
        p = stack_from_profile(left + [top] + right)
        if low <= len(p.vertices) <= high and not is_rectangle(p):
            out.append(p)
    return out


def test_chain_facets_on_seeded_large_stacks():
    for p in seeded_stacks(12, 30, 60, "chain facets"):
        c = complex_of(p)
        assert _rank_poset(c) is not None
        fs = facets(c)
        # each facet rebuilt on its own from its mask, vertex k at bit nv-1-k
        nv = len(c.vertices)
        masks = sorted(_chain_masks(_rank_poset(c), _rank(c)), reverse=True)
        assert fs == tuple(
            frozenset(c.vertices[k] for k in range(nv) if m >> (nv - 1 - k) & 1)
            for m in masks
        )
        assert all(type(f) is frozenset for f in fs)
        keys = [tuple(sorted(map(c.vertices.index, f))) for f in fs]
        assert len(set(fs)) == len(fs)
        assert all(len(f) == c.d for f in fs)
        assert keys == sorted(keys)
        assert not any(pair <= f for f in fs for pair in c.forbidden)
        assert len(fs) == f_vector(c)[-1] == multiplicity_recursive(p)


def hand_built(ranked, forbidden, d):
    return FlagComplex(
        poly=parse("#"),
        order=VarOrder(ranked),
        vertices=tuple(sorted(ranked)),
        forbidden=frozenset(frozenset(pair) for pair in forbidden),
        d=d,
    )


def test_bron_kerbosch_on_seeded_random_graphs():
    # on the fallback complexes of small convex shapes, Bron-Kerbosch
    # never runs out of candidates while excluded vertices remain;
    # random graphs do
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        verts = [(k, 1) for k in range(n)]
        pairs = [(verts[a], verts[b]) for a in range(n) for b in range(a) if rng.random() < 0.5]
        c = hand_built(verts, pairs, 1)
        got = sorted(
            tuple(verts[k] for k in _bits(mk))
            for mk in _max_independent_sets(_adjacency(c), (1 << n) - 1)
        )
        assert got == brute_maximal_independent_sets(verts, c.forbidden), seed


def test_impure_complexes_raise_not_pure_on_both_paths():
    a, b, x, y = (1, 1), (1, 2), (2, 1), (2, 2)
    # chain path: the chains {a, b} and {x}
    chain = hand_built([a, b, x], [(a, x), (b, x)], 2)
    # fallback: b, y, a top down with the forbidden pair (a, b) has y
    # compatible with both, and x is forbidden with every vertex
    fallback = hand_built([b, y, a, x], [(a, b), (x, b), (x, y), (x, a)], 2)
    assert _rank_poset(chain) is not None and _rank_poset(fallback) is None
    for c in (chain, fallback):
        with pytest.raises(NotPure) as err:
            facets(c)
        assert str(err.value) == "facet of size 1, expected d = 2: [(2, 1)]"
        assert c._facets is None


def h_of(counts, dim):
    """h-polynomial of face counts (f_-1, f_0, ...) in dimension dim,
    trailing zeros cut."""
    h = [0] * (dim + 1)
    for i, fi in enumerate(counts):
        for k in range(dim - i + 1):
            h[i + k] += fi * comb(dim - i, k) * (-1) ** k
    while h[-1] == 0:
        h.pop()
    return tuple(h)


def test_face_level_split_at_the_distinguished_vertex():
    # f_Delta = f_del + t f_lk, and the two parts carry the h-polynomials
    # of the recursion's P1 and P2
    checked = 0
    for p in stacks_upto(8):
        if is_rectangle(p):
            continue
        dec = decompose(p)
        c = complex_of(p)
        f_all = brute_face_counts(facets(c))
        f_del = brute_face_counts(deletion_facets(c, dec.v))
        f_lk = brute_face_counts(link_facets(c, dec.v))
        split = [0] * (c.d + 1)
        for k, count in enumerate(f_del):
            split[k] += count
        for k, count in enumerate(f_lk):
            split[k + 1] += count
        assert f_all == tuple(split), sorted(p.cells)
        assert h_of(f_lk, c.d - 1) == h_vector_recursive(dec.p2)
        assert h_of(f_del, c.d) == h_vector_recursive(dec.p1)
        checked += 1
    assert checked == 163


def test_f_vector_shape():
    for name in ("ex1", "ex3", "figb", "fig13"):
        c = complex_of(fx(name))
        fv = f_vector(c)
        assert fv[0] == 1 and fv[1] == len(c.vertices)
        assert len(fv) == c.d + 1 and fv[-1] >= 1


def test_hilbert_numerators():
    assert hilbert_numerator(complex_of(fx("single_cell"))) == (1, 1)
    q = hilbert_numerator(complex_of(fx("ex1")))
    assert q == (1, 3, 1) and sum(q) == 5
    # full squares: e = C(m+n-2, m-1)
    assert sum(hilbert_numerator(complex_of(parse("##\n##")))) == 6
    assert sum(hilbert_numerator(complex_of(parse("#")))) == 2


def test_invariants_from_complex():
    # e = Q(1), reg = deg Q and a = deg Q - d off the Hilbert numerator Q
    fig14, fig13 = fx("fig14"), fx("fig13")
    assert len(hilbert_numerator(complex_of(fig14))) - 1 == 3
    assert len(hilbert_numerator(complex_of(fig13))) - 1 - (fig13.m + fig13.n - 1) == -4
    assert hilbert_numerator(complex_of(fx("single_cell"))) == (1, 1)


def test_invariants_facets_only_for_mid_size():
    # 32 vertices, inside the complex guard: every value is reported
    assert hilbert_numerator(complex_of(bar(15))) == (1, 15)


def test_size_guards():
    # two work budgets and no vertex count: the 42-vertex bar, past the
    # old guard of 40 vertices, is on the chain path and gets every value
    assert (srcomplex.MAX_DP_ENTRIES, srcomplex.MAX_FACETS) == (200_000, 50_000)
    p = bar(20)
    assert len(p.vertices) == 42 and _rank_poset(build_complex(p)) is not None
    assert f_vector(build_complex(p))[-1] == 21
    assert hilbert_numerator(build_complex(p)) == (1, 20)
    assert len(facets(build_complex(p))) == 21


def test_facet_budget_stops_before_listing(monkeypatch):
    # the 10 x 10 box has C(20, 10) = 184,756 facets; the chain count
    # reads that before a single facet is listed
    def refuse(*args):
        raise AssertionError("facets listed past the budget")

    c = build_complex(box(10))
    with monkeypatch.context() as mp:
        mp.setattr(srcomplex, "_chain_masks", refuse)
        mp.setattr(srcomplex, "_max_independent_sets", refuse)
        with pytest.raises(
            TooLarge, match="184756 facets exceed the budget MAX_FACETS = 50000"
        ):
            facets(c)
    assert c._facets is None and f_vector(c)[-1] == comb(20, 10)
    # the budget is inclusive: ex3 has 14 facets
    monkeypatch.setattr(srcomplex, "MAX_FACETS", 13)
    with pytest.raises(TooLarge, match="14 facets exceed the budget MAX_FACETS = 13"):
        facets(build_complex(fx("ex3")))
    monkeypatch.setattr(srcomplex, "MAX_FACETS", 14)
    assert len(facets(build_complex(fx("ex3")))) == 14


def collector_after(enabled, fn, *args):
    """Run fn(*args) with the cyclic collector on or off; its result and
    whether the collector is on after it. The state on entry is restored."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        return fn(*args), gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


def listing(c):
    return [tuple(sorted(f)) for f in facets(c)]


def refused(error):
    def run(c):
        with pytest.raises(error):
            facets(c)

    return run


def test_facets_turn_an_enabled_collector_back_on(monkeypatch):
    # the collector is paused around the listing and on again after it,
    # and the listing is the oracle's, on the chain path and the fallback
    for c in (build_complex(fx("fig9")), build_complex(fx("ex6"))):
        got, on = collector_after(True, listing, c)
        assert on and got == brute_maximal_independent_sets(c.vertices, c.forbidden)

    # also when the listing fails inside the pause
    def fail(*args):
        raise MemoryError

    monkeypatch.setattr(srcomplex, "accumulate", fail)
    c = build_complex(fx("ex1"))
    assert collector_after(True, refused(MemoryError), c)[1] and c._facets is None


def test_facets_leave_a_disabled_collector_off():
    # a caller who turned the collector off keeps it off, and one who
    # turns it on again gets it back on after the next listing
    for enabled in (False, True):
        c = build_complex(fx("fig9"))
        got, on = collector_after(enabled, listing, c)
        assert on is enabled
        assert got == brute_maximal_independent_sets(c.vertices, c.forbidden)


def test_facet_budget_leaves_the_collector_alone(monkeypatch):
    # TooLarge is raised before the paused listing (the 10 x 10 box, and
    # ex3 under a budget of 13), so the caller's setting never changes;
    # under a budget of 14 ex3 is listed and the setting restored
    c = build_complex(box(10))
    for enabled in (True, False):
        assert collector_after(enabled, refused(TooLarge), c)[1] is enabled
    monkeypatch.setattr(srcomplex, "MAX_FACETS", 13)
    for enabled in (True, False):
        assert collector_after(enabled, refused(TooLarge), build_complex(fx("ex3")))[1] is enabled
    monkeypatch.setattr(srcomplex, "MAX_FACETS", 14)
    for enabled in (True, False):
        got, on = collector_after(enabled, facets, build_complex(fx("ex3")))
        assert len(got) == 14 and on is enabled


def test_dp_budget_stops_the_fallback(monkeypatch):
    # the 63-vertex notched box is off the chain path: its DP needs 1,021
    # memo entries, and a budget of 1,000 stops it at the 1,001st
    p = notched_box(8, 3)
    order = variable_order(p)
    c = build_complex(p, order)
    assert len(c.vertices) == 63 and _rank_poset(c) is None
    full = (1 << 63) - 1
    memo: dict = {}
    _independent_counts(_adjacency(c), full, memo)
    assert len(memo) == 1021
    monkeypatch.setattr(srcomplex, "MAX_DP_ENTRIES", 1000)
    memo = {}
    with pytest.raises(TooLarge, match="MAX_DP_ENTRIES = 1000 memo entries"):
        _independent_counts(_adjacency(c), full, memo)
    assert len(memo) == 1001
    for fn in (f_vector, hilbert_numerator, facets):
        with pytest.raises(TooLarge, match="MAX_DP_ENTRIES = 1000 memo entries"):
            fn(build_complex(p, order))
    r = full_report(p, order)
    assert r.h_vector is r.multiplicity is r.regularity is r.a_invariant is None
    assert all(r.methods[name] == "unavailable" for name in (
        "a_invariant", "regularity", "multiplicity", "h_vector",
    ))
    assert r.notes == (
        "independent-set DP past the budget MAX_DP_ENTRIES = 1000 memo entries",
    )
    # inclusive here too
    monkeypatch.setattr(srcomplex, "MAX_DP_ENTRIES", 1020)
    with pytest.raises(TooLarge):
        f_vector(build_complex(p, order))
    monkeypatch.setattr(srcomplex, "MAX_DP_ENTRIES", 1021)
    assert f_vector(build_complex(p, order)) == f_vector(c)


def test_fallback_complex_inside_the_guard():
    # 25 vertices; the advisory order does not orient the compatible
    # pairs transitively, so f_vector runs the independent-set DP and
    # facets Bron-Kerbosch
    p = parse("......#\n...####\n..###..\n###....\n.#.....")
    order = variable_order(p)
    c = build_complex(p, order)
    assert len(c.vertices) == 25 and _rank_poset(c) is None
    assert f_vector(c) == brute_face_counts(facets(c))
    r = full_report(p, order)
    assert (r.multiplicity, r.regularity, r.a_invariant) == (192, 5, -8)
    assert r.h_vector == (1, 12, 48, 76, 46, 9)
    assert all(r.methods[name] == "complex" for name in (
        "a_invariant", "regularity", "multiplicity", "h_vector",
    ))


def test_purity():
    for p in stacks_upto(9):
        c = complex_of(p)
        assert all(len(f) == c.d for f in facets(c))


def test_link_deletion_partition():
    for name in ("ex1", "ex3", "figb"):
        c = complex_of(fx(name))
        total = len(facets(c))
        for v in c.vertices:
            assert len(link_facets(c, v)) + len(deletion_facets(c, v)) == total


def test_ex1_link_and_deletion():
    c = complex_of(fx("ex1"))
    assert len(link_facets(c, (3, 2))) == 2
    assert len(deletion_facets(c, (3, 2))) == 3


def test_single_cell_link_and_deletion():
    c = complex_of(fx("single_cell"))
    assert [sorted(f) for f in link_facets(c, (1, 2))] == [[(1, 1), (2, 2)]]
    assert [sorted(f) for f in deletion_facets(c, (1, 2))] == [
        [(1, 1), (2, 1), (2, 2)]
    ]


def test_link_of_unknown_vertex():
    c = complex_of(fx("ex1"))
    with pytest.raises(ValueError):
        link_facets(c, (9, 9))
    with pytest.raises(ValueError):
        deletion_facets(c, (9, 9))


def test_transport_printed_examples():
    out = transport_facet(FIGA_F, 3, 3, 6)
    assert out == frozenset(
        {(1, 3), (1, 4), (2, 4), (3, 2), (3, 3), (4, 3), (5, 3), (6, 1), (6, 2)}
    )
    assert transport_facet_inverse(out, 3, 3, 6) == FIGA_F
    out_b = transport_facet(FIGB_F, 3, 2, 5)
    assert out_b == frozenset(
        {(1, 2), (1, 3), (1, 4), (2, 4), (3, 1), (3, 2), (4, 2), (5, 1)}
    )
    # the image is the cone over the width-4 remainder: apex (5, 1) present
    assert (5, 1) in out_b
    assert transport_facet_inverse(out_b, 3, 2, 5) == FIGB_F


def test_transport_end_columns_are_identity():
    assert transport_facet(FIGA_F, 1, 2, 6) == FIGA_F
    assert transport_facet(FIGB_F, 5, 3, 5) == FIGB_F
    assert transport_facet_inverse(FIGA_F, 1, 2, 6) == FIGA_F


def test_transport_rejects_bad_input():
    with pytest.raises(NotAFacet):
        transport_facet(frozenset(), 3, 2, 5)
    with pytest.raises(NotAFacet):
        transport_facet(frozenset({(6, 1)}), 3, 2, 5)  # outside the box
    with pytest.raises(NotAFacet):
        transport_facet(frozenset({(3, 2), (1, 1)}), 3, 2, 5)  # holds the pivot
    with pytest.raises(NotAFacet):
        transport_facet(frozenset({(1, 1)}), 3, 1, 5)  # h below 2


def test_transport_bijection_on_small_stacks():
    # facets of del(v) land bijectively on the facets of the complex after
    # the top-cell deletion; for h == 2 the target is its cone and the
    # deleted column renormalizes away
    branches = {"tall": 0, "cone_first": 0, "cone_rest": 0}
    for p in stacks_upto(9):
        if is_rectangle(p):
            continue
        dec = decompose(p)
        i, h = dec.v
        m = p.m
        c = complex_of(p)
        dels = deletion_facets(c, dec.v)
        moved = [transport_facet(f, i, h, m) for f in dels]
        assert len(set(moved)) == len(dels)
        for f, g in zip(dels, moved):
            assert transport_facet_inverse(g, i, h, m) == f
        target = set(facets(complex_of(dec.p1)))
        if h > 2:
            assert set(moved) == target
            branches["tall"] += 1
        else:
            apex = (1, 1) if i == 1 else (m, 1)
            stripped = set()
            for g in moved:
                assert apex in g
                rest = g - {apex}
                if i == 1:
                    rest = frozenset((a - 1, b) for a, b in rest)
                stripped.add(rest)
            assert stripped == target
            branches["cone_first" if i == 1 else "cone_rest"] += 1
    assert all(n > 0 for n in branches.values())


def test_link_bijection_on_small_stacks():
    for p in stacks_upto(9):
        if is_rectangle(p):
            continue
        dec = decompose(p)
        c = complex_of(p)
        links = link_facets(c, dec.v)
        parts = [link_decompose(c, dec.v, f) for f in links]
        assert len({g1 for g1, _ in parts}) == len(links)
        assert len(links) == len(facets(complex_of(dec.p2)))
        for f, (g1, g2) in zip(links, parts):
            assert g1 | g2 == f | {dec.v}
            assert not (g1 & g2)
            assert len(g1) + len(g2) == c.d


def test_link_decompose_builds_the_upper_complex_once(monkeypatch):
    built = []

    def counting(q, order=None):
        built.append(q)
        return build_complex(q, order)

    monkeypatch.setattr(srcomplex, "build_complex", counting)
    for name in ("ex3", "figb"):
        p = fx(name)
        c = build_complex(p)
        v = distinguished_vertex(p)
        links = link_facets(c, v)
        assert len(links) > 1
        built.clear()
        for f in links:
            link_decompose(c, v, f)
        assert len(built) == 1, name


def test_link_decompose_values():
    for name, want_g2 in (
        ("figb", {(3, 1), (3, 2), (4, 2), (5, 2)}),
        ("ex1", {(3, 1), (3, 2)}),
    ):
        p = fx(name)
        c = complex_of(p)
        v = distinguished_vertex(p)
        g2s = {link_decompose(c, v, f)[1] for f in link_facets(c, v)}
        assert g2s == {frozenset(want_g2)}


def test_link_decompose_rejects_bad_input():
    p = fx("figb")
    c = complex_of(p)
    v = distinguished_vertex(p)
    good = next(iter(link_facets(c, v)))
    with pytest.raises(DecompositionFailed):
        link_decompose(c, (1, 1), good)
    with pytest.raises(DecompositionFailed):
        link_decompose(c, v, frozenset({(1, 1)}))
    # a rectangle's distinguished vertex tops its lowest column, and no
    # cell lies at or above that level
    box = parse("##\n##")
    c = complex_of(box)
    v = distinguished_vertex(box)
    with pytest.raises(DecompositionFailed, match="^rectangle: no cells at or above the top level$"):
        link_decompose(c, v, next(iter(link_facets(c, v))))
