"""Flag complex of the initial ideal: facets, f-vector, Hilbert data.

Faces are the squarefree monomials outside the initial ideal, so the
complex is determined by its forbidden pairs (the quadratic generators).
Facets are maximal independent sets of the forbidden-pair graph. The
numerator Q(t) of the Hilbert series comes from the f-vector;
invariants.full_report reads multiplicity Q(1), regularity deg Q and
a-invariant deg Q - d off it, where d = m + n - 1 is the Krull dimension.

The forbidden pairs arrive from toric as pairs of rank positions under
c.order (0 at the top), and the searches work on those: no vertex is
hashed to build the complex. FlagComplex.forbidden reads them as vertex
frozensets only when a caller asks.

Chain path. Orient each compatible (non-forbidden) pair upwards along
the ranking. When that orientation is transitive, the complex is the
order complex of a poset: faces are chains and facets are maximal
chains. The up-set of each position (the positions above it that are
compatible with it) is one bitset, built straight from the rank pairs.
f_vector then counts chains in rank order in O(V^2 d), and facets lists
the maximal chains by a DP over the cover relations, from the top of
the ranking down, at a cost that follows the number of facets. A cover
walk reads each vertex's covers off its up-set: the lowest-ranked
element left is a cover, and everything above it is dropped, one step
per cover. The transitivity is checked at runtime, once per complex,
by one test per forbidden pair; it held on every stack tried (all
stacks with at most 10 cells) and fails on most non-stack convex
shapes. When it fails, f_vector falls back to counting independent sets
of the forbidden-pair graph by a memoised DP on packed polynomials:
isolated vertices give a (1 + t)^k row, a disconnected vertex set the
product of its components, and a connected one branches on its busiest
vertex. facets falls back to Bron-Kerbosch. Both fallbacks run on the
graph re-indexed by sorted vertex, built only when they run. Both paths
keep the purity checks.

Two work budgets stop the exponential stages, each checked against
what the stage already measures, and raise TooLarge naming the budget:
the fallback DP past MAX_DP_ENTRIES memo entries, and facets past
MAX_FACETS facets, as counted by f_vector before anything is listed. The
chain-path f-vector is polynomial and has no limit.

Both f_vector paths keep a polynomial in one int with nv + 1 bits per
coefficient (nv vertices); no face count reaches 2^nv, so no
coefficient spills into the next.

Both facet searches produce int masks with vertex k (of the sorted
vertices) at bit nv-1-k; the chain path places each rank position's bit
there as it joins a chain. So one descending sort of the masks puts the
facets in the order of their ascending vertex tuples. Purity is checked
on the masks. Each facet is then the one before it, symmetric
difference the vertices whose bits flip between their masks; _members
builds each distinct flip's vertex set once. CPython's a ^ b copies b's
hash table and toggles a's members in it, reusing the hashes both sets
store, so the flip set goes on the left: flip ^ previous copies the
previous facet's table once and toggles the few flipped vertices.
previous ^ flip would instead insert every vertex of the previous facet
into a copy of the small flip set, resizing as it grows, and end with a
table twice as large (a 30-vertex facet: 2,264 bytes against 1,240 on
CPython 3.10-3.13) and twice the slots for the cyclic collector to walk.

The cyclic garbage collector is paused while that one line builds the
listing, and the caller's setting is restored in a finally: it is
re-enabled only if it was on at entry, so a caller who turned it off
keeps it off. Otherwise every new facet, a gc-tracked frozenset, would
be walked by a generation-0 collection and again by a generation-1
one. The pause is safe:
- the paused region runs only C builtins (map, accumulate, a dict
  lookup, tuple and frozenset.__rxor__, which reuses the hashes of the
  int tuples the sets already store); no Python-level code runs in it,
  nothing re-enters it, and it raises nothing but MemoryError;
- frozensets of int tuples cannot form reference cycles, so no garbage
  piles up while the collector is off;
- it is bounded by MAX_FACETS: on the 9 x 9 box (48,620 facets) the
  paused line takes about 0.03 s, and facets 0.07-0.11 s in all; other
  threads see the collector off for that long;
- TooLarge and NotPure are raised before the region, so they never see
  a paused collector.
The saving is that no generation-1 walk happens during the listing.
After it, the first allocation starts one generation-0 pass that walks
the still-live facets once (37-52 ms on the 9 x 9 box).
"""

from __future__ import annotations

import gc
from itertools import accumulate, compress, repeat

from .errors import DecompositionFailed, NotAFacet, NotPure, TooLarge
from .polyomino import Polyomino, distinguished_vertex
from .toric import InitialIdeal, Variable, VarOrder, initial_ideal

Facet = frozenset[Variable]

# the work budgets of the exponential stages (see the module docstring);
# about 3 s of DP, and about 0.07-0.11 s and 79 MB of facets
MAX_DP_ENTRIES = 200_000
MAX_FACETS = 50_000


class FlagComplex:
    """The flag complex on vertices with the given forbidden pairs.

    Compared by identity. The forbidden pairs are held as an
    InitialIdeal under order (build_complex puts initial_ideal's own
    in place): forbidden reads its generators as vertex frozensets, the
    searches read them as pairs of rank positions.
    vertices is sorted, and order ranks exactly those vertices. The
    underscored slots are the caches that facets, f_vector, _rank_poset,
    _adjacency and link_decompose (per vertex) fill on first use.
    """

    __slots__ = (
        "poly", "order", "vertices", "d",
        "_ideal", "_adj", "_facets", "_counts", "_links", "_poset",
    )

    def __init__(
        self,
        poly: Polyomino,
        order: VarOrder,
        vertices: tuple[Variable, ...],
        forbidden: frozenset[Facet],
        d: int,
    ):
        self.poly = poly
        self.order = order
        self.vertices = vertices
        self.d = d
        self._ideal = InitialIdeal(forbidden, order)
        self._adj = None
        self._facets = None
        self._counts = None
        self._links = {}
        self._poset = None  # () once refuted

    @property
    def forbidden(self) -> frozenset[Facet]:
        return self._ideal.generators

    def __repr__(self):
        return (
            f"FlagComplex(poly={self.poly!r}, order={self.order!r}, "
            f"vertices={self.vertices!r}, forbidden={self.forbidden!r}, d={self.d!r})"
        )


def build_complex(p: Polyomino, order: VarOrder | None = None) -> FlagComplex:
    """The flag complex of in(I_P) under order, the height order by
    default; initial_ideal checks that order ranks exactly p's vertices."""
    ideal = initial_ideal(p, order)
    c = FlagComplex(p, ideal.order, tuple(sorted(p.vertices)), None, p.m + p.n - 1)
    c._ideal = ideal
    return c


def _rank(c: FlagComplex) -> list[int]:
    """The sorted index of each vertex, from the top of c.order down."""
    index = {v: k for k, v in enumerate(c.vertices)}
    return [index[v] for v in c.order.ranked]


def _adjacency(c: FlagComplex) -> tuple:
    """The forbidden-pair graph of the fallback searches, on sorted
    indices: adj[k] holds the bits of the vertices forbidden with vertex
    k. Built once per complex, from the ideal's rank pairs."""
    if c._adj is None:
        rank = _rank(c)
        adj = [0] * len(rank)
        for u, w in c._ideal._rank_leads():
            a, b = rank[u], rank[w]
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        c._adj = tuple(adj)
    return c._adj


def _max_independent_sets(adj: tuple, mask: int) -> list[int]:
    """Maximal independent sets inside mask, as bit masks (Bron-Kerbosch
    with pivot on the complement graph)."""
    comp = {}

    def cadj(v: int) -> int:
        got = comp.get(v)
        if got is None:
            got = mask & ~adj[v] & ~(1 << v)
            comp[v] = got
        return got

    out: list[int] = []

    def expand(r: int, p_: int, x: int):
        if p_ == 0 and x == 0:
            out.append(r)
            return
        px = p_ | x
        pivot = -1
        best = -1
        probe = px
        while probe:
            v = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            cnt = (p_ & cadj(v)).bit_count()
            if cnt > best:
                best = cnt
                pivot = v
        cand = p_ & ~cadj(pivot)
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            expand(r | 1 << v, p_ & cadj(v), x & cadj(v))
            p_ &= ~(1 << v)
            x |= 1 << v
    expand(0, mask, 0)
    return out


def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _rank_poset(c: FlagComplex) -> tuple | None:
    """up, when c.order orients the compatibility graph transitively,
    else None; computed once per complex.

    Vertex r is the rank position r under c.order, 0 at the top. up[r]
    is the bitset of the positions above r that are compatible with r:
    the bits below bit r, less r's forbidden partners, read off the
    ideal's rank pairs. Transitivity fails exactly when some forbidden
    pair u above w has a position between them that is compatible with
    both, so each pair is tested once, up[w] against the positions past
    u that are compatible with u.
    """
    if c._poset is None:
        leads = c._ideal._rank_leads()
        nv = len(c.vertices)
        near = [0] * nv
        for u, w in leads:
            near[u] |= 1 << w
            near[w] |= 1 << u
        up = tuple(((1 << r) - 1) & ~near[r] for r in range(nv))
        # -(2 << u) sets every bit past u
        down = [-(2 << u) & ~near[u] for u in range(nv)]
        if any(up[w] & down[u] for u, w in leads):
            c._poset = ()
            return None
        c._poset = up
    return c._poset or None


def _chain_counts(up: tuple) -> tuple[int, ...]:
    """Number of chains of each size, the empty chain included.

    P_r(t) = t (1 + sum of P_u(t) over u in up[r]) counts the chains
    whose lowest element is r. Each polynomial is packed into one int
    with len(up) + 1 bits per coefficient, which no count reaches.
    """
    width = len(up) + 1
    poly: list[int] = []
    total = 1
    for mask in up:
        acc = 1
        for u in _bits(mask):
            acc += poly[u]
        acc <<= width
        poly.append(acc)
        total += acc
    return _unpack(total, width)


def _unpack(packed: int, width: int) -> tuple[int, ...]:
    """The coefficients of a polynomial packed width bits apiece, lowest
    degree first, up to the highest nonzero one."""
    counts = []
    digit = (1 << width) - 1
    while packed:
        counts.append(packed & digit)
        packed >>= width
    return tuple(counts)


def _chain_masks(up: tuple, rank: list[int]) -> list[int]:
    """Maximal chains as facet masks (vertex k at bit nv-1-k).

    Vertices are rank positions as in _rank_poset, and rank[r] is the
    sorted index of position r, which places its bit. A DP from the top
    of the ranking down: chains[r] holds the maximal chains whose lowest
    element is r, each the bit of r joined to a chain that starts at a
    cover of r, or the bit of r alone when nothing covers r. The cover
    walk reads the covers of r off up[r]: its lowest-ranked element q
    (the highest bit) is a cover, and by transitivity nothing in up[q]
    is, so q and up[q] are dropped and the walk repeats, one step per
    cover. The maximal chains are those of the minimal elements, which
    lie in no up-set.
    """
    nv = len(up)
    bits = [1 << (nv - 1 - k) for k in rank]
    chains: list[list[int]] = []
    below = 0
    for r, mask in enumerate(up):
        below |= mask
        bit = bits[r]
        got: list[int] = []
        while mask:
            q = mask.bit_length() - 1
            got += [bit | m for m in chains[q]]
            mask &= ~(up[q] | 1 << q)
        chains.append(got or [bit])
    return [m for r in _bits(((1 << nv) - 1) & ~below) for m in chains[r]]


def _mirrored(adj: tuple) -> tuple:
    """adj with vertex k moved to index and bit nv-1-k."""
    nv = len(adj)
    return tuple(int(f"{adj[k]:0{nv}b}"[::-1], 2) for k in reversed(range(nv)))


# format(mask, "0{nv}b") spells vertex 0 first; translate turns the
# digits into the 0/1 bytes that compress selects vertices by
_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")


def _members(verts: tuple, masks: list[int]):
    """The vertices of each mask, vertex k at bit nv-1-k, in index order."""
    spec = f"0{len(verts)}b"
    rows = [format(mask, spec).encode().translate(_ZERO_ONE) for mask in masks]
    return map(compress, repeat(verts), rows)


def facets(c: FlagComplex) -> tuple[Facet, ...]:
    """All facets, sorted by their vertex tuples; asserts purity (every
    facet has size d). TooLarge, before anything is listed, when f_vector
    counts more than MAX_FACETS of them (or its own DP budget stops it).

    Each facet is first an int mask with vertex k at bit nv-1-k: maximal
    chains by _chain_masks on the chain path, maximal independent sets
    of the mirrored forbidden-pair graph otherwise. The highest bit in
    which two masks differ is the least index that one facet has and the
    other lacks; as no facet contains another, that facet also has the
    smaller ascending index tuple. So the masks sorted in descending
    order list the facets by their vertex tuples (c.vertices is sorted).
    Purity is checked on the masks. Consecutive masks differ in a few
    bits (3.8 on average over the facets of 30-60 vertex stacks), so
    each facet is built from the one before it by one symmetric
    difference with the vertex set of the bits that flip, flip set on
    the left so that the previous facet's table is the one copied (see
    the module docstring), and each distinct flip's set is built once.
    The cyclic collector is paused while the listing is built, and the
    caller's setting restored (see the module docstring).
    """
    if c._facets is not None:
        return c._facets
    count = f_vector(c)[-1]
    if count > MAX_FACETS:
        raise TooLarge(f"{count} facets exceed the budget MAX_FACETS = {MAX_FACETS}")
    poset = _rank_poset(c)
    if poset is not None:
        masks = _chain_masks(poset, _rank(c))
    else:
        masks = _max_independent_sets(_mirrored(_adjacency(c)), (1 << len(c.vertices)) - 1)
    masks.sort(reverse=True)
    for mask in masks:
        if mask.bit_count() != c.d:
            raise NotPure(
                f"facet of size {mask.bit_count()}, expected d = {c.d}: "
                f"{list(next(_members(c.vertices, [mask])))}"
            )
    flips = [a ^ b for a, b in zip([0, *masks], masks)]
    distinct = list(set(flips))
    steps = dict(zip(distinct, map(frozenset, _members(c.vertices, distinct))))
    enabled = gc.isenabled()
    gc.disable()
    try:
        # accumulate calls __rxor__(previous, flip), which is flip ^ previous
        c._facets = tuple(accumulate(map(steps.__getitem__, flips), frozenset.__rxor__))
    finally:
        if enabled:
            gc.enable()
    return c._facets


def _independent_counts(adj: tuple, mask: int, memo: dict) -> tuple[int, ...]:
    """Coefficient k = number of independent sets of size k inside mask.

    A DP on packed polynomials, as in _chain_counts: memo maps a mask to
    its independence polynomial, one int with len(adj) + 1 bits per
    coefficient (the empty mask to 1). Isolated vertices contribute (1 + t) each, read off a
    precomputed row; a disconnected remainder is the product of its
    components; a connected one branches on its busiest vertex v as
    I(mask - v) + t I(mask - N[v]). TooLarge once memo holds more than
    MAX_DP_ENTRIES entries.
    """
    budget = MAX_DP_ENTRIES
    width = len(adj) + 1
    one_plus_t = 1 + (1 << width)
    edgeless = [1]
    for _ in adj:
        edgeless.append(edgeless[-1] * one_plus_t)
    memo[0] = 1

    def count(mask: int) -> int:
        got = memo.get(mask)
        if got is not None:
            return got
        isolated = 0
        pivot = -1
        best = 0
        probe = mask
        while probe:
            low = probe & -probe
            probe ^= low
            v = low.bit_length() - 1
            deg = (adj[v] & mask).bit_count()
            if deg == 0:
                isolated |= low
            elif deg > best:
                best = deg
                pivot = v
        if isolated:
            result = edgeless[isolated.bit_count()] * count(mask ^ isolated)
        else:
            # the component of the lowest vertex
            comp = frontier = mask & -mask
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grown = adj[low.bit_length() - 1] & mask & ~comp
                comp |= grown
                frontier |= grown
            if comp != mask:
                result = count(comp) * count(mask ^ comp)
            else:
                result = count(mask & ~(1 << pivot)) + (
                    count(mask & ~(adj[pivot] | 1 << pivot)) << width
                )
        memo[mask] = result
        if len(memo) > budget:
            raise TooLarge(
                f"independent-set DP past the budget MAX_DP_ENTRIES = {budget} memo entries"
            )
        return result

    return _unpack(count(mask), width)


def f_vector(c: FlagComplex) -> tuple[int, ...]:
    """(f_-1, f_0, ..., f_{d-1}): chains counted on the chain path, at
    any size, independent sets of the forbidden-pair graph otherwise,
    TooLarge past MAX_DP_ENTRIES memo entries."""
    if c._counts is not None:
        return c._counts
    poset = _rank_poset(c)
    if poset is not None:
        counts = _chain_counts(poset)
    else:
        counts = _independent_counts(_adjacency(c), (1 << len(c.vertices)) - 1, {})
    if len(counts) != c.d + 1:
        raise NotPure(
            f"face sizes reach {len(counts) - 1}, expected d = {c.d}"
        )
    c._counts = counts
    return counts


def hilbert_numerator(c: FlagComplex) -> tuple[int, ...]:
    """Coefficients of Q(t) = sum f_(i-1) t^i (1-t)^(d-i), trailing zeros cut;
    TooLarge when f_vector's DP budget stops it.

    A difference table: with Q_0 = f_-1 and Q_i = (1 - t) Q_(i-1) +
    f_(i-1) t^i, Q is Q_d (f_vector has exactly d + 1 entries), and each
    step subtracts neighbouring coefficients.
    """
    fv = f_vector(c)
    q = [fv[0]]
    for fi in fv[1:]:
        q = [a - b for a, b in zip(q + [fi], [0] + q)]
    while q and q[-1] == 0:
        q.pop()
    if not q or q[0] != 1 or sum(q) != fv[-1]:
        raise NotPure("Hilbert numerator failed its sanity identities")
    return tuple(q)


def link_facets(c: FlagComplex, v: Variable) -> tuple[Facet, ...]:
    """Facets of the complex that contain v, each with v removed.

    In a flag complex these are exactly the facets of lk(v), so together
    with deletion_facets they partition the facet list.
    """
    if v not in c.vertices:
        raise ValueError(f"{v} is not a vertex of the complex")
    return tuple(f - {v} for f in facets(c) if v in f)


def deletion_facets(c: FlagComplex, v: Variable) -> tuple[Facet, ...]:
    """Facets of the complex that avoid v.

    The deletion subcomplex can have further maximal faces of smaller
    size hiding under facets through v; those never take part in the
    facet counting, so they are not reported.
    """
    if v not in c.vertices:
        raise ValueError(f"{v} is not a vertex of the complex")
    return tuple(f for f in facets(c) if v not in f)


def _check_transport_args(f: frozenset, i: int, h: int, m: int):
    if not f:
        raise NotAFacet("empty vertex set")
    for a, b in f:
        if not (1 <= a <= m) or b < 1:
            raise NotAFacet(f"vertex {(a, b)} outside the box of width {m}")
    if not (1 <= i <= m) or h < 2:
        raise NotAFacet(f"bad transport parameters i={i}, h={h}, m={m}")


def _cycle_columns(f: frozenset, cycle: list[int], h: int) -> frozenset:
    """f with its vertices on levels <= h moved along a cycle of columns:
    column cycle[t] goes to cycle[t + 1], and the last to cycle[0]."""
    dest = dict(zip(cycle, cycle[1:] + cycle[:1]))
    return frozenset((dest.get(a, a), k) if k <= h else (a, k) for a, k in f)


def transport_facet(f: frozenset, i: int, h: int, m: int) -> frozenset:
    """Carry a facet avoiding (i, h) across the top-cell deletion.

    Identity when i == 1 or i == m (the cell deletion then happens in the
    pivot's own column and nothing moves). Otherwise, on levels k <= h,
    column i moves to column m and each of the columns i+1..m one to the
    left: a cycle of the columns i..m.
    """
    orig = frozenset(f)
    _check_transport_args(orig, i, h, m)
    if (i, h) in orig:
        raise NotAFacet(f"facet must avoid the pivot vertex {(i, h)}")
    if i == 1 or i == m:
        return orig
    return _cycle_columns(orig, [i, *range(m, i, -1)], h)


def transport_facet_inverse(f: frozenset, i: int, h: int, m: int) -> frozenset:
    """Inverse rearrangement: on levels k <= h, column m moves to column
    i and each of the columns i..m-1 one to the right."""
    orig = frozenset(f)
    _check_transport_args(orig, i, h, m)
    if i == 1 or i == m:
        return orig
    return _cycle_columns(orig, [*range(i + 1, m + 1), i], h)


def link_decompose(c: FlagComplex, v: Variable, f: frozenset) -> tuple[frozenset, frozenset]:
    """Split a link facet F of the distinguished vertex v = (i, height(i))
    into G1 u G2, where G2 collects the level-j vertices lost by the upper
    part plus the column-i vertices below v, and G1 renormalizes to a
    facet of the upper part's complex.

    Everything that does not depend on F (the link facets, G2 and the
    upper part's facets) is built once per complex and vertex and kept
    in c._links.

    Returns (g1, g2) in the original coordinates.
    """
    got = c._links.get(v)
    if got is None:
        got = c._links[v] = _decompose_parts(c, v)
    links, g2, shift, upper_facets = got
    f = frozenset(f)
    if f not in links:
        raise DecompositionFailed("input is not a facet of the link")
    fv = f | {v}
    if not g2 <= fv:
        raise DecompositionFailed("facet does not contain the boundary block G2")
    g1 = fv - g2
    dc, dr = shift
    if frozenset((a - dc, b - dr) for a, b in g1) not in upper_facets:
        raise DecompositionFailed("G1 does not renormalize to a facet of the upper part")
    return g1, g2


def _decompose_parts(c: FlagComplex, v: Variable) -> tuple:
    """(link facets, G2, renormalizing shift, upper part's facets) for
    link_decompose, after checking that v is the distinguished vertex."""
    p = c.poly
    i, j = v
    canonical = distinguished_vertex(p)
    if (i, j) != canonical:
        raise DecompositionFailed(f"{v} is not the minimal-height top vertex {canonical}")
    upper = {(cc, rr) for cc, rr in p.cells if rr >= j}
    if not upper:
        raise DecompositionFailed("rectangle: no cells at or above the top level")
    lo = min(cc for cc, _ in upper)
    hi = max(cc for cc, _ in upper) + 1
    g2 = {(a, j) for a in range(1, p.m + 1) if (a, j) in p.vertices and not lo <= a <= hi}
    g2 |= {(i, k) for k in range(1, j)}
    upper_facets = frozenset(facets(build_complex(Polyomino(upper))))
    return frozenset(link_facets(c, v)), frozenset(g2), (lo - 1, j - 1), upper_facets
