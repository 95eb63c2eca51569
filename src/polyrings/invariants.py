"""Ring invariants of stack (and convex) polyominoes.

For a stack on the vertex box [m] x [n] the multiplicity satisfies
e(P) = e(P1) + e(P2) where P1 deletes the distinguished top cell and P2
keeps the cells at or above the distinguished level. The identity lifts
to the whole h-polynomial, the numerator of the Hilbert series:

    h_P(t) = h_P1(t) + t * h_P2(t).

Proof sketch. Let D be the initial complex of P (a flag complex with
facets of size d = m + n - 1) and v the distinguished vertex. The faces
of D split into those without v and those with v, so the f-polynomial
F(t) = sum of f_(i-1) t^i is F_D = F_del(v) + t * F_lk(v). With
h(t) = (1 - t)^k F(t / (1 - t)) for facets of size k, this becomes
h_D = h_del(v) + t * h_lk(v): the deletion has facets of size d and the
link of size d - 1. The paper identifies del(v) with D(P1) (coned over
a vertex when P1 drops a column) and lk(v) with D(P2) joined with a
fixed simplex, the block G2 of srcomplex.link_decompose. A cone or a
join with a simplex does not change h. Full rectangles ground the
recursion: a cells wide and b cells tall, h_k = binom(a, k) *
binom(b, k), which sums to e = binom(a + b, a). Then e(P) = h_P(1),
reg(P) = deg h_P and a(P) = reg(P) - d.

A stack is exactly its profile, the tuple (h_1, ..., h_{m-1}) of its
cell column heights, so the recursion runs on profiles: one step is a
few tuple operations, and the memo _mult_memo maps a profile to its
h-vector. The memo is cleared on entry to a call once it holds more
than _MEMO_MAX_ENTRIES profiles. A Polyomino is read once on entry;
decompose builds its P1 and P2 from the same step.

Ferrers shapes. For a convex P, K[P] is the edge ring of the
bipartite graph G_P of P's vertex columns against its levels, one edge
per vertex (Qureshi 2012, cited from memory). Relabelling the columns
and the levels maps the edges of G_P onto those of the relabelled
graph, and so is a graded isomorphism of the two rings. When the level
sets of the vertex columns are nested (polyomino.ferrers), G_P is a
Ferrers graph, which its column degrees fix up to relabelling: it is
the graph of the stack whose profile lam lists the level-set sizes less
one, descending, without the first. So K[P] is isomorphic to the ring
of that stack, and h, e, reg, a and the Gorenstein verdict are those of
the stack. Every stack is a Ferrers shape, and so is its image under
each symmetry of the grid. In particular a stack and the stack of its
sorted profile share lam, so _h(hs) == _h(sorted(hs, reverse=True)).
The memo still keeps the two profiles apart: a stack's h is computed
on its own profile, so that the mirror image takes another path
through the recursion and decompose --oracle checks one against the
other.

full_report reads e = h(1), reg = deg h and a = deg h - d off one
h-polynomial: this recursion's for a Ferrers shape, which builds no
complex, or the Hilbert numerator of the initial complex under a
verified order. Every reported h is certified: it must be palindromic
exactly when the interval criterion says K[P] is Gorenstein (Stanley's
theorem, as K[P] is a Cohen-Macaulay domain for every convex P), and
the recursion's deg h must also equal the closed-form regularity below.
A split raises ConsistencyError.

The regularity of a stack is exact in closed form. Let P_j be the cells
at or above cell row j and [m_j] x [n_j] the smallest interval holding
its vertices; then reg(P) = min over j of (j - 1) + min(m_j, n_j) - 1.
In a stack, row j has w_j cells and P_j spans n - j + 1 vertex rows, so
this is min(n - 1, min_j (j - 1 + w_j)), and a(P) = reg(P) - (m + n - 1).
It is the rook number of the stack, which is the regularity of every
L-convex polyomino (Ene, Herzog, Qureshi, Romeo 2021).

rook_number computes r(P), the most cells of P no two in one cell row or
cell column: a maximum matching of cell columns to cell rows. On a
convex polyomino the rows of each cell column form an interval, so the
matching needs no augmenting paths (Glover, "Maximum matching in a
convex bipartite graph", 1967) and a greedy sweep finds it. Then
-a = d - r(P) on a stack is the paper's maximum number of disjoint
directed cuts, whose 2^(m+n) sweep lives in the tests' oracles;
invariants --oracle checks the identity on every Ferrers shape.

The j = 1 term alone gives the bounding-box bounds a <= -max(m, n) and
reg <= min(m, n) - 1. They are not always attained: a tall narrow
tower on a wide low base beats them, the smallest case being the 5-cell
stack with vertex heights [2,2,4,4], where a = -5 and reg = 2. So they
are never reported as values; full_report names a gap in its notes.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from math import comb
from operator import add
from typing import NamedTuple

from .errors import (
    BadParameters,
    ConsistencyError,
    GroebnerUnverified,
    IsRectangle,
    NotConvex,
    NotStack,
    TooLarge,
)
from .gorenstein import is_gorenstein_convex
from .polyomino import (
    Polyomino,
    column_bounds,
    distinguished_vertex,
    ferrers,
    is_convex,
    is_rectangle,
    is_stack,
    stack_from_profile,
)
from .srcomplex import build_complex, hilbert_numerator
from .toric import VarOrder, _check_ranks


def a_invariant_stack_exact(p: Polyomino) -> int:
    """The a-invariant of a stack, regularity_stack_exact(p) - (m + n - 1)."""
    if not is_stack(p):
        raise NotStack("a-invariant formula needs a stack polyomino")
    return _exact_regularity(_profile(p)) - (p.m + p.n - 1)


def regularity_stack_exact(p: Polyomino) -> int:
    """The regularity of a stack, min(n - 1, min_j (j - 1 + w_j)) with
    w_j the number of cells in cell row j. See the module docstring."""
    if not is_stack(p):
        raise NotStack("regularity formula needs a stack polyomino")
    return _exact_regularity(_profile(p))


def rook_number(p: Polyomino) -> int:
    """r(P): the most cells of P with no two in one cell row or column,
    a maximum matching of cell columns 1..m-1 to cell rows 1..n-1.

    Glover's greedy: the cell rows are taken in ascending order, and each
    gets the open cell column whose rows end first. Any maximum matching
    can be exchanged into the greedy one row at a time, since the column
    the greedy takes stays open no longer than the one it displaces.
    Cell column c holds the rows [lo[c], hi[c]] of the polyomino's kept
    column bounds, so it opens at row lo[c] and ends at row hi[c].
    """
    if not is_convex(p):
        raise NotConvex("the rook number sweep needs a convex polyomino")
    lo, hi, _ = column_bounds(p)
    # opening[r]: the last rows of the cell columns whose first row is r
    opening: list[list[int]] = [[] for _ in range(p.n)]
    for c in range(1, p.m):
        opening[lo[c]].append(hi[c])
    ends: list[int] = []  # the last rows of the open columns, ascending
    rooks = 0
    for r in range(1, p.n):
        for last in opening[r]:
            insort(ends, last)
        del ends[: bisect_left(ends, r)]  # columns that ended below r
        if ends:
            del ends[0]
            rooks += 1
    return rooks


def _exact_regularity(hs: Profile) -> int:
    """The closed-form regularity of the stack with profile hs: cell row
    j holds w_j cells, one per column of height at least j, and the
    stack spans n - 1 = max(hs) cell rows."""
    rows = max(hs)
    tops = [0] * (rows + 1)
    for h in hs:
        tops[h] += 1
    reg, w = rows, 0
    for j in range(rows, 0, -1):
        w += tops[j]
        reg = min(reg, j - 1 + w)
    return reg


class Decomposition(NamedTuple):
    """Distinguished vertex v plus the two smaller stacks P1 and P2."""

    v: tuple[int, int]
    p1: Polyomino
    p2: Polyomino


Profile = tuple[int, ...]


def _profile(p: Polyomino) -> Profile:
    """Cell column heights h_1..h_{m-1} of a stack: every cell column
    starts at row 1, so its height is its highest row, read off the
    polyomino's kept column bounds."""
    return column_bounds(p)[1][1:-1]


def _step(hs: Profile) -> tuple[Profile, Profile]:
    """One step of the recursion on a non-constant stack profile: (P1, P2).

    A stack's profile rises then falls, so its lowest vertex column is
    an end one, of height low + 1 with low = min(h_1, h_{m-1}), and it
    is column 1 exactly when h_1 <= h_{m-1}. P1 then lowers the first
    column, otherwise the last one, and drops it at height 0. P2 keeps
    the rows above low.
    """
    first, last = hs[0], hs[-1]
    if first <= last:
        p1 = hs[1:] if first == 1 else (first - 1,) + hs[1:]
        low = first
    else:
        p1 = hs[:-1] if last == 1 else hs[:-1] + (last - 1,)
        low = last
    return p1, tuple([h - low for h in hs if h > low])


def decompose(p: Polyomino) -> Decomposition:
    """One step of the multiplicity recursion.

    P1 deletes the top cell of cell column 1 when the distinguished
    column is the first, of cell column m-1 otherwise. P2 keeps the
    cells at or above the distinguished level, renormalized.
    """
    if not is_stack(p):
        raise NotStack("decompose needs a stack polyomino")
    if is_rectangle(p):
        raise IsRectangle("a full rectangle is the recursion base, not a step")
    p1, p2 = _step(_profile(p))
    return Decomposition(distinguished_vertex(p), stack_from_profile(p1), stack_from_profile(p2))


def multiplicity_rectangle(m: int, n: int) -> int:
    """e of the full [m] x [n] rectangle."""
    if m < 2 or n < 2:
        raise BadParameters(f"rectangle box needs m, n >= 2, got {m}, {n}")
    return comb(m + n - 2, m - 1)


HVector = tuple[int, ...]

# Past this many profiles the memo is cleared on entry to a call; a
# 2000-cell stack alone adds about 35,000.
_MEMO_MAX_ENTRIES = 10_000

_mult_memo: dict[Profile, HVector] = {}


def h_vector_recursive(p: Polyomino) -> HVector:
    """h-vector of K[P] by the deletion recursion, memoized on cell
    column heights. See the module docstring."""
    if not is_stack(p):
        raise NotStack("the recursion needs a stack polyomino")
    return _h(_profile(p))


def multiplicity_recursive(p: Polyomino) -> int:
    """e(P) = h_P(1) by the deletion recursion."""
    return sum(h_vector_recursive(p))


def _rectangle_h(a: int, b: int) -> HVector:
    """h of the rectangle a cells wide and b cells tall."""
    return tuple(comb(a, k) * comb(b, k) for k in range(min(a, b) + 1))


def _add_shifted(h1: HVector, h2: HVector) -> HVector:
    """h1 + t * h2."""
    n = len(h2) + 1
    if len(h1) < n:
        h1 += (0,) * (n - len(h1))
    return (h1[0], *map(add, h1[1:n], h2), *h1[n:])


def _h(hs: Profile) -> HVector:
    """h of the stack with profile hs, on an explicit work stack so that
    the depth (one level per cell) is not bounded by Python's recursion
    limit. A constant profile is the rectangle len cells wide and h
    cells tall."""
    memo = _mult_memo
    if len(memo) > _MEMO_MAX_ENTRIES:
        memo.clear()
    work: list[tuple[Profile, tuple[Profile, Profile] | None]] = [(hs, None)]
    while work:
        top, parts = work.pop()
        if parts is not None:
            memo[top] = _add_shifted(memo[parts[0]], memo[parts[1]])
        elif top not in memo:
            if top.count(top[0]) == len(top):
                memo[top] = _rectangle_h(len(top), top[0])
            else:
                p1, p2 = _step(top)
                work.append((top, (p1, p2)))
                if p1 not in memo:
                    work.append((p1, None))
                if p2 not in memo:
                    work.append((p2, None))
    return memo[hs]


def pk_polyomino(m: int, n: int, k: int) -> Polyomino:
    """Rectangle of full columns plus one last cell column of top vertex k."""
    _check_pk(m, n, k)
    cells = [(c, r) for c in range(1, m - 1) for r in range(1, n)]
    cells += [(m - 1, r) for r in range(1, k)]
    return Polyomino(cells)


def _check_pk(m: int, n: int, k: int):
    if m < 3 or n < 2 or not 2 <= k < n:
        raise BadParameters(
            f"need m >= 3 and 2 <= k < n, got m={m}, n={n}, k={k}"
        )


def multiplicity_pk(m: int, n: int, k: int) -> int:
    """Closed form for the one-step ladder: full rectangle minus a tail."""
    _check_pk(m, n, k)
    return comb(m + n - 2, m - 1) - comb(m + n - k - 2, m - 1)


def ladder_polyomino(m: int, n: int, ks) -> Polyomino:
    """Full-height columns followed by steps: the last len(ks) vertex
    columns have heights ks (weakly decreasing, between 2 and n)."""
    ks = tuple(int(k) for k in ks)
    if m < 2 or n < 2 or len(ks) > m - 1:
        raise BadParameters(f"need m, n >= 2 and at most m-1 steps, got m={m}, n={n}, ks={ks}")
    if any(not 2 <= k <= n for k in ks):
        raise BadParameters(f"step heights must lie in 2..n, got {ks}")
    if any(a < b for a, b in zip(ks, ks[1:])):
        raise BadParameters(f"step heights must be weakly decreasing, got {ks}")
    l = len(ks)
    cells = []
    for c in range(1, m):
        top = n if c < m - l else ks[c - m + l]
        for r in range(1, top):
            cells.append((c, r))
    p = Polyomino(cells)
    if p.m != m or p.n != n:
        raise BadParameters(
            f"declared box [{m}]x[{n}] is not realized (got [{p.m}]x[{p.n}])"
        )
    return p


def _ladder_value(m: int, n: int, ks: tuple[int, ...], memo: dict) -> int:
    while ks and ks[0] == n:
        ks = ks[1:]
    while ks and ks[-1] == 1:
        ks = ks[:-1]
        m -= 1
    if not ks:
        return multiplicity_rectangle(m, n)
    key = (m, n, ks)
    got = memo.get(key)
    if got is None:
        got = memo[key] = sum(
            _ladder_value(m - 1, n - j, tuple(k - j for k in ks[:-1]), memo)
            for j in range(ks[-1])
        )
    return got


def multiplicity_ladder(m: int, n: int, ks) -> int:
    """e of the ladder by its own one-step recursion (peeling the last
    step column), independent of the generic deletion recursion; the
    shared subproblems are memoised for the length of the call."""
    ladder_polyomino(m, n, ks)
    return _ladder_value(m, n, tuple(int(k) for k in ks), {})


class InvariantReport:
    """full_report's result: the values, with a method tag per value in
    methods and the reasons for gaps and bound mismatches in notes.

    Compared by identity; to_dict gives the fields as plain JSON data.
    """

    __slots__ = (
        "m", "n", "d", "a_invariant", "regularity", "multiplicity",
        "h_vector", "gorenstein", "methods", "notes",
    )

    def __init__(
        self,
        m: int,
        n: int,
        d: int,
        a_invariant: int | None,
        regularity: int | None,
        multiplicity: int | None,
        h_vector: tuple[int, ...] | None,
        gorenstein: bool,
        methods: dict[str, str],
        notes: tuple[str, ...] = (),
    ):
        self.m = m
        self.n = n
        self.d = d
        self.a_invariant = a_invariant
        self.regularity = regularity
        self.multiplicity = multiplicity
        self.h_vector = h_vector
        self.gorenstein = gorenstein
        self.methods = methods
        self.notes = notes

    def __repr__(self):
        return "InvariantReport(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        ) + ")"

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self.__slots__}
        if self.h_vector is not None:
            out["h_vector"] = list(self.h_vector)
        out["methods"] = dict(sorted(self.methods.items()))
        out["notes"] = list(self.notes)
        return out


def full_report(p: Polyomino, order: VarOrder | None = None) -> InvariantReport:
    """Every invariant this package can certify for p, with method tags.

    The h-vector comes from the h-polynomial recursion ("recursion") for
    a stack, on its own profile, and for any other Ferrers shape on its
    lam (polyomino.ferrers), with a note naming lam; at any size, no
    complex is built and no work budget applies. Any other convex shape
    takes h from the complex ("complex") when a supplied order passes
    the Groebner check and the complex's f-vector stays within its work
    budget (srcomplex); otherwise all four values are "unavailable", and
    a budget that stopped the f-vector is named in notes. The regularity
    deg h, the a-invariant deg h - d and the multiplicity h(1) are read
    off h and carry its tag.

    Runtime checks certify every reported h: it must be palindromic
    exactly when the interval criterion calls K[P] Gorenstein, and the
    recursion's deg h must also equal the exact closed-form regularity
    of its stack. Either split raises ConsistencyError. The bounding-box
    bounds are beaten on some stacks (smallest: 5 cells, a base row of
    three cells with a two-cell tower); such a gap is reported in notes,
    never raised.

    Every shape, at any size, gets the Gorenstein verdict from the
    polynomial interval scan of the convex criterion (tagged "interval
    criterion"). A supplied order must rank exactly the vertices of p
    (BadParameters otherwise); a Ferrers shape does not use it.
    """
    if not is_convex(p):
        raise NotConvex("full_report needs a convex polyomino")
    d = p.m + p.n - 1
    notes: list[str] = []
    h, source = None, "unavailable"
    if is_stack(p):
        profile = _profile(p)
    else:
        shape = ferrers(p)
        profile = None if shape is None else shape[0]
        if profile is not None:
            notes.append(
                f"P is a Ferrers shape: the recursion ran on the stack with profile {profile}"
            )
    if profile is not None:
        if order is not None:
            # the recursion does not use it; initial_ideal checks it otherwise
            _check_ranks(p, order)
        h, source = _h(profile), "recursion"
    elif order is not None:
        try:
            h, source = hilbert_numerator(build_complex(p, order)), "complex"
        except GroebnerUnverified:
            pass
        except TooLarge as exc:
            notes.append(str(exc))
    a = reg = mult = None
    if h is not None:
        reg, mult = len(h) - 1, sum(h)
        a = reg - d
    if source == "recursion":
        exact_reg = _exact_regularity(profile)
        if reg != exact_reg:
            raise ConsistencyError(
                f"recursion gives regularity deg h = {reg}, closed form {exact_reg}"
            )
        box_reg = min(p.m, p.n) - 1
        if reg != box_reg:
            notes.append(
                f"bounding-box bounds predict a={box_reg - d}, regularity={box_reg}; "
                f"the recursion gives a={a}, regularity={reg} (reported)"
            )
    gor = is_gorenstein_convex(p).gorenstein
    if h is not None and (h == h[::-1]) != gor:
        raise ConsistencyError(
            f"h-vector {h} palindromicity contradicts the Gorenstein verdict {gor}"
        )
    methods = dict.fromkeys(("a_invariant", "regularity", "multiplicity", "h_vector"), source)
    methods["gorenstein"] = "interval criterion"
    return InvariantReport(
        m=p.m,
        n=p.n,
        d=d,
        a_invariant=a,
        regularity=reg,
        multiplicity=mult,
        h_vector=h,
        gorenstein=gor,
        methods=methods,
        notes=tuple(notes),
    )
