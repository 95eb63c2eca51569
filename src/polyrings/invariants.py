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

full_report takes every stack invariant from this recursion and builds
no complex. Two independent runtime checks certify it: deg h must equal
the closed-form regularity below, and h must be palindromic exactly
when the interval criterion says K[P] is Gorenstein (Stanley's theorem
for Cohen-Macaulay domains). A split raises ConsistencyError.

The regularity of a stack is exact in closed form. Let P_j be the cells
at or above cell row j and [m_j] x [n_j] the smallest interval holding
its vertices; then reg(P) = min over j of (j - 1) + min(m_j, n_j) - 1.
In a stack, row j has w_j cells and P_j spans n - j + 1 vertex rows, so
this is min(n - 1, min_j (j - 1 + w_j)), and a(P) = reg(P) - (m + n - 1).
It is the rook number of the stack, which is the regularity of every
L-convex polyomino (Ene, Herzog, Qureshi, Romeo 2021).

The j = 1 term alone gives the bounding-box bounds a <= -max(m, n) and
reg <= min(m, n) - 1. They are not always attained: a tall narrow
tower on a wide low base beats them, the smallest case being the 5-cell
stack with vertex heights [2,2,4,4], where a = -5 and reg = 2. So they
are never reported as values; full_report names a gap in its notes.
"""

from __future__ import annotations

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
    heights,
    is_convex,
    is_rectangle,
    is_stack,
    stack_from_profile,
)
from .srcomplex import build_complex, invariants_from_complex
from .toric import VarOrder, _check_ranks


def a_invariant_stack_exact(p: Polyomino) -> int:
    """The a-invariant of a stack, regularity_stack_exact(p) - (m + n - 1)."""
    if not is_stack(p):
        raise NotStack("a-invariant formula needs a stack polyomino")
    return _exact_pair(p)[0]


def regularity_stack_exact(p: Polyomino) -> int:
    """The regularity of a stack, min(n - 1, min_j (j - 1 + w_j)) with
    w_j the number of cells in cell row j. See the module docstring."""
    if not is_stack(p):
        raise NotStack("regularity formula needs a stack polyomino")
    return _exact_pair(p)[1]


def _box_bounds(p: Polyomino) -> tuple[int, int]:
    """(a, reg) bounds from the vertex box; p must be a stack."""
    return -max(p.m, p.n), min(p.m, p.n) - 1


def _exact_pair(p: Polyomino) -> tuple[int, int]:
    """(a, reg) in one pass over the cells; p must be a stack."""
    widths = [0] * p.n
    for _, row in p.cells:
        widths[row] += 1
    reg = min(p.n - 1, min(j - 1 + w for j, w in enumerate(widths) if j))
    return reg - (p.m + p.n - 1), reg


class Decomposition(NamedTuple):
    """Distinguished vertex v plus the two smaller stacks P1 and P2."""

    v: tuple[int, int]
    p1: Polyomino
    p2: Polyomino


Profile = tuple[int, ...]


def _profile(p: Polyomino) -> Profile:
    """Cell column heights h_1..h_{m-1} of a stack, in one pass over the cells."""
    hs = [0] * (p.m - 1)
    for c, _ in p.cells:
        hs[c - 1] += 1
    return tuple(hs)


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


def distinguished_vertex(p: Polyomino) -> tuple[int, int]:
    """(i, height(i)) for the lowest column, leftmost on ties."""
    hs = heights(p)
    level = min(hs)
    return hs.index(level) + 1, level


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
        return {
            "m": self.m,
            "n": self.n,
            "d": self.d,
            "a_invariant": self.a_invariant,
            "regularity": self.regularity,
            "multiplicity": self.multiplicity,
            "h_vector": list(self.h_vector) if self.h_vector is not None else None,
            "gorenstein": self.gorenstein,
            "methods": dict(sorted(self.methods.items())),
            "notes": list(self.notes),
        }


def full_report(p: Polyomino, order: VarOrder | None = None) -> InvariantReport:
    """Every invariant this package can certify for p, with method tags.

    A stack takes its h-vector, regularity deg h, a-invariant deg h - d
    and multiplicity h(1) from the h-polynomial recursion, all tagged
    "recursion", at any size: no complex is built and no work budget
    applies. Two independent checks certify the recursion at
    runtime: deg h must equal the exact closed-form regularity, and h
    must be palindromic exactly when the interval criterion calls K[P]
    Gorenstein. Either split raises ConsistencyError. The bounding-box
    bounds are beaten on some stacks (smallest: 5 cells, a base row of
    three cells with a two-cell tower); such a gap is reported in
    notes, never raised.

    Non-stack convex shapes get all four values from the complex
    ("complex") when a supplied order passes the Groebner check and the
    complex's f-vector stays within its work budget (srcomplex); otherwise
    all four are "unavailable", and a budget that stopped the f-vector is
    named in notes. Every shape, at any size, gets the Gorenstein
    verdict from the polynomial interval scan of the convex criterion
    (tagged "interval criterion"). A supplied order must rank exactly
    the vertices of p (BadParameters otherwise); a stack does not use it.
    """
    if not is_convex(p):
        raise NotConvex("full_report needs a convex polyomino")
    if order is not None:
        # also when the order goes unused
        _check_ranks(p, order)
    stack = is_stack(p)
    d = p.m + p.n - 1
    methods: dict[str, str] = {}
    notes: list[str] = []
    a = reg = mult = h = None
    if stack:
        h = h_vector_recursive(p)
        mult = sum(h)
        reg = len(h) - 1
        a = reg - d
        for name in ("a_invariant", "regularity", "multiplicity", "h_vector"):
            methods[name] = "recursion"
        exact_reg = _exact_pair(p)[1]
        if reg != exact_reg:
            raise ConsistencyError(
                f"recursion gives regularity deg h = {reg}, closed form {exact_reg}"
            )
        bound_a, bound_reg = _box_bounds(p)
        if (bound_a, bound_reg) != (a, reg):
            notes.append(
                f"bounding-box bounds predict a={bound_a}, regularity={bound_reg}; "
                f"the recursion gives a={a}, regularity={reg} (reported)"
            )
    elif order is not None:
        try:
            ci = invariants_from_complex(build_complex(p, order))
        except GroebnerUnverified:
            pass
        except TooLarge as exc:
            notes.append(str(exc))
        else:
            a, reg, mult, h = ci.a_invariant, ci.regularity, ci.multiplicity, ci.h_vector
            for name in ("a_invariant", "regularity", "multiplicity", "h_vector"):
                methods[name] = "complex"
    gor = is_gorenstein_convex(p).gorenstein
    methods["gorenstein"] = "interval criterion"
    if stack and (h == h[::-1]) != gor:
        raise ConsistencyError(
            f"h-vector {h} palindromicity contradicts the Gorenstein verdict {gor}"
        )
    for name in ("a_invariant", "regularity", "multiplicity", "h_vector"):
        methods.setdefault(name, "unavailable")
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
