"""Inner 2-minors, the height term order, and the Groebner verdict.

Variables x_ij sit on the vertices (i, j) of the polyomino. An inner
minor at corners (i, j) < (k, l) is the binomial

    x_il * x_kj  -  x_ij * x_kl       (antidiagonal minus diagonal)

and exists when every cell of [i..k-1] x [j..l-1] lies in P. The term
order is reverse lexicographic for the descending variable ranking by
(column height, column, level).

Each layer costs about one operation per minor or per S-pair it reports:

- Minors. A pass over the cells in (column, row) order keeps, for each
  cell, the length of the unbroken run of cells below it in its column.
  From each top-right cell (k-1, l-1) a walk left along its row keeps
  h, the least run length seen; at column i the intervals of height 1
  to h are all inside P, which gives the minors (i, j, k, l) for j in
  l-h..l-1, already in (k, l, i, j) order. The walk stops at the first
  missing cell, so it visits no column without a minor. No convexity
  is assumed.
- Leading terms. The diagonal and antidiagonal are disjoint squarefree
  quadratics, and under revlex the smaller of the two is the one that
  holds the lowest-ranked of the four variables. So a leading term is
  read off four rank positions.
- Groebner check. Buchberger's criterion, with S-pairs of coprime
  leading terms skipped. Generators are indexed by the variables of
  their leading terms, so only pairs that share a variable are visited,
  each once. The check runs on rank positions, the ints of
  VarOrder._pos, not on (column, level) tuples. Both sides of an S-pair
  are degree-3 monomials, held as three ascending ints; each is reduced
  by looking up its three variable pairs, keyed as one int each, in a
  leading-term to trailing-term table until none matches. Which matching
  generator rewrites first does not change the verdict: under a
  Groebner basis normal forms are unique, and if every S-pair reaches a
  common normal form the basis property follows.

An order must rank exactly the vertices of P; initial_ideal and
verify_groebner raise BadParameters otherwise.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import BadParameters, ConsistencyError, GroebnerUnverified
from .polyomino import Polyomino, heights, is_stack

Variable = tuple[int, int]
Monomial = tuple[Variable, ...]


def var_str(v: Variable) -> str:
    i, j = v
    if i <= 9 and j <= 9:
        return f"x{i}{j}"
    return f"x({i},{j})"


def mono_str(mono: Iterable[Variable]) -> str:
    return "".join(var_str(v) for v in sorted(mono))


class VarOrder:
    """A descending variable ranking inducing a revlex term order.

    advisory is set when variable_order ranked a non-stack polyomino,
    whose inner minors need not be a Groebner basis under it. The flag is
    only reported (the CLI prints it) and gates nothing: initial_ideal
    checks every order but a stack's default one.
    """

    def __init__(self, ranked: Sequence[Variable], advisory: bool = False):
        self.ranked = tuple(ranked)
        self.advisory = advisory
        self._pos = {v: k for k, v in enumerate(self.ranked)}
        if len(self._pos) != len(self.ranked):
            raise ValueError("duplicate variable in order")

    def smallest(self) -> Variable:
        return self.ranked[-1]

    def __repr__(self):
        tag = ", advisory" if self.advisory else ""
        return f"VarOrder({' > '.join(var_str(v) for v in self.ranked)}{tag})"


def variable_order(p: Polyomino) -> VarOrder:
    """Ranking by descending (column height, column, level).

    Meaningful for convex polyominoes; for stacks the induced revlex
    order makes the inner minors a Groebner basis, for other convex
    shapes the order is advisory and must be verified.
    """
    hs = heights(p)
    ranked = sorted(p.vertices, key=lambda v: (-hs[v[0] - 1], -v[0], -v[1]))
    return VarOrder(ranked, advisory=not is_stack(p))


class InnerMinor(NamedTuple):
    """Corners (i, j) < (k, l) with every cell of the interval inside P.

    A plain value record, so a NamedTuple (see the package docstring);
    inner_minors builds one per minor, and a tuple is also the cheapest
    immutable record to build.
    """

    i: int
    j: int
    k: int
    l: int

    @property
    def diagonal(self) -> frozenset[Variable]:
        return frozenset(((self.i, self.j), (self.k, self.l)))

    @property
    def antidiagonal(self) -> frozenset[Variable]:
        return frozenset(((self.i, self.l), (self.k, self.j)))

    @property
    def corners(self) -> tuple[Variable, Variable]:
        return (self.i, self.j), (self.k, self.l)

    def __str__(self):
        return f"{mono_str(self.antidiagonal)} - {mono_str(self.diagonal)}"


def inner_minors(p: Polyomino) -> list[InnerMinor]:
    """All inner minors, sorted by (k, l, i, j).

    Walks left from each top-right cell, keeping the least downward run
    of cells; see the module docstring.
    """
    out = []
    # run[cell]: cells in the unbroken column run that ends at cell
    run: dict[tuple[int, int], int] = {}
    for cell in sorted(p.cells):
        c, r = cell
        h = run[cell] = run.get((c, r - 1), 0) + 1
        spans = []
        while True:
            spans.append((c, h))
            c -= 1
            left = run.get((c, r))
            if left is None:
                break
            if left < h:
                h = left
        k, l = cell[0] + 1, r + 1
        for i, h in reversed(spans):
            for j in range(l - h, l):
                out.append(InnerMinor(i, j, k, l))
    return out


def _terms(mn: InnerMinor, pos: dict[Variable, int]) -> tuple[Monomial, Monomial]:
    """(lead, trail) of a minor as sorted variable pairs: the monomial
    holding the lowest-ranked (largest position) of the four variables
    is the revlex-smaller one."""
    i, j, k, l = mn.i, mn.j, mn.k, mn.l
    diag = ((i, j), (k, l))
    anti = ((i, l), (k, j))
    if max(pos[anti[0]], pos[anti[1]]) > max(pos[diag[0]], pos[diag[1]]):
        return diag, anti
    return anti, diag


def leading_term(minor: InnerMinor, order: VarOrder) -> frozenset[Variable]:
    """The revlex-larger of the minor's two monomials; BadParameters names
    the minor's variables that the order does not rank."""
    try:
        return frozenset(_terms(minor, order._pos)[0])
    except KeyError:
        missing = sorted((minor.diagonal | minor.antidiagonal) - order._pos.keys())
        raise BadParameters(
            f"the order does not rank every variable of the minor {minor}; "
            "unranked: " + " ".join(var_str(v) for v in missing)
        ) from None


def _check_ranks(p: Polyomino, order: VarOrder) -> None:
    """An order must rank exactly the vertices of p."""
    ranked = set(order.ranked)
    if ranked != p.vertices:
        missing = " ".join(var_str(v) for v in sorted(p.vertices - ranked))
        extra = " ".join(var_str(v) for v in sorted(ranked - p.vertices))
        raise BadParameters(
            "the order must rank exactly the vertices of the polyomino"
            + (f"; unranked: {missing}" if missing else "")
            + (f"; not vertices: {extra}" if extra else "")
        )


def _minor_terms(
    p: Polyomino, order: VarOrder | None
) -> tuple[VarOrder, list[InnerMinor], list[tuple[Monomial, Monomial]]]:
    """The order (checked, or the default), the inner minors and their
    (lead, trail) pairs: one pass shared by initial_ideal and
    verify_groebner."""
    if order is None:
        order = variable_order(p)
    else:
        _check_ranks(p, order)
    minors = inner_minors(p)
    pos = order._pos
    return order, minors, [_terms(mn, pos) for mn in minors]


class InitialIdeal:
    """Squarefree quadratic generators of in(I_P) plus the order used.

    Immutable, and compared by identity.
    """

    __slots__ = ("generators", "order")

    def __init__(self, generators: frozenset[frozenset[Variable]], order: VarOrder):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("InitialIdeal is immutable")

    def __repr__(self):
        return f"InitialIdeal(generators={self.generators!r}, order={self.order!r})"


def initial_ideal(p: Polyomino, order: VarOrder | None = None) -> InitialIdeal:
    """Leading terms of the inner minors, one per minor.

    For a stack with its default height order this is the initial ideal
    outright. Every other order, supplied by the caller or the default
    one of a non-stack, is first run through the Groebner check.
    """
    trusted = order is None and is_stack(p)
    order, minors, terms = _minor_terms(p, order)
    if not trusted and not _is_groebner(terms, order._pos):
        raise GroebnerUnverified(
            "inner minors are not a Groebner basis for the given order"
        )
    leads = frozenset(frozenset(lead) for lead, _ in terms)
    if len(leads) != len(minors):
        raise ConsistencyError("leading terms collide across minors")
    return InitialIdeal(leads, order)


def verify_groebner(p: Polyomino, order: VarOrder | None = None) -> bool:
    """Buchberger check that the inner minors form a Groebner basis.

    S-pairs with coprime leading terms are skipped; the rest stay
    binomial of degree three, and both sides are reduced monomial-wise
    to normal form. Sound and complete for the yes/no verdict.
    """
    order, _, terms = _minor_terms(p, order)
    return _is_groebner(terms, order._pos)


def _is_groebner(terms: list[tuple[Monomial, Monomial]], pos: dict[Variable, int]) -> bool:
    """Buchberger's criterion on (lead, trail) pairs, visiting only the
    S-pairs whose leads share a variable.

    The check runs on rank positions: each variable becomes its int in
    pos, a monomial the ascending ints of its variables, and the rewrite
    table maps a lead u < w, keyed u * len(pos) + w, to its trail. Two
    distinct leads share at most one variable, so each such pair is
    visited once, under that variable. For leads v*a and v*b the sides
    of the S-pair are b*trail_a and a*trail_b.
    """
    n = len(pos)
    rewrite: dict[int, tuple[int, int]] = {}
    by_var: dict[int, list[tuple[int, int, int]]] = {}
    for (u, w), (s, t) in terms:
        u, w, s, t = pos[u], pos[w], pos[s], pos[t]
        if u > w:
            u, w = w, u
        if s > t:
            s, t = t, s
        rewrite[u * n + w] = (s, t)
        by_var.setdefault(u, []).append((w, s, t))
        by_var.setdefault(w, []).append((u, s, t))
    get = rewrite.get

    def normal_form(x: int, s: int, t: int) -> tuple[int, int, int]:
        """Normal form of the monomial x*s*t (s <= t) under the rewrites;
        every rewrite lowers the monomial in the term order, so the loop
        ends."""
        while True:
            if x < s:
                a, b, c = x, s, t
            elif x < t:
                a, b, c = s, x, t
            else:
                a, b, c = s, t, x
            trail = get(a * n + b)
            if trail is not None:
                x = c
            else:
                trail = get(a * n + c)
                if trail is not None:
                    x = b
                else:
                    trail = get(b * n + c)
                    if trail is None:
                        return a, b, c
                    x = a
            s, t = trail

    for gens in by_var.values():
        for k, (oa, sa, ta) in enumerate(gens):
            for ob, sb, tb in gens[k + 1 :]:
                if normal_form(ob, sa, ta) != normal_form(oa, sb, tb):
                    return False
    return True
