"""Inner 2-minors, the height term order, and the Groebner verdict.

Variables x_ij sit on the vertices (i, j) of the polyomino. An inner
minor at corners (i, j) < (k, l) is the binomial

    x_il * x_kj  -  x_ij * x_kl       (antidiagonal minus diagonal)

and exists when every cell of [i..k-1] x [j..l-1] lies in P. The term
order is reverse lexicographic for a descending variable ranking, and
variable_order gives one of two, each with its certificate:

- A Ferrers shape's height order (polyomino.ferrers): a vertex (x, y)
  ranks by ascending (-size_x, -x, deg_y, -y), where size_x is the size
  t - b of the level span [b, t] of vertex column x and deg_y the
  number of spans holding level y. On a stack this is descending
  (column height, column, level), under which the paper proves the
  inner minors a Groebner basis. On any other Ferrers shape it is that
  order on the stack with the same lam, pulled back through the
  relabelling of columns and levels that maps the vertices of P onto
  the stack's (see the invariants docstring): columns of one size hold
  one span, and levels of one degree lie in the same spans, so ties may
  break either way. The relabelling maps the 4-cycles of the bipartite
  graph onto 4-cycles, and for a convex shape these are exactly the
  inner minors, so the minors stay a Groebner basis. initial_ideal
  trusts this order.
- For an NW parallelogram (cell-column bottoms and tops both weakly
  falling), its lattice order: the vertices sorted ascending by
  (i, -j), highest first. They form a planar distributive lattice,
  componentwise on (-i, j), and K[P] is its Hibi ring (Hibi 1987;
  Qureshi 2012, both cited from memory), so a linear extension should
  orient the compatibility graph transitively. The citation is not
  relied on: initial_ideal runs the Groebner check on this order, and
  srcomplex._rank_poset checks transitivity at runtime.

Every other shape gets the height key on its own column heights, an
advisory order that initial_ideal checks, as it checks every order a
caller supplies.

Each layer costs about one operation per minor or per S-pair it reports:

- Minors. A pass over the cells in (column, row) order keeps, for each
  cell, the length of the unbroken run of cells below it in its column.
  From each top-right cell (k-1, l-1) a walk left along its row keeps
  h, the least run length seen; at column i the intervals of height 1
  to h are all inside P, which gives the minors (i, j, k, l) for j in
  l-h..l-1, already in (k, l, i, j) order. The walk stops at the first
  missing cell, so it visits no column without a minor. No convexity
  is assumed.
- One rank encoding. Each variable is its position in the order's
  ranking (0 at the top), read once per minor corner from a table of
  the vertices by column and level. A leading term or trail is the
  ascending pair of its two positions. The Groebner check consumes these
  pairs, and so does srcomplex.build_complex, which builds its bitsets
  from them; InitialIdeal.generators turns them into vertex frozensets
  only when a caller reads it.
- Leading terms. The diagonal and antidiagonal are disjoint squarefree
  quadratics, and under revlex the smaller of the two is the one that
  holds the lowest-ranked (largest position) of the four variables. So
  a leading term is read off four rank positions.
- Groebner check. Buchberger's criterion, with S-pairs of coprime
  leading terms skipped. Generators are indexed by the variables of
  their leading terms, so only pairs that share a variable are visited,
  each once. Both sides of an S-pair are degree-3 monomials, held as
  three ascending positions; each is reduced by looking up its three
  variable pairs, keyed as one int each, in a leading-term to
  trailing-term table until none matches. Which matching generator
  rewrites first does not change the verdict: under a Groebner basis
  normal forms are unique, and if every S-pair reaches a common normal
  form the basis property follows.
- Budget. The S-pairs to reduce number the sum of C(k, 2) over the k
  leading terms that hold each variable, known before the first
  reduction. Past MAX_SPAIRS the check raises TooLarge naming it. An
  S-pair costs about 1 us (Python 3.11, one core of a 2-core VM), so
  the budget is about 2 s of work. A Ferrers shape's height order needs
  no check and meets no budget.

An order must rank exactly the vertices of P; initial_ideal and
verify_groebner raise BadParameters otherwise.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import BadParameters, ConsistencyError, GroebnerUnverified, TooLarge
from .polyomino import Polyomino, ferrers, heights, is_nw_parallelogram

Variable = tuple[int, int]
# two rank positions under a VarOrder, ascending: a squarefree quadratic
Pair = tuple[int, int]

# the work budget of the Groebner check (see the module docstring)
MAX_SPAIRS = 2_000_000


def var_str(v: Variable) -> str:
    i, j = v
    if i <= 9 and j <= 9:
        return f"x{i}{j}"
    return f"x({i},{j})"


def mono_str(mono: Iterable[Variable]) -> str:
    return "".join(var_str(v) for v in sorted(mono))


class VarOrder:
    """A descending variable ranking inducing a revlex term order.

    advisory is set when variable_order gave an order that is not taken
    on trust: an NW parallelogram's lattice order, or the height order
    of a shape that is no Ferrers shape. initial_ideal
    trusts the default order of p exactly when it is not advisory, and
    checks every supplied order.
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
    """The default ranking of p: one of the two orders of the module
    docstring, or the advisory height order.

    A Ferrers shape, every stack included, ranks a vertex (x, y) by
    ascending (-size_x, -x, deg_y, -y): size_x is the size t - b of the
    span of vertex column x, and deg_y the number of spans holding
    level y. A non-Ferrers NW parallelogram ranks by ascending (i, -j),
    advisory. Any other shape ranks by the stack's key on its own column
    heights, advisory; it is meaningful for convex polyominoes.
    """
    shape = ferrers(p)
    if shape is not None:
        spans = shape[1]
        size = [0, *(t - b for b, t in spans)]
        deg = [0] * (p.n + 1)
        for b, t in spans:
            for y in range(b, t + 1):
                deg[y] += 1
        return VarOrder(sorted(p.vertices, key=lambda v: (-size[v[0]], -v[0], deg[v[1]], -v[1])))
    if is_nw_parallelogram(p):
        return VarOrder(sorted(p.vertices, key=lambda v: (v[0], -v[1])), advisory=True)
    hs = heights(p)
    ranked = sorted(p.vertices, key=lambda v: (-hs[v[0] - 1], -v[0], -v[1]))
    return VarOrder(ranked, advisory=True)


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


def _spans(p: Polyomino):
    """(i, k, l, h) for each top-right cell (k-1, l-1) and each column i
    of its walk left: the minors (i, j, k, l) for j in l-h..l-1, in
    (k, l, i) order; see the module docstring."""
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
            yield i, k, l, h


def inner_minors(p: Polyomino) -> list[InnerMinor]:
    """All inner minors, sorted by (k, l, i, j).

    Walks left from each top-right cell, keeping the least downward run
    of cells; see the module docstring.
    """
    return [InnerMinor(i, j, k, l) for i, k, l, h in _spans(p) for j in range(l - h, l)]


def leading_term(minor: InnerMinor, order: VarOrder) -> frozenset[Variable]:
    """The revlex-larger of the minor's two monomials: the one without
    the lowest-ranked (largest position) of the four variables.
    BadParameters names the minor's variables that the order does not
    rank."""
    pos = order._pos
    i, j, k, l = minor
    try:
        anti_low = max(pos[i, l], pos[k, j])
        diag_low = max(pos[i, j], pos[k, l])
    except KeyError:
        missing = sorted((minor.diagonal | minor.antidiagonal) - pos.keys())
        raise BadParameters(
            f"the order does not rank every variable of the minor {minor}; "
            "unranked: " + " ".join(var_str(v) for v in missing)
        ) from None
    return minor.diagonal if anti_low > diag_low else minor.antidiagonal


def _check_ranks(p: Polyomino, order: VarOrder) -> VarOrder:
    """order, which must rank exactly the vertices of p."""
    ranked = set(order.ranked)
    if ranked != p.vertices:
        missing = " ".join(var_str(v) for v in sorted(p.vertices - ranked))
        extra = " ".join(var_str(v) for v in sorted(ranked - p.vertices))
        raise BadParameters(
            "the order must rank exactly the vertices of the polyomino"
            + (f"; unranked: {missing}" if missing else "")
            + (f"; not vertices: {extra}" if extra else "")
        )
    return order


def _rank_terms(p: Polyomino, order: VarOrder) -> tuple[list[Pair], list[Pair]]:
    """The leads and trails of the inner minors, in inner_minors order,
    each the ascending pair of its variables' rank positions; order
    ranks exactly p's vertices."""
    # at[i][j]: the rank position of the vertex (i, j)
    at = [[0] * (p.n + 1) for _ in range(p.m + 1)]
    for r, (i, j) in enumerate(order.ranked):
        at[i][j] = r
    leads: list[Pair] = []
    trails: list[Pair] = []
    for i, k, l, h in _spans(p):
        col_i, col_k = at[i], at[k]
        il, kl = col_i[l], col_k[l]
        for j in range(l - h, l):
            ij, kj = col_i[j], col_k[j]
            diag = (ij, kl) if ij < kl else (kl, ij)
            anti = (il, kj) if il < kj else (kj, il)
            if anti[1] > diag[1]:
                leads.append(diag)
                trails.append(anti)
            else:
                leads.append(anti)
                trails.append(diag)
    return leads, trails


class InitialIdeal:
    """Squarefree quadratic generators of in(I_P) plus the order used.

    Immutable, and compared by identity. initial_ideal keeps each
    generator as the ascending pair of its variables' rank positions
    under order, and builds the vertex frozensets of generators from
    those pairs on first read. An ideal made from its generators derives
    the pairs on first use of _rank_leads.
    """

    __slots__ = ("order", "_generators", "_leads")

    def __init__(self, generators: frozenset[frozenset[Variable]], order: VarOrder):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_generators", generators)
        object.__setattr__(self, "_leads", None)

    @classmethod
    def _from_leads(cls, leads: list[Pair], order: VarOrder) -> InitialIdeal:
        ideal = cls(None, order)
        object.__setattr__(ideal, "_leads", leads)
        return ideal

    def __setattr__(self, name, value):
        raise AttributeError("InitialIdeal is immutable")

    @property
    def generators(self) -> frozenset[frozenset[Variable]]:
        if self._generators is None:
            ranked = self.order.ranked
            gens = frozenset(frozenset((ranked[u], ranked[w])) for u, w in self._leads)
            object.__setattr__(self, "_generators", gens)
        return self._generators

    def _rank_leads(self) -> list[Pair]:
        """The generators as ascending pairs of rank positions."""
        if self._leads is None:
            pos = self.order._pos
            leads = [tuple(sorted(pos[v] for v in g)) for g in self._generators]
            object.__setattr__(self, "_leads", leads)
        return self._leads

    def __repr__(self):
        return f"InitialIdeal(generators={self.generators!r}, order={self.order!r})"


def initial_ideal(p: Polyomino, order: VarOrder | None = None) -> InitialIdeal:
    """Leading terms of the inner minors, one per minor.

    Under the default order of a Ferrers shape (variable_order does not
    mark it advisory) this is the initial ideal outright. Every
    other order, supplied by the caller or an advisory default, is first
    run through the Groebner check.
    """
    if order is None:
        order = variable_order(p)
        trusted = not order.advisory
    else:
        trusted = False
        _check_ranks(p, order)
    leads, trails = _rank_terms(p, order)
    if not trusted and not _is_groebner(leads, trails, len(order.ranked)):
        raise GroebnerUnverified(
            "inner minors are not a Groebner basis for the given order"
        )
    if len(set(leads)) != len(leads):
        raise ConsistencyError("leading terms collide across minors")
    return InitialIdeal._from_leads(leads, order)


def verify_groebner(p: Polyomino, order: VarOrder | None = None) -> bool:
    """Buchberger check that the inner minors form a Groebner basis.

    S-pairs with coprime leading terms are skipped; the rest stay
    binomial of degree three, and both sides are reduced monomial-wise
    to normal form. Sound and complete for the yes/no verdict. TooLarge
    when more than MAX_SPAIRS S-pairs would be reduced.
    """
    order = variable_order(p) if order is None else _check_ranks(p, order)
    return _is_groebner(*_rank_terms(p, order), len(order.ranked))


def _is_groebner(leads: list[Pair], trails: list[Pair], n: int) -> bool:
    """Buchberger's criterion on the rank-position pairs of _rank_terms,
    visiting only the S-pairs whose leads share a variable.

    A monomial is the ascending ints of its variables, and the rewrite
    table maps a lead u < w, keyed u * n + w, to its trail. Two distinct
    leads share at most one variable, so each such pair is visited once,
    under that variable: the S-pairs number the sum of C(k, 2) over the
    k leads of each variable, and past MAX_SPAIRS TooLarge is raised
    before the first reduction. For leads v*a and v*b the sides of the
    S-pair are b*trail_a and a*trail_b.
    """
    rewrite: dict[int, Pair] = {}
    by_var: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for (u, w), (s, t) in zip(leads, trails):
        rewrite[u * n + w] = (s, t)
        by_var[u].append((w, s, t))
        by_var[w].append((u, s, t))
    spairs = sum(k * (k - 1) // 2 for k in map(len, by_var))
    if spairs > MAX_SPAIRS:
        raise TooLarge(f"{spairs} S-pairs exceed the budget MAX_SPAIRS = {MAX_SPAIRS}")
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

    for gens in by_var:
        for k, (oa, sa, ta) in enumerate(gens):
            for ob, sb, tb in gens[k + 1 :]:
                if normal_form(ob, sa, ta) != normal_form(oa, sb, tb):
                    return False
    return True
