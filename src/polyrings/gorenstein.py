"""Gorenstein classification of convex and stack polyominoes.

The criterion lives on the bipartite graph of P. X carries one node per
vertex column (x_1..x_m), Y one per vertex level (y_1..y_n), and (i, j)
is an edge exactly when the lattice point (i, j) is a corner of some
cell. Subsets of a side are bit sets of the side's width (Python ints,
so any width), bit i-1 standing for x_i (or y_i). The scan below keeps
the graph as two tables, the levels of each column and the columns of
each level, each entry one run of bits read off the polyomino's kept
line bounds (polyomino.vertex_spans); the per-subset interval,
pull-back and connectivity conditions are written out on plain sets
only in the tests' oracles.

The convex criterion quantifies over nonempty proper subsets T of X:
whenever (a) N_Y(T) is a neighbor vertical interval and (b) Y \\ N_Y(T)
pulls back exactly to X \\ T along a neighbor horizontal interval, the
ring is Gorenstein only if |N_Y(T)| = |T| + 1. Matching failure (no
perfect matching on the side graph) rules the ring out: at once when
m != n, and otherwise through this condition (the Hall lemma below).

Such an admissible T is fixed by I = N_Y(T): a column in T has all its
levels in I, and by (b) a column outside T has a level in Y \\ I, so
T = {x : N(x) is inside I}, and by (a) I is an interval of levels. The
test therefore scans level intervals I != Y instead of the 2^m column
sets, and only those that start where some column's levels start and
end where some column's levels end: at most m^2 of them, and at most m
for a stack, whose columns all start at level 1. Each I gives its one
candidate T, kept when N_Y(T) = I (so T is nonempty) and both neighbor
sets are stepped through; the pull-back equality then holds by the
choice of T. X \\ T is the union of the columns with a level below I
and those with a level above it, each set built once per end of I by
accumulation.

The step conditions need no table of their own (the overlap lemma). In
a convex polyomino consecutive vertex columns share a cell column, so
their level sets overlap in at least two levels: the levels of any run
of consecutive columns form an interval, and every step inside it lies
on a cell of the run. The same holds for consecutive levels. Past the
filter that makes X \\ T an interval, T is a prefix and a suffix of the
columns and Y \\ I a prefix and a suffix of the levels, so
N_Y(T) = A u B and N_X(Y \\ I) = C u D, each part a run read off a
prefix or suffix OR of its table. Such a union is stepped through
exactly when its two parts share a point or one of them is empty.
Since N_X(Y \\ I) is X \\ T by the choice of T, already an interval, it
needs only that check. The scan thus costs a constant number of bit-set
operations per interval, O(m^2 (m + n) / w) word operations for w-bit
words.

This scan is the package's one form of the convex criterion: the
literal sweep over all 2^m column sets, each condition checked as
written, is the oracle the tests compare it with.

The Hall lemma: when m = n and the side graph has no perfect matching,
some admissible T has |N_Y(T)| < |T|, so the scan already rejects the
shape and no matching test is needed. Column x has the levels
[b_x, t_x]: b falls then rises, t rises then falls, and neighbouring
columns share at least two levels. Write T_I = {x : N(x) is inside I}
and d(I) = |T_I| - |I| for a level interval I. Proof:
- By Hall's theorem some T has |N_Y(T)| < |T|. One connected part of
  the subgraph on T u N_Y(T) is deficient too. Its levels form an
  interval I, and T_I holds the part's columns, so d(I) > 0. Take such
  an I with |T_I| least, and let T = T_I.
- Split T the same way. A part's levels J give T_J = the part, since a
  column outside T has a level outside I. So a second part would give
  a deficient part with fewer columns, against the choice. Hence
  T u N_Y(T) is connected, N_Y(T) is stepped through, and shrinking I
  to N_Y(T) keeps T.
- d(Y) = m - n = 0, so I != Y and T != X. By the choice of T,
  N_X(Y \\ I) = X \\ T = L u U, where L holds the columns with a level
  below I and U those with a level above it. Each is the neighbour set
  of a run of levels, so a run of columns stepped through with those
  levels. If L and U meet, or one is empty, Y \\ I is stepped through
  as well, and T is admissible.
- Otherwise mirror P so that L lies left of U. Let I = [lo, hi],
  K = [1, hi] and J = [lo, n]. Then T_K = X \\ U and T_J = X \\ L, so
  d(K) + d(J) = d(I) > 0 since m = n. Turning P a half turn swaps the
  roles of K and J, so say d(K) > 0.
- Every level below lo lies on columns of L only, and T covers I, so
  N_Y(T_K) = K; N_X(Y \\ K) = U is one run with its levels. T_K is the
  run of columns left of U together with the run S right of U, and S
  lies inside T. When S is empty T_K is one run. When T also has
  columns left of U, the connected T u I joins the two runs. Otherwise
  the last column of L is followed by the first of U; they share a
  level inside I = N_Y(S), which joins them. So T_K is admissible, with
  |N_Y(T_K)| = |K| < |T_K|.

For stacks two shortcuts exist: the level-set test (m = n and every
admissible column set T has |N_Y(T)| = |T| + 1) and the inside-corner
test (m = n and the cells at or above every inside corner level form a
square box).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from operator import or_
from typing import NamedTuple

from .errors import NotConvex, NotStack
from .polyomino import (
    Polyomino,
    cells_at_or_above,
    column_bounds,
    corners,
    heights,
    is_convex,
    is_stack,
    row_bounds,
    vertex_spans,
)


class SideSubset:
    """Immutable subset of X or Y as a bit set of the given width; equal
    to another SideSubset with the same side, bits and width."""

    __slots__ = ("side", "bits", "width")

    def __init__(self, side: str, bits: int, width: int):
        if side not in ("X", "Y"):
            raise ValueError(f"side must be 'X' or 'Y', not {side!r}")
        if width < 0 or bits < 0 or bits >> width:
            raise ValueError("bits outside the declared width")
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "width", width)

    def __setattr__(self, name, value):
        raise AttributeError("SideSubset is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, SideSubset)
            and (self.side, self.bits, self.width) == (other.side, other.bits, other.width)
        )

    def __hash__(self):
        return hash((self.side, self.bits, self.width))

    def __repr__(self):
        return f"SideSubset(side={self.side!r}, bits={self.bits!r}, width={self.width!r})"

    @classmethod
    def from_indices(cls, side: str, indices, width: int) -> "SideSubset":
        bits = 0
        for i in indices:
            if not 1 <= i <= width:
                raise ValueError(f"index {i} outside 1..{width}")
            bits |= 1 << (i - 1)
        return cls(side, bits, width)

    def indices(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.width) if self.bits >> i & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __str__(self) -> str:
        tag = self.side.lower()
        return "{" + ",".join(f"{tag}{i}" for i in self.indices()) + "}"


class Violation(NamedTuple):
    """Why the ring fails: kind 'hall' needs |N(T)| >= required = |T|,
    kind 'cardinality' needs |N_Y(T)| == required = |T| + 1. Only the
    box gate reports kind 'hall', for the whole larger side when m != n;
    a square shape without a perfect matching gets kind 'cardinality'."""

    kind: str
    subset: SideSubset
    observed: int
    required: int

    def __str__(self) -> str:
        side = "N_Y" if self.subset.side == "X" else "N_X"
        return (
            f"T={self.subset}, |{side}(T)|={self.observed}, need {self.required}"
        )


class Certificate(NamedTuple):
    """An admissible T that passed, together with N_Y(T)."""

    subset: SideSubset
    neighbors: SideSubset


class GorensteinVerdict(NamedTuple):
    gorenstein: bool
    violation: Violation | None
    certificates: tuple[Certificate, ...]
    method: str

    def __bool__(self) -> bool:
        return self.gorenstein


def _box_verdict(p: Polyomino, method: str) -> GorensteinVerdict | None:
    """Hall's condition on the larger side when m != n: a failing verdict,
    or None when the box is square."""
    if p.m == p.n:
        return None
    if p.m < p.n:
        subset, observed = SideSubset("Y", (1 << p.n) - 1, p.n), p.m
    else:
        subset, observed = SideSubset("X", (1 << p.m) - 1, p.m), p.n
    return GorensteinVerdict(
        False, Violation("hall", subset, observed, len(subset)), (), method
    )


def _prefix_suffix_or(table: list[int]) -> tuple[list[int], list[int]]:
    """pre[i] = OR of table[:i] and suf[i] = OR of table[i:]."""
    pre = list(accumulate(table, or_, initial=0))
    suf = list(accumulate(reversed(table), or_, initial=0))
    suf.reverse()
    return pre, suf


def _contiguous(bits: int) -> bool:
    """The set bits form one run (or none): adding the lowest set bit
    carries through the first run and clears it."""
    return bits & (bits + (bits & -bits)) == 0


def _joined(a: int, b: int) -> int:
    """The union of two runs of neighbors, or 0 when both are nonempty
    and share no point: the union is then not stepped through."""
    return 0 if a and b and not a & b else a | b


def is_gorenstein_convex(p: Polyomino) -> GorensteinVerdict:
    """Interval-scan test for convex polyominoes.

    Takes the admissible T in increasing bit order; the first with
    |N_Y(T)| != |T| + 1 becomes the violation. The box gate comes first:
    when m != n the whole larger side is a Hall violation. A square shape
    without a perfect matching needs no test of its own: by the Hall
    lemma some admissible T then has |N_Y(T)| < |T|. When the verdict is
    positive every admissible T is returned as a certificate.
    """
    if not is_convex(p):
        raise NotConvex("the convex Gorenstein test needs a convex polyomino")
    gate = _box_verdict(p, "convex")
    if gate is not None:
        return gate
    m, n = p.m, p.n
    # levels[x - 1] bit j - 1 and columns[j - 1] bit x - 1: (x, j) is a
    # vertex, a corner of some cell. On a convex shape the levels of
    # vertex column x are its span [b, t] and the columns of level j
    # its span, each one run of bits
    levels = [(1 << t) - (1 << b - 1) for b, t in vertex_spans(*column_bounds(p)[:2])]
    columns = [(1 << t) - (1 << b - 1) for b, t in vertex_spans(*row_bounds(p)[:2])]
    full_x = (1 << m) - 1
    # out_low[low]: the columns with a level below `low`; out_top[top]:
    # the columns with a level at `top` or above; X \ T is their union
    starts: dict[int, int] = {}
    ends: dict[int, int] = {}
    for x, a in enumerate(levels):
        low, top = a & -a, 1 << a.bit_length()
        starts[low] = starts.get(low, 0) | 1 << x
        ends[top] = ends.get(top, 0) | 1 << x
    out_low: dict[int, int] = {}
    acc = 0
    for low in sorted(starts):
        out_low[low] = acc
        acc |= starts[low]
    tops = sorted(ends)
    out_top: dict[int, int] = {}
    acc = 0
    for top in reversed(tops):
        out_top[top] = acc
        acc |= ends[top]
    # past the contiguity filter T is a prefix and a suffix of the
    # columns and Y \ I a prefix and a suffix of the levels
    pre_x, suf_x = _prefix_suffix_or(levels)
    pre_y, suf_y = _prefix_suffix_or(columns)
    admissible = []
    for low, rest_low in out_low.items():
        lo = low.bit_length() - 1
        for top in tops[bisect_right(tops, low) :]:
            rest = rest_low | out_top[top]
            # X \ T = N_X(Y \ I) must be an interval: a cheap first filter;
            # T = X is out too, since N_Y(X) = Y != I. So is I = Y, where
            # no column has a level outside I and T = X
            if not rest or not _contiguous(rest):
                continue
            ival = top - low
            x_lo, x_hi = (rest & -rest).bit_length() - 1, rest.bit_length()
            # N_Y(T) = I and N_X(Y \ I), each stepped through
            if _joined(pre_x[x_lo], suf_x[x_hi]) != ival or not _joined(
                pre_y[lo], suf_y[top.bit_length() - 1]
            ):
                continue
            admissible.append((full_x ^ rest, ival))
    admissible.sort()
    certs = []
    for t, nbits in admissible:
        t_sub = SideSubset("X", t, m)
        if nbits.bit_count() != t.bit_count() + 1:
            return GorensteinVerdict(
                False,
                Violation("cardinality", t_sub, nbits.bit_count(), t.bit_count() + 1),
                tuple(certs),
                "convex",
            )
        certs.append(Certificate(t_sub, SideSubset("Y", nbits, n)))
    return GorensteinVerdict(True, None, tuple(certs), "convex")


def is_gorenstein_stack_subsets(p: Polyomino) -> GorensteinVerdict:
    """Level-set test for stacks.

    The side condition (every column outside T reaches strictly above
    max N_Y(T)) forces T to be a full height level set, so only the sets
    {x : height(x) <= s} for attained heights s < n need the cardinality
    check. Nonempty T only; smaller s first.

    Only the box gate precedes it. A square stack without a perfect
    matching has a level interval I with |T_I| > |I| (the first step of
    the Hall lemma above), but every column holds level 1, so T_I is
    empty unless I = [1, s]. For s = n, T_I = X has n columns; for s < n
    it is the level set of the largest height h <= s, with
    |T_I| = h - 1 < s once h passes the check.
    """
    if not is_stack(p):
        raise NotStack("the level-set Gorenstein test needs a stack polyomino")
    gate = _box_verdict(p, "stack-subsets")
    if gate is not None:
        return gate
    hs = heights(p)
    certs = []
    for s in sorted({h for h in hs if h < p.n}):
        low = [i for i, h in enumerate(hs, start=1) if h <= s]
        t_sub = SideSubset.from_indices("X", low, p.m)
        n_sub = SideSubset("Y", (1 << s) - 1, p.n)
        if s != len(t_sub) + 1:
            return GorensteinVerdict(
                False,
                Violation("cardinality", t_sub, s, len(t_sub) + 1),
                tuple(certs),
                "stack-subsets",
            )
        certs.append(Certificate(t_sub, n_sub))
    return GorensteinVerdict(True, None, tuple(certs), "stack-subsets")


def is_gorenstein_stack_corners(p: Polyomino) -> bool:
    """Inside-corner test for stacks: m = n and every inside corner level
    cuts off a square-box upper part."""
    if not is_stack(p):
        raise NotStack("the corner Gorenstein test needs a stack polyomino")
    if p.m != p.n:
        return False
    for _, level in sorted(corners(p)["inside"]):
        upper = cells_at_or_above(p, level)
        if upper.m != upper.n:
            return False
    return True
