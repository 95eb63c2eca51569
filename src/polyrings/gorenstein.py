"""Gorenstein classification of convex and stack polyominoes.

The convex criterion quantifies over nonempty proper subsets T of X:
whenever (a) N_Y(T) is a neighbor vertical interval and (b) Y \\ N_Y(T)
pulls back exactly to X \\ T along a neighbor horizontal interval, the
ring is Gorenstein only if |N_Y(T)| = |T| + 1. Matching failure (no
perfect matching on the side graph) rules the ring out first.

Such an admissible T is fixed by I = N_Y(T): a column in T has all its
levels in I, and by (b) a column outside T has a level in Y \\ I, so
T = {x : N(x) is inside I}, and by (a) I is an interval of levels. The
test therefore scans level intervals I != Y instead of the 2^m column
sets, and only those that start where some column's levels start and
end where some column's levels end: at most m^2 of them, and at most m
for a stack, whose columns all start at level 1. Each I gives its one
candidate T, kept when N_Y(T) = I (so T is nonempty) and the step and
horizontal-interval checks pass; the pull-back equality then holds by
the choice of T. X \\ T is the union of the columns with a level below
I and those with a level above it, each set built once per end of I by
accumulation. Past the filter that makes X \\ T an interval, T is a
prefix and a suffix of the columns and Y \\ I a prefix and a suffix of
the levels, so every OR the checks need joins a prefix OR to a suffix
OR, built once per table. The scan thus costs a constant number of
bit-set operations per interval, O(m^2 (m + n) / w) word operations for
w-bit words, and the Hall gate one maximum matching.
This scan is the package's one form of the convex criterion: the
literal sweep over all 2^m column sets, each condition checked as
written, is the oracle the tests compare it with.

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

from .bigraph import (
    BipartiteGraph,
    SideSubset,
    _contiguous,
    build_graph,
    hall_violator,
    neighbors_x,
    neighbors_y,
)
from .errors import NotConvex, NotStack
from .polyomino import Polyomino, cells_at_or_above, corners, heights, is_convex, is_stack


class Violation(NamedTuple):
    """Why the ring fails: kind 'hall' needs |N(T)| >= required = |T|,
    kind 'cardinality' needs |N_Y(T)| == required = |T| + 1."""

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


def _hall_verdict(g: BipartiteGraph, method: str) -> GorensteinVerdict | None:
    """Matching-based gate; returns a failing verdict or None to continue."""
    if g.m != g.n:
        if g.m < g.n:
            subset = SideSubset("Y", (1 << g.n) - 1, g.n)
            observed, required = g.m, g.n
        else:
            subset = SideSubset("X", (1 << g.m) - 1, g.m)
            observed, required = g.n, g.m
        return GorensteinVerdict(
            False, Violation("hall", subset, observed, required), (), method
        )
    viol = hall_violator(g)
    if viol is not None:
        observed = len(neighbors_y(g, viol) if viol.side == "X" else neighbors_x(g, viol))
        return GorensteinVerdict(
            False, Violation("hall", viol, observed, len(viol)), (), method
        )
    return None


def _prefix_suffix_or(table) -> tuple[list[int], list[int]]:
    """pre[i] = OR of table[1..i] and suf[i] = OR of table[i+1..], for a
    table indexed from 1 like the graph's adjacency and step masks."""
    rows = table[1:]
    pre = list(accumulate(rows, or_, initial=0))
    suf = list(accumulate(reversed(rows), or_, initial=0))
    suf.reverse()
    return pre, suf


def is_gorenstein_convex(p: Polyomino) -> GorensteinVerdict:
    """Interval-scan test for convex polyominoes.

    Takes the admissible T in increasing bit order; the first with
    |N_Y(T)| != |T| + 1 becomes the violation. When the verdict is
    positive every admissible T is returned as a certificate.
    """
    if not is_convex(p):
        raise NotConvex("the convex Gorenstein test needs a convex polyomino")
    g = build_graph(p)
    gate = _hall_verdict(g, "convex")
    if gate is not None:
        return gate
    m, n = g.m, g.n
    full_x = (1 << m) - 1
    full_y = (1 << n) - 1
    # out_low[low]: the columns with a level below `low`; out_top[top]:
    # the columns with a level at `top` or above; X \ T is their union
    starts: dict[int, int] = {}
    ends: dict[int, int] = {}
    for x, a in enumerate(g.adj_x[1:]):
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
    # past the contiguity filter X \ T is an interval of columns and
    # Y \ I the levels below and above the interval I, so each OR over
    # T or Y \ I joins a prefix OR to a suffix OR of the table
    pre_adj_x, suf_adj_x = _prefix_suffix_or(g.adj_x)
    pre_vstep, suf_vstep = _prefix_suffix_or(g.vstep)
    pre_adj_y, suf_adj_y = _prefix_suffix_or(g.adj_y)
    pre_hstep, suf_hstep = _prefix_suffix_or(g.hstep)
    admissible = []
    for low, rest_low in out_low.items():
        lo = low.bit_length() - 1
        for top in tops[bisect_right(tops, low) :]:
            rest = rest_low | out_top[top]
            # X \ T = N_X(Y \ I) must be an interval: a cheap first filter;
            # T = X is out too, since N_Y(X) = Y != I
            if not rest or not _contiguous(rest):
                continue
            ival = top - low
            x_lo, x_hi = (rest & -rest).bit_length() - 1, rest.bit_length()
            # N_Y(T) = I, and every step of I witnessed inside T
            if (
                ival == full_y
                or pre_adj_x[x_lo] | suf_adj_x[x_hi] != ival
                or (ival & ival >> 1) & ~(pre_vstep[x_lo] | suf_vstep[x_hi])
            ):
                continue
            # N_X(Y \ I) an interval, every step witnessed inside Y \ I
            hi = top.bit_length() - 1
            nbits = pre_adj_y[lo] | suf_adj_y[hi]
            if not _contiguous(nbits) or (nbits & nbits >> 1) & ~(
                pre_hstep[lo] | suf_hstep[hi]
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
    """
    if not is_stack(p):
        raise NotStack("the level-set Gorenstein test needs a stack polyomino")
    g = build_graph(p)
    gate = _hall_verdict(g, "stack-subsets")
    if gate is not None:
        return gate
    hs = heights(p)
    certs = []
    for s in sorted({h for h in hs if h < g.n}):
        low = [i for i, h in enumerate(hs, start=1) if h <= s]
        t_sub = SideSubset.from_indices("X", low, g.m)
        n_sub = SideSubset("Y", (1 << s) - 1, g.n)
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
