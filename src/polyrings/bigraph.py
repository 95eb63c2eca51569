"""Bipartite graph on X u Y whose edges are the vertices of a polyomino.

X carries one node per vertex column (x_1..x_m), Y one per vertex level
(y_1..y_n), and (i, j) is an edge exactly when the lattice point (i, j)
is a corner of some cell. Subsets of a side are bit sets of the side's
width (Python ints, so any width), bit i-1 standing for x_i (or y_i).
The paper's interval criterion on this graph runs in gorenstein.py as
one scan over these masks; its per-subset interval, pull-back and
connectivity conditions are written out on plain sets only in the
tests' oracles.

For a convex polyomino the graph is convex: the levels of each column
form an interval, and so do the rows of each cell column. Matching
questions on a convex bipartite graph need no augmenting paths (Glover,
"Maximum matching in a convex bipartite graph", 1967). Hall's condition
fails only on a set of columns whose levels lie inside one interval,
which the Gorenstein scan checks as it goes, and a greedy sweep gives
the rook number r(P), the largest set of cells no two in one cell row
or cell column: a maximum matching of cell columns to cell rows. For a
stack, reg K[P] = r(P) (Ene-Herzog-Qureshi-Romeo, 2021, for L-convex
shapes), so -a = d - r(P): the paper's maximum number of disjoint
directed cuts, whose 2^(m+n) sweep lives in the tests' oracles.
"""
from __future__ import annotations

from bisect import bisect_left, insort

from .errors import NotConvex
from .polyomino import Polyomino, is_convex


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


class BipartiteGraph:
    """Adjacency masks plus the cell steps needed for interval tests."""

    __slots__ = ("m", "n", "adj_x", "adj_y", "vstep", "hstep")

    def __init__(self, p: Polyomino):
        self.m = p.m
        self.n = p.n
        # vstep[i] bit j-1: vertical lattice edge (i,j)-(i,j+1) lies on a cell
        vstep = [0] * (self.m + 1)
        hstep = [0] * (self.n + 1)
        for c, r in p.cells:
            vstep[c] |= 1 << (r - 1)
            vstep[c + 1] |= 1 << (r - 1)
            hstep[r] |= 1 << (c - 1)
            hstep[r + 1] |= 1 << (c - 1)
        self.vstep = tuple(vstep)
        self.hstep = tuple(hstep)
        # (i, j) is a vertex exactly when a vertical step in column i
        # (a horizontal one on level j) starts or ends there
        self.adj_x = tuple(b | b << 1 for b in vstep)
        self.adj_y = tuple(b | b << 1 for b in hstep)


def build_graph(p: Polyomino) -> BipartiteGraph:
    return BipartiteGraph(p)


def _contiguous(bits: int) -> bool:
    """The set bits form one run (or none): adding the lowest set bit
    carries through the first run and clears it."""
    return bits & (bits + (bits & -bits)) == 0




def rook_number(p: Polyomino) -> int:
    """r(P): the most cells of P with no two in one cell row or column,
    a maximum matching of cell columns 1..m-1 to cell rows 1..n-1.

    Glover's greedy: the cell rows are taken in ascending order, and each
    gets the open cell column whose rows end first. Any maximum matching
    can be exchanged into the greedy one row at a time, since the column
    the greedy takes stays open no longer than the one it displaces.
    """
    if not is_convex(p):
        raise NotConvex("the rook number sweep needs a convex polyomino")
    rows = [0] * p.m
    for c, r in p.cells:
        rows[c] |= 1 << (r - 1)
    # opening[r]: the last rows of the cell columns whose first row is r
    opening: list[list[int]] = [[] for _ in range(p.n)]
    for b in rows[1:]:
        opening[(b & -b).bit_length()].append(b.bit_length())
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
