"""Bipartite graph on X u Y whose edges are the vertices of a polyomino.

X carries one node per vertex column (x_1..x_m), Y one per vertex level
(y_1..y_n), and (i, j) is an edge exactly when the lattice point (i, j)
is a corner of some cell. Subsets of a side are bit sets of the side's
width (Python ints, so any width), bit i-1 standing for x_i (or y_i).
The paper's interval criterion on this graph runs in gorenstein.py as
one scan over these masks; its per-subset interval, pull-back and
connectivity conditions are written out on plain sets only in the
tests' oracles.

One matching routine (Kuhn's augmenting paths) serves two questions:
the perfect matchings and Hall violators of this graph, and the rook
number r(P), the largest set of cells no two in one cell row or cell
column, a maximum matching of cell columns to cell rows. For a stack,
reg K[P] = r(P) (Ene-Herzog-Qureshi-Romeo, 2021, for L-convex shapes),
so -a = d - r(P): the paper's maximum number of disjoint directed cuts,
whose 2^(m+n) sweep lives in the tests' oracles.
"""

from __future__ import annotations

from .polyomino import Polyomino


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


def _or_rows(bits: int, table) -> int:
    """OR of table[i] over the members i of a bit set (bit i-1 is i)."""
    out = 0
    while bits:
        low = bits & -bits
        out |= table[low.bit_length()]
        bits ^= low
    return out


def neighbors_y(g: BipartiteGraph, t: SideSubset) -> SideSubset:
    """N_Y(T) for T a subset of X."""
    if t.side != "X":
        raise ValueError("neighbors_y expects an X subset")
    return SideSubset("Y", _or_rows(t.bits, g.adj_x), g.n)


def neighbors_x(g: BipartiteGraph, u: SideSubset) -> SideSubset:
    """N_X(U) for U a subset of Y."""
    if u.side != "Y":
        raise ValueError("neighbors_x expects a Y subset")
    return SideSubset("X", _or_rows(u.bits, g.adj_y), g.m)


def _contiguous(bits: int) -> bool:
    """The set bits form one run (or none): adding the lowest set bit
    carries through the first run and clears it."""
    return bits & (bits + (bits & -bits)) == 0


def _kuhn(adj, n: int) -> list[int]:
    """Maximum matching of nodes 1..len(adj)-1 into 1..n by Kuhn's
    augmenting paths, adj[i] bit j-1 standing for the edge (i, j); entry
    j of the result is the mate of j, or 0 when j is free.

    Each search keeps its alternating path on an explicit stack, so its
    depth is not limited by Python's recursion limit. A step takes the
    lowest unvisited neighbour of the node on top; a matched neighbour
    extends the path by its mate, a free one flips the path, and a node
    with no unvisited neighbour is popped.
    """
    match = [0] * (n + 1)
    for root in range(1, len(adj)):
        visited = 0
        path = [root]  # left nodes of the alternating path
        via: list[int] = []  # via[k]: the right node path[k] tries
        while path:
            free = adj[path[-1]] & ~visited
            if not free:
                path.pop()
                del via[-1:]
                continue
            low = free & -free
            visited |= low
            j = low.bit_length()
            via.append(j)
            if match[j] == 0:
                for i, right in zip(path, via):
                    match[right] = i
                break
            path.append(match[j])
    return match


def max_matching(g: BipartiteGraph) -> dict[int, int]:
    """Maximum matching as a map x index -> y index."""
    match_y = _kuhn(g.adj_x, g.n)
    return {i: j for j in range(1, g.n + 1) if (i := match_y[j])}


def rook_number(p: Polyomino) -> int:
    """r(P): the most cells of P with no two in one cell row or column,
    a maximum matching of cell columns 1..m-1 to cell rows 1..n-1."""
    rows = [0] * p.m
    for c, r in p.cells:
        rows[c] |= 1 << (r - 1)
    return sum(1 for i in _kuhn(rows, p.n - 1) if i)


def hall_violator(g: BipartiteGraph) -> SideSubset | None:
    """A subset T with |N(T)| < |T|, X side first, or None when a perfect
    matching exists.

    Konig's construction from a maximum matching: the vertices reachable
    from the lowest unmatched vertex of a deficient side by alternating
    paths (any edge out of that side, matched edges back). Every reached
    vertex of the other side is matched, or the matching would augment,
    so the reached part of the deficient side has one member more than
    neighbours. Polynomial, and a violator, but not necessarily the first
    one in bit order.
    """
    match = max_matching(g)
    if len(match) < g.m:
        side, width, other, adj = "X", g.m, g.n, g.adj_x
        back = {j: i for i, j in match.items()}
    elif len(match) < g.n:
        side, width, other, adj, back = "Y", g.n, g.m, g.adj_y, match
    else:
        return None
    # mate_bits[j]: the mate on the deficient side of a matched vertex j
    mate_bits = [0] * (other + 1)
    for j, i in back.items():
        mate_bits[j] = 1 << (i - 1)
    unmatched = ((1 << width) - 1) & ~_or_rows((1 << other) - 1, mate_bits)
    reached = frontier = unmatched & -unmatched
    while frontier:
        frontier = _or_rows(_or_rows(frontier, adj), mate_bits) & ~reached
        reached |= frontier
    return SideSubset(side, reached, width)
