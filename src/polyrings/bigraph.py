"""Bipartite graph on X u Y whose edges are the vertices of a polyomino.

X carries one node per vertex column (x_1..x_m), Y one per vertex level
(y_1..y_n), and (i, j) is an edge exactly when the lattice point (i, j)
is a corner of some cell. Subsets of a side are bit sets of the side's
width (Python ints, so any width), bit i-1 standing for x_i (or y_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import TooLarge
from .polyomino import Polyomino


@dataclass(frozen=True)
class SideSubset:
    """Subset of X or Y as a bit set of the given width."""

    side: str
    bits: int
    width: int

    def __post_init__(self):
        if self.side not in ("X", "Y"):
            raise ValueError(f"side must be 'X' or 'Y', not {self.side!r}")
        if self.width < 0 or self.bits < 0 or self.bits >> self.width:
            raise ValueError("bits outside the declared width")

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

    def complement(self) -> "SideSubset":
        return SideSubset(self.side, ~self.bits & ((1 << self.width) - 1), self.width)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def __contains__(self, i: int) -> bool:
        return 1 <= i <= self.width and bool(self.bits >> (i - 1) & 1)

    def __str__(self) -> str:
        tag = self.side.lower()
        return "{" + ",".join(f"{tag}{i}" for i in self.indices()) + "}"


@dataclass(frozen=True)
class MixedSubset:
    """Subset of X u Y given by one bit set per side."""

    tx: SideSubset
    ty: SideSubset

    def __post_init__(self):
        if self.tx.side != "X" or self.ty.side != "Y":
            raise ValueError("MixedSubset needs an X part and a Y part")

    @classmethod
    def from_indices(cls, x_indices, y_indices, m: int, n: int) -> "MixedSubset":
        return cls(
            SideSubset.from_indices("X", x_indices, m),
            SideSubset.from_indices("Y", y_indices, n),
        )

    def __len__(self) -> int:
        return len(self.tx) + len(self.ty)

    def __str__(self) -> str:
        parts = [f"x{i}" for i in self.tx.indices()] + [f"y{j}" for j in self.ty.indices()]
        return "{" + ",".join(parts) + "}"


class BipartiteGraph:
    """Adjacency masks plus the cell set needed for interval stepping tests."""

    __slots__ = (
        "m", "n", "cells", "edges", "edge_list", "adj_x", "adj_y",
        "col_edges", "row_edges", "vstep", "hstep",
    )

    def __init__(self, p: Polyomino):
        self.m = p.m
        self.n = p.n
        self.cells = p.cells
        self.edges = p.vertices
        self.edge_list = tuple(sorted(p.vertices))
        adj_x = [0] * (self.m + 1)
        adj_y = [0] * (self.n + 1)
        col_edges = [0] * (self.m + 1)
        row_edges = [0] * (self.n + 1)
        for idx, (i, j) in enumerate(self.edge_list):
            adj_x[i] |= 1 << (j - 1)
            adj_y[j] |= 1 << (i - 1)
            col_edges[i] |= 1 << idx
            row_edges[j] |= 1 << idx
        self.adj_x = tuple(adj_x)
        self.adj_y = tuple(adj_y)
        self.col_edges = tuple(col_edges)
        self.row_edges = tuple(row_edges)
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

    def x_subset(self, indices) -> SideSubset:
        return SideSubset.from_indices("X", indices, self.m)

    def y_subset(self, indices) -> SideSubset:
        return SideSubset.from_indices("Y", indices, self.n)

    def mixed(self, x_indices, y_indices) -> MixedSubset:
        return MixedSubset.from_indices(x_indices, y_indices, self.m, self.n)


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


def _neighbor_interval(bits: int, adj, step) -> bool:
    """The neighbours of a bit set form a contiguous run whose every step
    is witnessed by a member: the shared core of both interval tests."""
    nbits = _or_rows(bits, adj)
    return _contiguous(nbits) and (nbits & nbits >> 1) & ~_or_rows(bits, step) == 0


def is_neighbor_vertical_interval(g: BipartiteGraph, t: SideSubset) -> bool:
    """N_Y(T) is a contiguous run of levels, each step witnessed inside T.

    The step between consecutive levels j, j+1 needs some x in T whose
    vertical lattice edge from (x, j) to (x, j+1) lies on a cell of P.
    A single level passes vacuously.
    """
    if t.side != "X" or t.bits == 0:
        raise ValueError("need a nonempty X subset")
    return _neighbor_interval(t.bits, g.adj_x, g.vstep)


def is_neighbor_horizontal_interval(g: BipartiteGraph, u: SideSubset) -> bool:
    """N_X(U) is a contiguous run of columns, each step witnessed inside U."""
    if u.side != "Y" or u.bits == 0:
        raise ValueError("need a nonempty Y subset")
    return _neighbor_interval(u.bits, g.adj_y, g.hstep)


def _connected_parts(g: BipartiteGraph, xbits: int, ybits: int) -> int:
    """Number of connected components induced by the given node masks."""
    seen_x = 0
    seen_y = 0
    parts = 0
    for start in range(g.m):
        if xbits >> start & 1 and not seen_x >> start & 1:
            parts += 1
            comp_x = 1 << start
            comp_y = 0
            while True:
                grow_y = _or_rows(comp_x, g.adj_x) & ybits
                grow_x = _or_rows(comp_y | grow_y, g.adj_y) & xbits
                if grow_y | comp_y == comp_y and grow_x | comp_x == comp_x:
                    break
                comp_y |= grow_y
                comp_x |= grow_x
            seen_x |= comp_x
            seen_y |= comp_y
    # leftover Y nodes have no induced neighbors, each is its own component
    parts += (ybits & ~seen_y).bit_count()
    return parts


def induced_connected(g: BipartiteGraph, w: MixedSubset) -> bool:
    """The subgraph induced by w is connected (and nonempty)."""
    if len(w) == 0:
        raise ValueError("need a nonempty vertex set")
    return _connected_parts(g, w.tx.bits, w.ty.bits) == 1


def is_two_connected(g: BipartiteGraph) -> bool:
    """Connected, at least 3 nodes, and no cut vertex."""
    if g.m + g.n < 3:
        return False
    full_x = (1 << g.m) - 1
    full_y = (1 << g.n) - 1
    if _connected_parts(g, full_x, full_y) != 1:
        return False
    for i in range(g.m):
        if _connected_parts(g, full_x & ~(1 << i), full_y) != 1:
            return False
    for j in range(g.n):
        if _connected_parts(g, full_x, full_y & ~(1 << j)) != 1:
            return False
    return True


def max_matching(g: BipartiteGraph) -> dict[int, int]:
    """Maximum matching as a map x index -> y index (Kuhn augmenting paths).

    Each search keeps its alternating path on an explicit stack, so its
    depth is not limited by Python's recursion limit. A step takes the
    lowest unvisited neighbour level of the x node on top; a matched
    level extends the path by its mate, a free one flips the path, and
    an x node with no unvisited neighbour is popped.
    """
    match_y = [0] * (g.n + 1)
    for root in range(1, g.m + 1):
        visited = 0
        path = [root]  # x nodes of the alternating path
        via: list[int] = []  # via[k]: the level path[k] tries
        while path:
            free = g.adj_x[path[-1]] & ~visited
            if not free:
                path.pop()
                del via[-1:]
                continue
            low = free & -free
            visited |= low
            j = low.bit_length()
            via.append(j)
            if match_y[j] == 0:
                for i, level in zip(path, via):
                    match_y[level] = i
                break
            path.append(match_y[j])
    return {i: j for j in range(1, g.n + 1) if (i := match_y[j])}


def has_perfect_matching(g: BipartiteGraph) -> bool:
    return g.m == g.n and len(max_matching(g)) == g.m


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


@dataclass(frozen=True)
class DirectedCut:
    """Arrow set delta_plus(T) of a directed cut, with its source subset."""

    source: MixedSubset
    edges: frozenset[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.edges)

    def __str__(self) -> str:
        inner = ",".join(f"({i},{j})" for i, j in sorted(self.edges))
        return f"cut{{{inner}}} from {self.source}"


def _edge_masks(g: BipartiteGraph, t: MixedSubset) -> tuple[int, int]:
    colmask = 0
    for i in t.tx.indices():
        colmask |= g.col_edges[i]
    rowmask = 0
    for j in t.ty.indices():
        rowmask |= g.row_edges[j]
    plus = rowmask & ~colmask
    minus = colmask & ~rowmask
    return plus, minus


def delta_plus(g: BipartiteGraph, t: MixedSubset) -> frozenset[tuple[int, int]]:
    """Edges (i, j) with x_i outside T and y_j inside T (arrows leave Y)."""
    plus, _ = _edge_masks(g, t)
    return _mask_to_edges(g, plus)


def delta_minus(g: BipartiteGraph, t: MixedSubset) -> frozenset[tuple[int, int]]:
    """Edges (i, j) with x_i inside T and y_j outside T."""
    _, minus = _edge_masks(g, t)
    return _mask_to_edges(g, minus)


def _mask_to_edges(g: BipartiteGraph, mask: int) -> frozenset[tuple[int, int]]:
    return frozenset(
        g.edge_list[idx] for idx in range(len(g.edge_list)) if mask >> idx & 1
    )


def is_directed_cut(g: BipartiteGraph, t: MixedSubset) -> bool:
    """T is proper nonempty and no arrow enters it from X, i.e. delta_minus empty."""
    total = len(t)
    if total == 0 or total == g.m + g.n:
        return False
    _, minus = _edge_masks(g, t)
    return minus == 0


def directed_cut(g: BipartiteGraph, t: MixedSubset) -> DirectedCut:
    if not is_directed_cut(g, t):
        raise ValueError(f"{t} is not the source of a directed cut")
    plus, _ = _edge_masks(g, t)
    return DirectedCut(t, _mask_to_edges(g, plus))


def row_cuts(g: BipartiteGraph) -> list[DirectedCut]:
    """The n disjoint cuts delta_plus({y_j}), one per level."""
    return [directed_cut(g, g.mixed((), (j,))) for j in range(1, g.n + 1)]


def column_cuts(g: BipartiteGraph) -> list[DirectedCut]:
    """The m disjoint cuts delta_plus((X minus x_i) u Y), one per column."""
    full_y = tuple(range(1, g.n + 1))
    return [
        directed_cut(g, g.mixed(tuple(k for k in range(1, g.m + 1) if k != i), full_y))
        for i in range(1, g.m + 1)
    ]


# The cut sweep visits all 2^(m+n) mixed subsets; past this m + n it
# raises TooLarge.
MAX_CUT_NODES = 14


def all_directed_cuts(g: BipartiteGraph) -> list[DirectedCut]:
    """Every directed cut, deduplicated by arrow set, sources in bit order."""
    if g.m + g.n > MAX_CUT_NODES:
        raise TooLarge(f"m+n = {g.m + g.n} exceeds the cut sweep limit {MAX_CUT_NODES}")
    out: dict[int, MixedSubset] = {}
    total = g.m + g.n
    row_edge_or = [0] * (1 << g.n)
    for ybits in range(1, 1 << g.n):
        low = ybits & -ybits
        row_edge_or[ybits] = row_edge_or[ybits ^ low] | g.row_edges[low.bit_length()]
    col_edge_or = [0] * (1 << g.m)
    for xbits in range(1, 1 << g.m):
        low = xbits & -xbits
        col_edge_or[xbits] = col_edge_or[xbits ^ low] | g.col_edges[low.bit_length()]
    for xbits in range(1 << g.m):
        colmask = col_edge_or[xbits]
        xcount = xbits.bit_count()
        for ybits in range(1 << g.n):
            size = xcount + ybits.bit_count()
            if size == 0 or size == total:
                continue
            rowmask = row_edge_or[ybits]
            if colmask & ~rowmask:
                continue
            plus = rowmask & ~colmask
            if plus not in out:
                out[plus] = MixedSubset(
                    SideSubset("X", xbits, g.m), SideSubset("Y", ybits, g.n)
                )
    return [
        DirectedCut(src, _mask_to_edges(g, mask))
        for mask, src in sorted(out.items())
    ]


def max_disjoint_directed_cuts(g: BipartiteGraph) -> tuple[int, tuple[DirectedCut, ...]]:
    """Size and witness of a maximum family of pairwise disjoint directed
    cuts; TooLarge past MAX_CUT_NODES, from all_directed_cuts."""
    cuts = all_directed_cuts(g)
    masks = []
    for cut in cuts:
        mask = 0
        for idx, e in enumerate(g.edge_list):
            if e in cut.edges:
                mask |= 1 << idx
        masks.append(mask)
    order = sorted(range(len(cuts)), key=lambda k: (masks[k].bit_count(), masks[k]))
    cand_masks = [masks[k] for k in order]
    cand_cuts = [cuts[k] for k in order]
    base = row_cuts(g) if g.n >= g.m else column_cuts(g)
    best = [len(base), tuple(base)]
    total_edges = len(g.edge_list)
    min_size = cand_masks[0].bit_count() if cand_masks else 1

    def search(idx: int, used: int, chosen: list[DirectedCut]):
        free = total_edges - used.bit_count()
        if len(chosen) + min(len(cand_masks) - idx, free // max(min_size, 1)) <= best[0]:
            return
        for k in range(idx, len(cand_masks)):
            mask = cand_masks[k]
            if mask & used:
                continue
            chosen.append(cand_cuts[k])
            if len(chosen) > best[0]:
                best[0] = len(chosen)
                best[1] = tuple(chosen)
            search(k + 1, used | mask, chosen)
            chosen.pop()

    search(0, 0, [])
    return best[0], best[1]
