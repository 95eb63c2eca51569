"""Cell sets on the integer lattice: parsing, classification, transforms.

A cell is named by its lower-left corner (col, row), 1-based. A polyomino
is a finite edge-connected set of cells, kept normalized so that some cell
has col == 1 and some cell has row == 1. The vertex box is [m] x [n] with
m = max col + 1 and n = max row + 1; every corner of every cell lies in it.

Every classification here reads one table per axis: the lowest and the
highest cell on each cell column (column_bounds) and on each cell row
(row_bounds), with whether every line is an interval. Each table comes
from one pass over the cells and is kept on the polyomino, so the layers
that each classify it, or read its column intervals, scan the cells
once per axis. The Ferrers test (ferrers), which the default variable
order and full_report both ask of a shape, is kept the same way: its
spans are sorted once per polyomino.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterable

from .errors import (
    DisconnectedCells,
    DisconnectedResult,
    EmptyInput,
    EmptyResult,
    MalformedGrid,
)

Cell = tuple[int, int]
Vertex = tuple[int, int]

# the _ferrers slot before ferrers runs: None is one of its results
_UNSEEN = object()


def _edge_connected(cells: frozenset[Cell]) -> bool:
    start = next(iter(cells))
    seen = {start}
    queue = deque([start])
    while queue:
        c, r = queue.popleft()
        for nb in ((c + 1, r), (c - 1, r), (c, r + 1), (c, r - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen) == len(cells)


class Polyomino:
    """Immutable normalized polyomino.

    Attributes:
        cells: frozenset of (col, row) cells.
        vertices: frozenset of lattice corners of cells.
        m, n: vertex box sides, m = max col + 1, n = max row + 1.

    The column and row bounds tables and the result of ferrers are
    computed on first use and kept (slots _columns, _rows and _ferrers);
    see column_bounds and ferrers.
    """

    __slots__ = ("cells", "vertices", "m", "n", "_columns", "_rows", "_ferrers")

    def __init__(self, cells: Iterable[Cell]):
        cs = {(int(c), int(r)) for c, r in cells}
        if not cs:
            raise EmptyInput("a polyomino needs at least one cell")
        dc = min(c for c, _ in cs) - 1
        dr = min(r for _, r in cs) - 1
        if dc or dr:
            cs = {(c - dc, r - dr) for c, r in cs}
        fro = frozenset(cs)
        if not _edge_connected(fro):
            raise DisconnectedCells("cells are not edge-connected")
        object.__setattr__(self, "cells", fro)
        object.__setattr__(self, "m", max(c for c, _ in fro) + 1)
        object.__setattr__(self, "n", max(r for _, r in fro) + 1)
        verts = set()
        for c, r in fro:
            verts.add((c, r))
            verts.add((c + 1, r))
            verts.add((c, r + 1))
            verts.add((c + 1, r + 1))
        object.__setattr__(self, "vertices", frozenset(verts))
        object.__setattr__(self, "_columns", None)
        object.__setattr__(self, "_rows", None)
        object.__setattr__(self, "_ferrers", _UNSEEN)

    def __setattr__(self, name, value):
        raise AttributeError("Polyomino is immutable")

    def __eq__(self, other):
        return isinstance(other, Polyomino) and self.cells == other.cells

    def __hash__(self):
        return hash(self.cells)

    def __len__(self):
        return len(self.cells)

    def __contains__(self, cell):
        return cell in self.cells

    def __repr__(self):
        return f"Polyomino({sorted(self.cells)})"


def parse(text: str) -> Polyomino:
    """Parse grid text ('#' cell, '.' blank, top row first) or a JSON cell list."""
    stripped = text.strip()
    if not stripped:
        raise EmptyInput("empty input")
    if stripped[0] in "[{":
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise MalformedGrid(f"bad JSON: {exc}") from exc
        if not isinstance(data, list):
            raise MalformedGrid("JSON input must be a list of [col, row] pairs")
        cells = []
        for item in data:
            if (
                not isinstance(item, (list, tuple))
                or len(item) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
            ):
                raise MalformedGrid(f"not a [col, row] pair: {item!r}")
            cells.append((item[0], item[1]))
        if not cells:
            raise EmptyInput("JSON cell list is empty")
        return Polyomino(cells)
    lines = stripped.splitlines()
    width = len(lines[0])
    cells = []
    height = len(lines)
    for r0, line in enumerate(lines):
        if len(line) != width:
            raise MalformedGrid("ragged grid: line lengths differ")
        for c0, ch in enumerate(line):
            if ch == "#":
                cells.append((c0 + 1, height - r0))
            elif ch != ".":
                raise MalformedGrid(f"illegal character {ch!r} in grid")
    if not cells:
        raise EmptyInput("grid has no '#' cells")
    return Polyomino(cells)


def serialize(p: Polyomino) -> str:
    """Render the grid form, top row first."""
    width = p.m - 1
    height = p.n - 1
    rows = []
    for level in range(height, 0, -1):
        rows.append("".join("#" if (c, level) in p.cells else "." for c in range(1, width + 1)))
    return "\n".join(rows)


Bounds = tuple[tuple[int, ...], tuple[int, ...], bool]


def _bounds(lines: Iterable[tuple[int, int]], k: int, far: int) -> Bounds:
    """(lo, hi, convex) from (line, position) pairs on lines 1..k-1, in
    one pass: lo[i] and hi[i] are the least and greatest position on
    line i, lines 0 and k read far and 0, and convex says whether every
    line's positions form an interval. A line holds at most
    hi - lo + 1 positions, so all of them are intervals exactly when
    these sizes add up to the number of pairs."""
    lo = [far] * (k + 1)
    hi = [0] * (k + 1)
    size = 0
    for line, pos in lines:
        if pos < lo[line]:
            lo[line] = pos
        if pos > hi[line]:
            hi[line] = pos
        size += 1
    return tuple(lo), tuple(hi), sum(hi) - sum(lo[1:k]) + k - 1 == size


def column_bounds(p: Polyomino) -> Bounds:
    """(lo, hi, convex) of p's cell columns: the lowest and highest row
    of cell column c at index c (columns 0 and m read n and 0), and
    whether p is column convex. Computed once per polyomino."""
    if p._columns is None:
        object.__setattr__(p, "_columns", _bounds(p.cells, p.m, p.n))
    return p._columns


def row_bounds(p: Polyomino) -> Bounds:
    """(lo, hi, convex) of p's cell rows, as column_bounds with the axes
    swapped. Computed once per polyomino."""
    if p._rows is None:
        object.__setattr__(p, "_rows", _bounds(((r, c) for c, r in p.cells), p.n, p.m))
    return p._rows


Span = tuple[int, int]


def vertex_spans(lo: tuple[int, ...], hi: tuple[int, ...]) -> tuple[Span, ...]:
    """The span [b, t] of each vertex line 1..k, given the bounds of
    cell lines 0..k (as column_bounds gives them): b is the lower of the
    lows of the two cell lines it meets, and t one more than the higher
    of their highs. On a convex p every position in [b, t] is a vertex,
    since two neighbouring cell lines overlap."""
    # comparisons and a list, not min, max and a generator: every
    # Gorenstein verdict builds its tables from two of these
    return tuple([
        (a if a < b else b, (c if c > d else d) + 1)
        for a, b, c, d in zip(lo, lo[1:], hi, hi[1:])
    ])


def is_row_convex(p: Polyomino) -> bool:
    return row_bounds(p)[2]


def is_column_convex(p: Polyomino) -> bool:
    return column_bounds(p)[2]


def is_convex(p: Polyomino) -> bool:
    """Row convex and column convex."""
    return column_bounds(p)[2] and row_bounds(p)[2]


_DIR_PAIRS = (
    ((1, 0), (0, 1)),
    ((1, 0), (0, -1)),
    ((-1, 0), (0, 1)),
    ((-1, 0), (0, -1)),
)


def has_monotone_paths(p: Polyomino) -> bool:
    """Every pair of cells is joined by a cell path using at most two
    directions, one horizontal and one vertical.

    One search per cell and direction pair, O(N^2) for N cells: the four
    reach sets of each cell must together cover p. That checks each pair
    from both ends, which asks no more than checking it from one: a path
    from a to b in directions (x, y), walked backwards, runs from b to a
    in (-x, -y), and _DIR_PAIRS is closed under negation.
    """
    cells = p.cells
    for a in cells:
        reached = set()
        for dirs in _DIR_PAIRS:
            seen = {a}
            todo = [a]
            while todo:
                c, r = todo.pop()
                for dc, dr in dirs:
                    nb = (c + dc, r + dr)
                    if nb in cells and nb not in seen:
                        seen.add(nb)
                        todo.append(nb)
            reached |= seen
        if len(reached) != len(cells):
            return False
    return True


def is_stack(p: Polyomino) -> bool:
    """Convex with a full bottom row of cells."""
    return is_convex(p) and all(low == 1 for low in column_bounds(p)[0][1:-1])


def is_nw_parallelogram(p: Polyomino) -> bool:
    """Convex, with the bottoms and the tops of its cell columns both
    weakly falling from left to right."""
    if not is_convex(p):
        return False
    lo, hi, _ = column_bounds(p)
    return all(lo[c] >= lo[c + 1] and hi[c] >= hi[c + 1] for c in range(1, p.m - 1))


def ferrers(p: Polyomino) -> tuple[tuple[int, ...], tuple[Span, ...]] | None:
    """(lam, spans) when the level spans of p's vertex columns are
    nested, None when they are not or p is not convex.

    Vertex column x holds the levels [b, t] of spans[x - 1], read off
    the column bounds by vertex_spans. Sorted by (b ascending, t
    descending), the spans are nested exactly when the tops then weakly
    fall. lam lists the sizes t - b in descending order without the
    first: the longest span is shared by two adjacent vertex columns,
    so the two largest sizes are equal, and lam is the profile of the
    stack whose vertex columns have these sizes. Computed once per
    polyomino.
    """
    if p._ferrers is _UNSEEN:
        object.__setattr__(p, "_ferrers", _ferrers_of(p))
    return p._ferrers


def _ferrers_of(p: Polyomino) -> tuple[tuple[int, ...], tuple[Span, ...]] | None:
    """ferrers(p), computed afresh."""
    if not is_convex(p):
        return None
    spans = vertex_spans(*column_bounds(p)[:2])
    tops = [t for _, t in sorted(spans, key=lambda s: (s[0], -s[1]))]
    if any(a < b for a, b in zip(tops, tops[1:])):
        return None
    return tuple(sorted((t - b for b, t in spans), reverse=True)[1:]), spans


def stack_from_profile(hs: Iterable[int]) -> Polyomino:
    """The stack whose cell columns, left to right, have heights hs."""
    return Polyomino((c, r) for c, h in enumerate(hs, start=1) for r in range(1, h + 1))


def is_rectangle(p: Polyomino) -> bool:
    return len(p.cells) == (p.m - 1) * (p.n - 1)


def heights(p: Polyomino) -> tuple[int, ...]:
    """Max vertex level per vertex column, i = 1..m. Meaningful for convex p."""
    return tuple(t for _, t in vertex_spans(*column_bounds(p)[:2]))


def distinguished_vertex(p: Polyomino) -> tuple[int, int]:
    """(i, height(i)) for the lowest column, leftmost on ties."""
    hs = heights(p)
    level = min(hs)
    return hs.index(level) + 1, level


def _incident_cells(p: Polyomino, v: Vertex) -> int:
    c, r = v
    return sum(
        1
        for cell in ((c - 1, r - 1), (c, r - 1), (c - 1, r), (c, r))
        if cell in p.cells
    )


def corners(p: Polyomino) -> dict[str, frozenset[Vertex]]:
    """Classify vertices by incident cell count: 4 interior, 3 inside, 1 outside."""
    interior, inside, outside = set(), set(), set()
    for v in p.vertices:
        k = _incident_cells(p, v)
        if k == 4:
            interior.add(v)
        elif k == 3:
            inside.add(v)
        elif k == 1:
            outside.add(v)
    return {
        "interior": frozenset(interior),
        "inside": frozenset(inside),
        "outside": frozenset(outside),
    }


def transpose(p: Polyomino) -> Polyomino:
    return Polyomino((r, c) for c, r in p.cells)


def mirror(p: Polyomino) -> Polyomino:
    """Horizontal flip (columns reversed)."""
    return Polyomino((p.m - c, r) for c, r in p.cells)


def cells_at_or_above(p: Polyomino, level: int) -> Polyomino:
    """Keep cells whose row is >= level, renormalized."""
    kept = {(c, r) for c, r in p.cells if r >= level}
    if not kept:
        raise EmptyResult(f"no cells at or above level {level}")
    try:
        return Polyomino(kept)
    except DisconnectedCells:
        raise DisconnectedResult(f"cells at or above level {level} are disconnected") from None
