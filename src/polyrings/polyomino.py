"""Cell sets on the integer lattice: parsing, classification, transforms.

A cell is named by its lower-left corner (col, row), 1-based. A polyomino
is a finite edge-connected set of cells, kept normalized so that some cell
has col == 1 and some cell has row == 1. The vertex box is [m] x [n] with
m = max col + 1 and n = max row + 1; every corner of every cell lies in it.
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

    The convexity verdict is computed on first use and kept (slot
    _convex), so the layers that each check it scan the cells once.
    """

    __slots__ = ("cells", "vertices", "m", "n", "_convex")

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
        object.__setattr__(self, "_convex", None)

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


def _lines_convex(lines: Iterable[tuple[int, int]]) -> bool:
    """Whether the positions on each line form an interval, given
    (line, position) pairs: one pass collecting a min, a max and a
    count per line."""
    spans: dict[int, list[int]] = {}
    for line, pos in lines:
        span = spans.get(line)
        if span is None:
            spans[line] = [pos, pos, 1]
        else:
            if pos < span[0]:
                span[0] = pos
            elif pos > span[1]:
                span[1] = pos
            span[2] += 1
    return all(hi - lo + 1 == count for lo, hi, count in spans.values())


def is_row_convex(p: Polyomino) -> bool:
    return _lines_convex((r, c) for c, r in p.cells)


def is_column_convex(p: Polyomino) -> bool:
    return _lines_convex(p.cells)


def is_convex(p: Polyomino) -> bool:
    """Row convex and column convex; decided once per polyomino."""
    if p._convex is None:
        object.__setattr__(p, "_convex", is_row_convex(p) and is_column_convex(p))
    return p._convex


_DIR_PAIRS = (
    ((1, 0), (0, 1)),
    ((1, 0), (0, -1)),
    ((-1, 0), (0, 1)),
    ((-1, 0), (0, -1)),
)


def has_monotone_paths(p: Polyomino) -> bool:
    """Every pair of cells is joined by a cell path using at most two directions."""
    cells = sorted(p.cells)
    for i, a in enumerate(cells):
        for b in cells[i + 1 :]:
            if not any(_reaches(p.cells, a, b, dirs) for dirs in _DIR_PAIRS):
                return False
    return True


def _reaches(cells: frozenset[Cell], a: Cell, b: Cell, dirs) -> bool:
    seen = {a}
    queue = deque([a])
    while queue:
        c, r = queue.popleft()
        if (c, r) == b:
            return True
        for dc, dr in dirs:
            nb = (c + dc, r + dr)
            if nb in cells and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return False


def is_stack(p: Polyomino) -> bool:
    """Convex with a full bottom row of cells."""
    return is_convex(p) and all((c, 1) in p.cells for c in range(1, p.m))


def stack_from_profile(hs: Iterable[int]) -> Polyomino:
    """The stack whose cell columns, left to right, have heights hs."""
    return Polyomino((c, r) for c, h in enumerate(hs, start=1) for r in range(1, h + 1))


def is_rectangle(p: Polyomino) -> bool:
    return len(p.cells) == (p.m - 1) * (p.n - 1)


def heights(p: Polyomino) -> tuple[int, ...]:
    """Max vertex level per vertex column, i = 1..m. Meaningful for convex p."""
    out = [0] * p.m
    for c, r in p.cells:
        if r >= out[c - 1]:
            out[c - 1] = r + 1
        if r >= out[c]:
            out[c] = r + 1
    return tuple(out)


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
    if not _edge_connected(frozenset(kept)):
        raise DisconnectedResult(f"cells at or above level {level} are disconnected")
    return Polyomino(kept)
