"""Exhaustive shape generators for sweeps, oracles and demos.

Convex polyominoes are enumerated directly, not filtered out of the
fixed ones. A convex polyomino is a run of consecutive cell columns,
each a single row interval [lo_i, hi_i], and consecutive intervals
overlap (edge-connectivity). Row convexity holds exactly when lo_i first
falls and then rises, and hi_i first rises and then falls, both weakly:
the columns meeting row r are those with lo_i <= r <= hi_i, and each of
the two conditions is an interval of columns for every r exactly when
its sequence has that shape. A depth-first search over columns, on an
explicit stack, carries the remaining cell budget and one phase flag
for each sequence (lo has risen, hi has fallen).
"""

from __future__ import annotations

from typing import Iterator

from .errors import ConsistencyError
from .polyomino import Polyomino, is_convex, stack_from_profile


def _convex_cell_tuples(size: int) -> list[tuple]:
    """The normalized cells of every convex polyomino with exactly size
    cells, each as a tuple in ascending (col, row) order, the list sorted.

    The first column starts at row 0, so each shape is found once, and
    rows are shifted so that the lowest cell lies in row 1.
    """
    out = []
    todo = [(((0, h - 1),), size - h, False, False) for h in range(1, size + 1)]
    while todo:
        cols, left, lo_up, hi_down = todo.pop()
        if not left:
            shift = 1 - min(lo for lo, _ in cols)
            out.append(
                tuple(
                    (c, r + shift)
                    for c, (lo, hi) in enumerate(cols, start=1)
                    for r in range(lo, hi + 1)
                )
            )
            continue
        lo, hi = cols[-1]
        for a in range(lo if lo_up else lo - left + 1, hi + 1):
            top = min(a + left - 1, hi) if hi_down else a + left - 1
            for b in range(max(a, lo), top + 1):
                todo.append(
                    (cols + ((a, b),), left - (b - a + 1), lo_up or a > lo, hi_down or b < hi)
                )
    out.sort()
    return out


def convex_polyominoes(max_cells: int) -> Iterator[Polyomino]:
    """Every convex polyomino with 1..max_cells cells, smaller sizes
    first, each size in ascending order of its sorted cell list.

    Shapes come from the column-interval search of the module docstring,
    one size at a time. Each one is checked with is_convex, whose cached
    verdict later callers reuse; a non-convex candidate raises
    ConsistencyError.
    """
    for size in range(1, max_cells + 1):
        for cells in _convex_cell_tuples(size):
            p = Polyomino(cells)
            if not is_convex(p):
                raise ConsistencyError(f"column-interval shape is not convex: {list(cells)}")
            yield p


def unimodal_compositions(total_max: int) -> Iterator[tuple[int, ...]]:
    """Nonempty tuples of positive ints, rising then falling, with sum <= total_max."""

    def build(prefix: list[int], budget: int, falling: bool) -> Iterator[tuple[int, ...]]:
        yield tuple(prefix)
        last = prefix[-1]
        for nxt in range(1, budget + 1):
            if falling and nxt > last:
                continue
            prefix.append(nxt)
            yield from build(prefix, budget - nxt, falling or nxt < last)
            prefix.pop()

    for first in range(1, total_max + 1):
        yield from build([first], total_max - first, False)


def stack_polyominoes(max_cells: int) -> Iterator[Polyomino]:
    """Every stack polyomino with at most max_cells cells.

    Stacks correspond to unimodal sequences of cell column heights.
    """
    for comp in unimodal_compositions(max_cells):
        yield stack_from_profile(comp)
