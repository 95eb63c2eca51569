"""Exhaustive shape generators for sweeps, oracles and demos."""

from __future__ import annotations

from typing import Iterator

from .polyomino import Polyomino, is_convex, stack_from_profile


def _normalize(cells: frozenset) -> frozenset:
    dc = min(c for c, _ in cells) - 1
    dr = min(r for _, r in cells) - 1
    if dc or dr:
        return frozenset((c - dc, r - dr) for c, r in cells)
    return cells


def fixed_cell_sets(max_cells: int) -> list[set[frozenset]]:
    """Normalized cell sets of every fixed polyomino, grouped by size 1..max_cells."""
    levels = [set()]
    levels.append({frozenset([(1, 1)])})
    for size in range(2, max_cells + 1):
        grown = set()
        for shape in levels[size - 1]:
            for c, r in shape:
                for nb in ((c + 1, r), (c - 1, r), (c, r + 1), (c, r - 1)):
                    if nb not in shape:
                        grown.add(_normalize(shape | {nb}))
        levels.append(grown)
    return levels[1:]


def fixed_polyominoes(max_cells: int) -> Iterator[Polyomino]:
    """Every fixed polyomino with 1..max_cells cells, smaller sizes first."""
    for level in fixed_cell_sets(max_cells):
        for shape in sorted(level, key=sorted):
            yield Polyomino(shape)


def convex_polyominoes(max_cells: int) -> Iterator[Polyomino]:
    for p in fixed_polyominoes(max_cells):
        if is_convex(p):
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
