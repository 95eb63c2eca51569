"""Shared cached enumerations so the heavy sweeps run once per session."""

import random
from functools import lru_cache

from polyrings import fixtures
from polyrings.generate import stack_polyominoes
from polyrings.invariants import full_report
from polyrings.srcomplex import build_complex
from polyrings.toric import VarOrder

from oracles import brute_convex_polyominoes, fixed_polyominoes


@lru_cache(maxsize=None)
def fx(name):
    return fixtures.load(name)


@lru_cache(maxsize=None)
def stacks_upto(max_cells):
    return tuple(stack_polyominoes(max_cells))


@lru_cache(maxsize=None)
def fixed_upto(max_cells):
    return tuple(fixed_polyominoes(max_cells))


@lru_cache(maxsize=None)
def convex_upto(max_cells):
    """The brute-force reference: convex shapes filtered out of fixed_upto."""
    return tuple(brute_convex_polyominoes(fixed_upto(max_cells)))


@lru_cache(maxsize=None)
def complex_of(p):
    return build_complex(p)


@lru_cache(maxsize=None)
def report_of(p):
    return full_report(p)


def shuffled_orders(p, count=2):
    """count seeded random rankings of p's vertices, advisory."""
    out = []
    for seed in range(count):
        ranked = sorted(p.vertices)
        random.Random(f"{sorted(p.cells)}:{seed}").shuffle(ranked)
        out.append(VarOrder(ranked, advisory=True))
    return out


CONVEX_FIXTURES = (
    "fig1_right", "vertical", "fig5_a", "fig5_b", "fig6", "fig8", "fig9",
    "fig11", "fig12_a", "fig12_b", "fig13", "fig14", "ex1", "ex3",
    "figa", "figb", "ex6", "ex7", "single_cell",
)

STACK_FIXTURES = (
    "fig5_a", "fig5_b", "fig11", "fig12_a", "fig12_b", "fig13", "fig14",
    "ex1", "ex3", "figa", "figb", "single_cell",
)
