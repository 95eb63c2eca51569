"""Algebraic invariants of convex and stack polyominoes.

Records take one of two forms. A plain value record is a
typing.NamedTuple. A record that validates its fields, fills caches or
compares by identity is a class with __slots__ and an explicit
__init__; an immutable one raises AttributeError from __setattr__, as
Polyomino does. Neither form needs the standard library's data-class
decorator, whose module loads inspect, ast, dis and tokenize; with its
decorators it took 15-20 ms of the start-up of every polyrings command
(Python 3.11).

Every public name is imported from its module, for example
polyrings.invariants.full_report; importing the package loads the layer
modules and defines no other name.
"""

from . import errors, fixtures, generate, gorenstein, invariants, polyomino, srcomplex, toric

__version__ = "0.1.0"
