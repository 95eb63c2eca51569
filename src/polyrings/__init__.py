"""Algebraic invariants of convex and stack polyominoes.

Records take one of two forms. A plain value record is a
typing.NamedTuple. A record that validates its fields, fills caches or
compares by identity is a class with __slots__ and an explicit
__init__; an immutable one raises AttributeError from __setattr__, as
Polyomino does. Neither form needs the standard library's data-class
decorator, whose module loads inspect, ast, dis and tokenize; with its
decorators it took 15-20 ms of the start-up of every polyrings command
(Python 3.11).
"""

from .errors import (
    BadParameters,
    ConsistencyError,
    DecompositionFailed,
    DisconnectedCells,
    DisconnectedResult,
    EmptyInput,
    EmptyResult,
    GroebnerUnverified,
    IsRectangle,
    MalformedGrid,
    NotAFacet,
    NotConvex,
    NotPure,
    NotStack,
    PolyominoError,
    TooLarge,
)
from .polyomino import (
    Polyomino,
    cells_at_or_above,
    corners,
    delete_cell,
    heights,
    is_column_convex,
    is_convex,
    is_rectangle,
    is_row_convex,
    is_stack,
    has_monotone_paths,
    mirror,
    parse,
    serialize,
    transpose,
)
from .bigraph import (
    BipartiteGraph,
    SideSubset,
    build_graph,
    hall_violator,
    max_matching,
    neighbors_x,
    neighbors_y,
    rook_number,
)
from .gorenstein import (
    Certificate,
    GorensteinVerdict,
    Violation,
    is_gorenstein_convex,
    is_gorenstein_stack_corners,
    is_gorenstein_stack_subsets,
)
from .toric import (
    InitialIdeal,
    InnerMinor,
    VarOrder,
    initial_ideal,
    inner_minors,
    leading_term,
    variable_order,
    verify_groebner,
)
from .srcomplex import (
    FlagComplex,
    build_complex,
    invariants_from_complex,
    deletion_facets,
    f_vector,
    facets,
    hilbert_numerator,
    link_decompose,
    link_facets,
    transport_facet,
    transport_facet_inverse,
)
from .invariants import (
    Decomposition,
    InvariantReport,
    a_invariant_stack,
    a_invariant_stack_exact,
    decompose,
    distinguished_vertex,
    full_report,
    h_vector_recursive,
    ladder_polyomino,
    multiplicity_ladder,
    multiplicity_pk,
    multiplicity_recursive,
    multiplicity_rectangle,
    pk_polyomino,
    regularity_stack,
    regularity_stack_exact,
)
from .generate import convex_polyominoes, fixed_polyominoes, stack_polyominoes
from . import fixtures

__version__ = "0.1.0"
