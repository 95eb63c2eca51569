"""Exception types shared across the package."""


class PolyominoError(Exception):
    """Base class for every error raised by this package."""


class EmptyInput(PolyominoError):
    """Input denotes no cells at all."""


class MalformedGrid(PolyominoError):
    """Grid text is ragged or contains illegal characters, or JSON is not a cell list."""


class DisconnectedCells(PolyominoError):
    """Cell set is not edge-connected."""


class EmptyResult(PolyominoError):
    """An operation would produce a polyomino with no cells."""


class DisconnectedResult(PolyominoError):
    """An operation would disconnect the cell set."""


class NotConvex(PolyominoError):
    """Operation requires a convex polyomino."""


class NotStack(PolyominoError):
    """Operation requires a stack polyomino."""


class TooLarge(PolyominoError):
    """Input exceeds a work budget: of an exponential stage or the Groebner check."""


class GroebnerUnverified(PolyominoError):
    """Initial ideal requested for an order whose basis property is not established."""


class NotPure(PolyominoError):
    """Facets of the simplicial complex do not all have the expected size."""


class NotAFacet(PolyominoError):
    """Vertex set fed to a facet transport is not usable as a facet."""


class DecompositionFailed(PolyominoError):
    """A facet or polyomino decomposition did not produce the certified pieces."""


class IsRectangle(PolyominoError):
    """Decomposition step is undefined for full rectangles."""


class BadParameters(PolyominoError):
    """Numeric parameters outside the documented range."""


class ConsistencyError(PolyominoError):
    """Two independent computations of the same invariant disagree."""
