"""Exception hierarchy shared across the library and the CLI."""


class TmhError(Exception):
    """Base class for all library errors."""


class DimensionError(TmhError):
    """Operation applied to data of the wrong dimension or shape."""


class NotUnimodularError(TmhError):
    """Integer matrix expected to have determinant +-1 does not."""


class GeometryError(TmhError):
    """Base class for polytope construction failures."""


class EmptyError(GeometryError):
    """The half-space system has no feasible point."""


class UnboundedError(GeometryError):
    """The half-space system has a nontrivial recession cone."""


class NotSimpleError(GeometryError):
    """Some vertex lies on more facets than the dimension allows."""


class RedundantFacetError(GeometryError):
    """A half-space supports no vertex of the feasible region."""


class ContainmentError(GeometryError):
    """A hole is not strictly contained in the outer polytope."""


class DisjointnessError(GeometryError):
    """Two holes intersect as closed bodies."""


class PlacementError(GeometryError):
    """The deterministic hole placement could not fit the pieces."""


class NotValidatedError(TmhError):
    """Operation requires a validated characteristic pair."""


class GenericityError(TmhError):
    """A direction vector pairs to zero with some edge vector."""

    def __init__(self, message, vertex=None, edge_vector=None):
        super().__init__(message)
        self.vertex = vertex
        self.edge_vector = edge_vector


class ScopeError(TmhError):
    """Requested computation is outside the supported scope."""


class DomainError(TmhError):
    """A point argument lies outside the domain of the operation."""


class SpecParseError(TmhError):
    """A specification document is malformed."""


class InternalError(TmhError):
    """A mathematical invariant the library relies on does not hold."""
