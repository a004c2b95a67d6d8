"""Exception hierarchy.

Every failure mode surfaced by the library is a subclass of EncwritheError,
so CLI code can map categories to exit codes without string matching.
"""

from __future__ import annotations


class EncwritheError(Exception):
    """Base class for all library errors."""


class InvalidInput(EncwritheError):
    """Precondition violation on an operation's arguments."""


class ParseError(EncwritheError):
    """Malformed curve/link file."""


class InputTooLarge(ParseError):
    """An input asks for a number beyond a fixed size budget."""


class ValidationError(EncwritheError):
    """A curve or link violates a structural invariant."""


class ReducibleParametrization(ValidationError):
    """The coordinate quadruple has a nonconstant common factor."""


class CuspDetected(ValidationError):
    """The parametrization fails to be an immersion."""


class RealSingularityDetected(ValidationError):
    """The space curve has a real double point."""


class ComponentsIntersect(ValidationError):
    """Two components of a link meet over the complex numbers."""


class SingularMatrix(InvalidInput):
    """A transform matrix has zero determinant."""


class MissingOrientation(InvalidInput):
    """An oriented quantity was requested on an unoriented link."""


class ProjectionError(EncwritheError):
    """A projection center failed a genericity requirement."""


class CenterOnCurve(ProjectionError):
    """The projection center lies on the link."""


class CenterOnSingularLine(ProjectionError):
    """The center lies on a real line through conjugate imaginary singular points."""


class DegenerateElimination(ProjectionError):
    """The double-point elimination degenerated; the center is not generic."""


class TangentialPair(ProjectionError):
    """A double point with e^2 - 4f = 0 (tangency or image cusp)."""


class TriplePoint(ProjectionError):
    """Two double points of the projection share an image point."""


class NonGenericProjection(ProjectionError):
    """Catch-all for a non-generic center: an eliminant of the wrong degree
    or not square-free, or double points stuck at parameter infinity."""


class ZeroDeterminant(ProjectionError):
    """A local-writhe determinant or an image denominator vanished."""


class SamplingExhausted(EncwritheError):
    """A randomized search ran out of retries."""
