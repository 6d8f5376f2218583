"""Exception types shared across the package."""


class FvxError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FvxError, ValueError):
    """An argument is outside the documented domain of an operation."""


class EmptyUnion(FvxError):
    """Disjunctive hull requested over an empty list of blocks."""


class EmptyInterval(FvxError):
    """A code interval [a, b] with b < a describes no binary points."""


class AllForbidden(FvxError):
    """Every vertex was removed; there is nothing left to describe."""


class CardinalityCap(FvxError):
    """Removed-vertex list exceeds the hard cap of the facet-tuple method."""


class NoFaceExcludes(FvxError):
    """Some removed vertex lies on every supplied facet row."""


class NotBinaryPolytope(FvxError):
    """An H-polytope assumed to have 0/1 vertices produced a fractional one."""


class UnboundedInput(FvxError):
    """An H-description turned out to be unbounded; it is not a polytope."""


class NotTU(FvxError):
    """Coefficient matrix is not totally unimodular."""


class SizeCap(FvxError):
    """Input exceeds the desk-scale size cap of an exponential procedure."""


class GuardExceeded(FvxError):
    """Ground truth would be too large to enumerate."""


class NumeralTooLong(GuardExceeded, DomainError):
    """A numeral has more digits than `int` converts (a guard, and malformed input)."""


class IncompatibleMethod(FvxError):
    """Compilation method does not apply to the given problem kind."""
