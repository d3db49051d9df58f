"""Exception types shared across the toolkit."""


class PlaneGeometryError(Exception):
    """Base class for every geometric or configuration failure raised here."""


class CoincidentPoints(PlaneGeometryError):
    """Two input points coincide within the equality tolerance."""


class IdentityMap(PlaneGeometryError):
    """Operation requires a non-identity map."""


class ParallelInput(PlaneGeometryError):
    """Input points are parallel where non-parallel points are required."""


class NoBranch(PlaneGeometryError):
    """Neither circle-set branch matches: a genuine joining failure report."""


class EqualCircles(PlaneGeometryError):
    """The two circles coincide within the uniqueness tolerance."""


class PreconditionViolated(PlaneGeometryError):
    """An operation precondition does not hold for the given arguments."""


class NotFound(PlaneGeometryError):
    """No tangent circle located: an axiom-of-touching counterexample candidate."""


class PointOnBaseCross(PlaneGeometryError):
    """Point lies on a parallel class of the derived plane's base point."""


class FamilyMismatch(PlaneGeometryError):
    """Group elements from different families cannot be composed."""


class UnsupportedPlane(PlaneGeometryError):
    """The suite is only defined for a different plane family."""


class MonotonicityError(PlaneGeometryError):
    """Construction does not describe a monotone circle homeomorphism."""


class ConfigError(PlaneGeometryError):
    """Malformed configuration, literal, or data file."""


class SamplingExhausted(PlaneGeometryError):
    """A sampler rejected every draw up to its retry limit."""
