"""Exception types shared across the package, and the incidence floor."""

# every billiard map, the two planar ones and the ellipsoid's, raises
# TangentLine on a line meeting the boundary at an incidence below this, in radians
MIN_CHORD_ANGLE = 1e-6


class GutkinError(Exception):
    """Base class for all package errors."""


class NonClosedCurve(GutkinError):
    """Curvature radius has a first harmonic: the boundary does not close up."""


class NonConvex(GutkinError):
    """Curvature radius is not strictly positive somewhere on the boundary."""


class InvalidHarmonic(GutkinError):
    """Gutkin harmonic index must be an integer >= 4."""


class DegenerateChord(GutkinError):
    """Chord angle increment outside (0, 2*pi)."""


class NoIntersection(GutkinError):
    """Line misses the billiard table."""


class TangentLine(GutkinError):
    """Line touches the boundary with multiplicity two; no chord."""


class ConvergenceFailure(GutkinError):
    """Iterative solver failed; indicates a bug for strictly convex tables."""


class CoincidentDirections(GutkinError):
    """Two direction vectors coincide; generating function undefined."""


class NonUnit(GutkinError):
    """Vector expected to be unit length is not."""


class OffSurface(GutkinError):
    """Initial data violates the surface or tangency constraint."""


class StepTooLarge(GutkinError):
    """A geodesic run would take more series steps than a run may, or one of
    its steps ended off the surface after projection."""


class DegenerateCurvature(GutkinError):
    """Geodesic curvature too small for a Frenet frame."""
