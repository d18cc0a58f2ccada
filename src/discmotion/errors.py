"""Exception types shared across the package."""


class DiscMotionError(Exception):
    """Base class for all planner errors."""


class PointInsideCircle(DiscMotionError):
    """Tangent requested from a point strictly inside the circle."""


class InvalidCone(DiscMotionError):
    """Cone apex lies strictly inside the target separation circle."""


class DegenerateCircles(DiscMotionError):
    """Circle-circle intersection of coincident circles."""


class UndefinedAngle(DiscMotionError):
    """Placement angle of coincident centres."""


class CouplingFailure(DiscMotionError):
    """Coupling could not match reversal-window endpoint angles."""


class ClassificationFailure(DiscMotionError):
    """Instance fell outside every zone of its case machinery."""


class ConstructionFailure(DiscMotionError):
    """A leg of a constructed motion is infeasible."""


class OptimalityCheckFailure(DiscMotionError):
    """Constructed motion length disagrees with the closed-form bound."""


class InfeasibleEndpoint(DiscMotionError):
    """Avoidance path endpoint strictly inside the forbidden disc."""


class OracleExhausted(DiscMotionError):
    """Grid oracle found no feasible candidate motion."""


class ForcedClockwiseSignal(DiscMotionError):
    """Internal control flow: the ccw machinery proved the instance is
    net-clockwise optimal.  Callers catch this; it never escapes plan()."""
