"""Exact shortest collision-free coordinated motions for two disc robots
in an otherwise empty plane.

The public surface: geometry primitives and predicates (geom), the
support-function length bound (support), trajectories and schedules
(motion), the certified planner (planner), independent cross-checks
(oracle), and a command-line front end (cli).
"""

from .errors import (ClassificationFailure, ConstructionFailure,
                     CouplingFailure, DegenerateCircles, DiscMotionError,
                     ForcedClockwiseSignal, InfeasibleEndpoint, InvalidCone,
                     OptimalityCheckFailure, OracleExhausted,
                     PointInsideCircle, UndefinedAngle)
from .geom import (Circle, Frame, Instance, Placement, Point, angle_of,
                   circle_circle_intersection, dist, distance_point_segment,
                   dominates, in_s_cone, in_s_corridor, normalize,
                   reflect_instance, tangent_points)
from .motion import (Arc, JointItem, Motion, Phase, Segment, Trajectory,
                     couple, is_trace_convex, min_separation,
                     min_separation_sampled, placement_angle_profile,
                     reflect_motion, reverse_motion, sample, swap_roles,
                     transform_motion)
from .oracle import (Certificate, GridSpec, OracleResult, certify,
                     default_grid, pivot_grid_search)
from .planner import (ConstructionTrace, PlanReport, ZoneLabel,
                      build_generic_motion, classify_case,
                      classify_zone_case2, classify_zone_case3,
                      compute_pivot_case2, compute_pivot_case3,
                      forced_clockwise, plan, shortest_path_avoiding_disc)
from .support import (AngleInterval, LengthBound, SupportEvaluator,
                      closed_form_bound, evaluator_for, integrand,
                      optimal_length_bound, pair_support, placement_angle,
                      quadrature_bound, segment_support, swept_interval)

__version__ = "0.1.0"

__all__ = [
    "AngleInterval", "Arc", "Certificate", "Circle", "ClassificationFailure",
    "ConstructionFailure", "ConstructionTrace", "CouplingFailure",
    "DegenerateCircles", "DiscMotionError", "ForcedClockwiseSignal", "Frame",
    "GridSpec", "InfeasibleEndpoint", "Instance", "InvalidCone", "JointItem",
    "LengthBound", "Motion", "OptimalityCheckFailure", "OracleExhausted",
    "OracleResult", "Phase", "PlanReport", "Placement", "Point",
    "PointInsideCircle", "Segment", "SupportEvaluator",
    "Trajectory", "UndefinedAngle", "ZoneLabel", "angle_of",
    "build_generic_motion", "certify", "circle_circle_intersection",
    "classify_case", "classify_zone_case2", "classify_zone_case3",
    "closed_form_bound", "compute_pivot_case2", "compute_pivot_case3",
    "couple", "default_grid", "dist", "distance_point_segment", "dominates",
    "evaluator_for", "forced_clockwise", "in_s_cone",
    "in_s_corridor", "integrand", "is_trace_convex", "min_separation",
    "min_separation_sampled", "normalize",
    "optimal_length_bound", "pair_support", "pivot_grid_search",
    "placement_angle", "placement_angle_profile", "plan",
    "quadrature_bound", "reflect_instance", "reflect_motion",
    "reverse_motion", "sample", "segment_support",
    "shortest_path_avoiding_disc", "swap_roles", "swept_interval",
    "tangent_points", "transform_motion",
]
