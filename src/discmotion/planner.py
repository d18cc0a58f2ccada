"""The exact planner: case table, zone machinery, pivots, candidates.

plan() normalizes the instance onto the B-axis, classifies it against the
four corridor memberships, constructs the counter-clockwise candidate via
zone machinery (a pivot point threaded by a three-leg route) plus the
clockwise candidate (the counter-clockwise construction on the mirrored
instance, mirrored back), and certifies the winner against the closed-form
support bound.  Certification failures are surfaced, never repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (ClassificationFailure, ConstructionFailure,
                     ForcedClockwiseSignal, InfeasibleEndpoint,
                     OptimalityCheckFailure, PointInsideCircle)
from .geom import (Circle, Frame, Instance, Placement, Point, angle_of,
                   circle_circle_intersection, cross, dist,
                   distance_point_segment, dominates, dot, in_s_corridor,
                   line_circle_intersections, line_line_intersection, norm,
                   normalize, perp, reflect_instance, reflect_point,
                   tangent_points, upper_tangency)
from .motion import (Arc, Motion, Phase, Segment, Trajectory, reflect_motion,
                     reverse_motion, swap_roles, transform_motion)
from .support import AngleInterval, LengthBound, optimal_length_bound

CASE_LABELS = ("Case1a", "Case1b", "Case2a", "Case2b", "Case3a", "Case3b")


@dataclass(frozen=True)
class ZoneLabel:
    """Zone of the pivot machinery, with the circle-overlap tag and the
    subcase where one applies (Zone IV: "1"|"2"|"3", Zone I: side of the
    circle's top)."""

    zone: str                      # "I" | "II" | "III" | "IV"
    circles: str                   # "circlesDisjoint" | "circlesIntersect"
    subcase: Optional[str] = None

    def __str__(self):
        tag = f" subcase {self.subcase}" if self.subcase else ""
        return f"Zone {self.zone} [{self.circles}]{tag}"


@dataclass(frozen=True)
class ConstructionTrace:
    """Named auxiliary geometry, in the caller's coordinates.

    points holds (name, Point) pairs such as the pivot, cone tangencies and
    circle cuts; spans holds (name, (start_angle, end_angle)) pairs for the
    arcs of the chosen motion.
    """

    points: tuple = ()
    spans: tuple = ()

    def point(self, name: str) -> Optional[Point]:
        for n, p in self.points:
            if n == name:
                return p
        return None

    def span(self, name: str):
        for n, sp in self.spans:
            if n == name:
                return sp
        return None


@dataclass(frozen=True)
class PlanReport:
    case: str
    zone: Optional[ZoneLabel]
    forced_clockwise: bool
    ccw_motion: Optional[Motion]
    cw_motion: Optional[Motion]
    chosen: Motion
    lengths: tuple  # (ccw or None, cw or None, chosen)
    bound: LengthBound
    trace: ConstructionTrace
    frame: Frame


# ---------------------------------------------------------------------------
# case table


def _memberships(inst: Instance):
    eps = inst.eps
    return (in_s_corridor(inst.a0, inst.b0, inst.b1, inst.s, eps),
            in_s_corridor(inst.a1, inst.b0, inst.b1, inst.s, eps),
            in_s_corridor(inst.b0, inst.a0, inst.a1, inst.s, eps),
            in_s_corridor(inst.b1, inst.a0, inst.a1, inst.s, eps))


def _classify(c1: bool, c2: bool, c3: bool, c4: bool) -> str:
    if not c1 and not c4:
        return "Case1a"
    if not c2 and not c3:
        return "Case1b"
    if c1 and c3:
        return "Case2a"
    if c2 and c4:
        return "Case2b"
    if c1 and c2 and not c3 and not c4:
        return "Case3a"
    if not c1 and not c2 and c3 and c4:
        return "Case3b"
    raise AssertionError(
        f"membership pattern not covered: {(c1, c2, c3, c4)}")


def classify_case(inst: Instance) -> str:
    """Row of the case table, resolved by priority Case1a > ... > Case3b.

    The memberships are rigid-motion invariant, so normalization is not
    required for classification alone.
    """
    return _classify(*_memberships(inst))


def forced_clockwise(inst: Instance) -> bool:
    """True when the optimal motion must be net clockwise.

    In the normalized frame, with both A placements inside the corridor.
    When the separation circles intersect, the corridor splits into a
    pocket below the two discs and one above; the sweep is forced exactly
    when both A placements sit in the lower pocket.  With disjoint
    circles: for some i and j = 1-i, A_i sits strictly below the axis,
    the half-space below the max-y tangent line from A_i to the
    separation circle of B_j reaches the separation circle of B_i (the
    straight run along that tangent is blocked), and A_j lies in that
    half-space.  When both A placements sit inside the opposite
    separation circles the tangent lines degenerate; the endpoints then
    trade corridor ends and the over-the-top trace is blocked exactly
    when both sit below the axis.
    """
    _, n = normalize(inst)
    eps, s = n.eps, n.s
    if not (in_s_corridor(n.a0, n.b0, n.b1, s, eps)
            and in_s_corridor(n.a1, n.b0, n.b1, s, eps)):
        return False
    if dist(n.b0, n.b1) < 2.0 * s - eps:
        return all(p.y < -eps and dist(p, n.b0) > s + eps
                   and dist(p, n.b1) > s + eps for p in (n.a0, n.a1))
    deep0 = dist(n.a0, n.b1) < s - eps
    deep1 = dist(n.a1, n.b0) < s - eps
    if deep0 and deep1:
        return n.a0.y < -eps and n.a1.y < -eps
    for ai, aj, bi, bj in ((n.a0, n.a1, n.b0, n.b1),
                           (n.a1, n.a0, n.b1, n.b0)):
        # the half-space argument needs both points under the axis; with
        # one point above, the counter-clockwise sweep can lift over the
        # top and the orientation is settled by the certificates instead
        if ai.y >= -eps or aj.y >= -eps or dist(ai, bj) < s - eps:
            continue
        t = upper_tangency(ai, Circle(bj, s), eps)
        d = (t - ai) if t != ai else perp(ai - bj)
        nvec = perp(d)
        if dot(nvec, bj - ai) > 0.0:
            nvec = -nvec
        nl = norm(nvec)
        if nl == 0.0:
            continue
        nvec = nvec * (1.0 / nl)
        if dot(nvec, bi - ai) < s - eps and dot(nvec, aj - ai) < -eps:
            return True
    return False


# ---------------------------------------------------------------------------
# shared tangent-line helpers


def _upper_tangent_line(p: Point, c: Circle, eps: float):
    """(tangency, direction) of the maximal-y tangent line from p to c."""
    t = upper_tangency(p, c, eps)
    d = (t - p) if t != p else perp(p - c.center)
    return t, d


def _strictly_below_tangent(p: Point, c: Circle, q: Point,
                            eps: float) -> bool:
    """q strictly on the centre side of the max-y tangent line from p."""
    t, d = _upper_tangent_line(p, c, eps)
    sgn = 1.0 if cross(d, c.center - p) >= 0.0 else -1.0
    return sgn * cross(d, q - p) > eps * norm(d)


def _strictly_above_tangent(p: Point, c: Circle, q: Point,
                            eps: float) -> bool:
    """q strictly on the far side of the max-y tangent line from p."""
    t, d = _upper_tangent_line(p, c, eps)
    sgn = 1.0 if cross(d, c.center - p) >= 0.0 else -1.0
    return sgn * cross(d, q - p) < -eps * norm(d)


def _line_crosses_segment(origin: Point, direction: Point, e0: Point,
                          e1: Point, eps: float) -> bool:
    """Closed test: the infinite line meets the segment e0-e1."""
    s0 = cross(direction, e0 - origin)
    s1 = cross(direction, e1 - origin)
    tol = eps * norm(direction)
    if (s0 > tol and s1 > tol) or (s0 < -tol and s1 < -tol):
        return False
    return True


# ---------------------------------------------------------------------------
# Case-2a zone machinery (normalized instances)


def _exit_point(n: Instance, p: Point, eps: float):
    """Last departure point from the second circle along the cone edge
    A0 -> p, with a flag marking the trivial case (A0 never inside)."""
    s = n.s
    second = Circle(n.b1, s)
    if dist(n.a0, n.b1) >= s - eps:
        return n.a0, True
    if dist(p, n.b1) >= s - eps:
        hits = [pt for t, pt in line_circle_intersections(n.a0, p - n.a0,
                                                          second)
                if -1e-12 <= t <= 1.0 + 1e-12]
        if not hits:
            raise ConstructionFailure("cone edge does not leave the circle")
        return hits[-1], False
    pts = circle_circle_intersection(Circle(n.b0, s), Circle(n.b1, s), eps)
    if not pts:
        raise ConstructionFailure("expected overlapping circles")
    return pts[0], False


def _case2_zones(n: Instance):
    """(zone, pivot or None, points) for a normalized Case-2a instance.

    A None pivot marks the subcases that only admit a clockwise motion.
    Zone tests run in priority order I > II > III > IV; the last three are
    side tests against the fan of max-y tangent lines toward the second
    circle, drawn from the cone tangency (II) and from the departure
    point (III), with Zone IV as the remainder.
    """
    s, eps = n.s, n.eps
    circ0, circ1 = Circle(n.b0, s), Circle(n.b1, s)
    d = dist(n.b0, n.b1)
    intersecting = d < 2.0 * s - eps
    tag = "circlesIntersect" if intersecting else "circlesDisjoint"
    p = upper_tangency(n.a0, circ0, eps)
    u = Point(n.b0.x, n.b0.y + s)
    arc = AngleInterval(angle_of(p - n.b0), 0.5 * math.pi)
    pts = {"coneTangency": p, "corridorTop": u}
    a0_clear = dist(n.a0, n.b1) >= s - eps

    # Zone I: some tangency from A1 to the first circle lands on the
    # cone-tangency-to-top arc
    hit = None
    if dist(n.a1, n.b0) >= s - eps:
        for tp in tangent_points(n.a1, circ0, eps):
            if arc.contains(angle_of(tp - n.b0)):
                hit = tp
                break
    if hit is not None:
        pts["guideTangency"] = hit
        in_corr = in_s_corridor(n.a1, n.b0, n.b1, s, eps)
        if intersecting:
            blocked = in_corr and n.a1.y < -eps
        else:
            blocked = (in_corr and a0_clear
                       and _strictly_below_tangent(n.a0, circ1, n.a1, eps))
        if blocked:
            return ZoneLabel("I", tag, "belowU"), None, pts
        return ZoneLabel("I", tag, "aboveU"), n.a1, pts

    t, trivial_exit = _exit_point(n, p, eps)
    curve3_exists = dist(p, n.b1) >= s - eps
    above4 = (dist(t, n.b1) >= s - eps
              and _strictly_above_tangent(t, circ1, n.a1, eps))

    # Zone II: A1 sits above the tangent line from the cone tangency to
    # the second circle; the pivot is the rightmost cut that A1's own
    # guide tangent makes through the first circle.  When the cone
    # tangency is swallowed by the second circle that line does not
    # exist and the band reaches down to the departure point's tangent
    if (_strictly_above_tangent(p, circ1, n.a1, eps) if curve3_exists
            else above4):
        w1, d1 = _upper_tangent_line(n.a1, circ1, eps)
        cuts = [pt for _, pt in line_circle_intersections(n.a1, d1, circ0)]
        if cuts:
            pts["guideTangency"] = w1
            pivot = max(cuts, key=lambda q: (q.x, q.y))
            return ZoneLabel("II", tag), pivot, pts

    # overlapping circles with A0 in the lower pocket: the sweep is
    # clockwise-only exactly when A1 sits in the wedge between the upper
    # tangents from A0 to the two circles
    if (intersecting and a0_clear and n.a0.y <= eps
            and _strictly_above_tangent(n.a0, circ1, n.a1, eps)
            and _strictly_below_tangent(n.a0, circ0, n.a1, eps)):
        pts["cut"] = t
        return ZoneLabel("IV", tag, "2"), None, pts

    # Zone III: A1 sits above the tangent line from the departure point;
    # the pivot joins A1's guide tangent with the cone edge through A0.
    # The zone sits between that line and the one from the cone tangency
    if curve3_exists and above4:
        w1, d1 = _upper_tangent_line(n.a1, circ1, eps)
        _, d0 = _upper_tangent_line(n.a0, circ0, eps)
        pivot = line_line_intersection(n.a1, d1, n.a0, d0)
        if pivot is not None:
            pts["guideTangency"] = w1
            return ZoneLabel("III", tag), pivot, pts

    # Zone IV: A1 is dominated by the departure point t
    pts["cut"] = t
    if not intersecting or (a0_clear and n.a0.y > eps):
        if not trivial_exit:
            return ZoneLabel("IV", tag, "3"), t, pts
        w = upper_tangency(n.a1, circ1, eps)
        pts["guideTangency"] = w
        if w.x < n.b1.x + eps:
            return ZoneLabel("IV", tag, "1"), n.a0, pts
        return ZoneLabel("IV", tag, "2"), None, pts
    return ZoneLabel("IV", tag, "3"), t, pts


# ---------------------------------------------------------------------------
# Case-3a zone machinery (normalized instances)


def _case3_zones(n: Instance):
    """(zone, pivot, points) for a normalized Case-3a instance."""
    s, eps = n.s, n.eps
    circ0, circ1 = Circle(n.b0, s), Circle(n.b1, s)
    d = dist(n.b0, n.b1)
    intersecting = d < 2.0 * s - eps
    tag = "circlesIntersect" if intersecting else "circlesDisjoint"
    pts: dict = {}
    if intersecting:
        below0 = n.a0.y < -eps
        below1 = n.a1.y < -eps
        if below0 and below1:
            raise ForcedClockwiseSignal(
                "both A placements sit under overlapping circles")
        if below0 != below1:
            raise ClassificationFailure(
                "A placements on opposite sides of overlapping circles")
    if dominates(n.a1, n.a0, n.b0, n.b1, s, eps):
        return ZoneLabel("I", tag), n.a1, pts
    if dominates(n.a0, n.a1, n.b0, n.b1, s, eps):
        return ZoneLabel("II", tag), n.a0, pts
    p0 = upper_tangency(n.a0, circ0, eps)
    p1 = upper_tangency(n.a0, circ1, eps)
    pts["coneTangencyFirst"] = p0
    pts["coneTangencySecond"] = p1
    t10, d10 = _upper_tangent_line(n.a1, circ0, eps)
    t11, d11 = _upper_tangent_line(n.a1, circ1, eps)
    # Zone III: A1's tangent to the first circle crosses the edge toward
    # the second circle's tangency; pivot joins the crossed tangent pair
    if _line_crosses_segment(n.a1, d10, n.a0, p1, eps):
        _, d01 = _upper_tangent_line(n.a0, circ1, eps)
        pivot = line_line_intersection(n.a1, d10, n.a0, d01)
        if pivot is None:
            raise ConstructionFailure("parallel guide tangents in Zone III")
        pts["guideTangency"] = t10
        return ZoneLabel("III", tag), pivot, pts
    # Zone IV: same-index tangent pair
    if _line_crosses_segment(n.a1, d11, n.a0, p0, eps):
        _, d00 = _upper_tangent_line(n.a0, circ0, eps)
        pivot = line_line_intersection(n.a1, d11, n.a0, d00)
        if pivot is None:
            raise ConstructionFailure("parallel guide tangents in Zone IV")
        pts["guideTangency"] = t11
        return ZoneLabel("IV", tag), pivot, pts
    raise ClassificationFailure(
        "second placement escapes every Case-3 zone")


# ---------------------------------------------------------------------------
# routes and motion assembly


def _route(p0: Point, p1: Point, c: Circle, direction: str, eps: float):
    """Shortest path from p0 to p1 outside the open disc of c, wrapping in
    `direction` when the straight segment is blocked."""
    if dist(p0, p1) == 0.0:
        return []
    tol = max(eps, 1e-12 * c.radius)
    for q in (p0, p1):
        if dist(q, c.center) < c.radius - tol:
            raise InfeasibleEndpoint(
                f"route endpoint {q} lies inside the blocking circle")
    if distance_point_segment(c.center, p0, p1) >= c.radius - tol:
        return [Segment(p0, p1)]
    t_in = tangent_points(p0, c, eps)
    t_out = tangent_points(p1, c, eps)
    if direction == "ccw":
        entry, leave = t_in[0], t_out[-1]
    else:
        entry, leave = t_in[-1], t_out[0]
    prims = []
    if dist(p0, entry) > 0.0:
        prims.append(Segment(p0, entry))
    arc = Arc(c.center, c.radius, angle_of(entry - c.center),
              angle_of(leave - c.center), direction)
    if arc.length > 0.0:
        prims.append(arc)
    if dist(leave, p1) > 0.0:
        prims.append(Segment(leave, p1))
    return prims


def shortest_path_avoiding_disc(p0: Point, p1: Point, c: Circle,
                                side: str = "auto") -> Trajectory:
    """Straight segment when possible, else tangent-arc-tangent around c.

    side "auto" takes the shorter wrap; "above"/"below" select by the
    y-coordinate of the wrap's arc midpoint.  An endpoint strictly inside
    the circle is infeasible.
    """
    scale = max(c.radius, dist(p0, c.center), dist(p1, c.center), 1.0)
    eps = 1e-9 * scale
    ccw_route = _route(p0, p1, c, "ccw", eps)
    if not any(isinstance(pr, Arc) for pr in ccw_route):
        return Trajectory(tuple(ccw_route))
    cw_route = _route(p0, p1, c, "cw", eps)
    if side == "auto":
        len_ccw = sum(pr.length for pr in ccw_route)
        len_cw = sum(pr.length for pr in cw_route)
        pick = ccw_route if len_ccw <= len_cw else cw_route
        return Trajectory(tuple(pick))
    if side not in ("above", "below"):
        raise ValueError(f"unknown side {side!r}")

    def wrap_mid_y(prims):
        for pr in prims:
            if isinstance(pr, Arc):
                return pr.point_at(0.5).y
        return 0.5 * (p0.y + p1.y)

    routes = sorted((ccw_route, cw_route), key=wrap_mid_y)
    return Trajectory(tuple(routes[1] if side == "above" else routes[0]))


def build_generic_motion(inst: Instance, pivot: Point,
                         trace: Optional[ConstructionTrace] = None) -> Motion:
    """Counter-clockwise three-leg motion through the pivot, in the
    instance's own frame: A wraps the first circle to the pivot, B passes
    under the pivot circle, A wraps the second circle to its goal.  Legs
    that vanish are omitted.  The trace argument is accepted for interface
    symmetry; the route needs only the pivot."""
    del trace
    s, eps = inst.s, inst.eps
    try:
        leg1 = _route(inst.a0, pivot, Circle(inst.b0, s), "ccw", eps)
        leg2 = _route(inst.b0, inst.b1, Circle(pivot, s), "ccw", eps)
        leg3 = _route(pivot, inst.a1, Circle(inst.b1, s), "ccw", eps)
    except (InfeasibleEndpoint, PointInsideCircle) as exc:
        raise ConstructionFailure(
            f"leg through pivot {pivot} is infeasible: {exc}") from exc
    phases = []
    if leg1:
        phases.append(Phase("A", 0, len(leg1)))
    if leg2:
        phases.append(Phase("B", 0, len(leg2)))
    if leg3:
        phases.append(Phase("A", len(leg1), len(leg1) + len(leg3)))
    return Motion(Trajectory(tuple(leg1 + leg3)), Trajectory(tuple(leg2)),
                  tuple(phases), "ccw", inst.p0, inst.p1)


def _case1_motion(n: Instance, b_first: bool) -> Motion:
    seg_a = [Segment(n.a0, n.a1)] if dist(n.a0, n.a1) > 0.0 else []
    seg_b = [Segment(n.b0, n.b1)] if dist(n.b0, n.b1) > 0.0 else []
    pa = Phase("A", 0, len(seg_a)) if seg_a else None
    pb = Phase("B", 0, len(seg_b)) if seg_b else None
    order = (pb, pa) if b_first else (pa, pb)
    phases = tuple(ph for ph in order if ph is not None)
    return Motion(Trajectory(tuple(seg_a)), Trajectory(tuple(seg_b)),
                  phases, "straight", n.p0, n.p1)


# ---------------------------------------------------------------------------
# candidate assembly and the driver


def _case2_family(n: Instance):
    """One Case-2a construction family in its own normalized frame."""
    zone, pivot, pts = _case2_zones(n)
    if pivot is None:
        raise ForcedClockwiseSignal(
            f"zone {zone.zone} subcase {zone.subcase} is clockwise-only")
    pts["pivot"] = pivot
    return build_generic_motion(n, pivot), zone, pts


def _ccw_candidate(n: Instance, depth: int = 0):
    """(motion, zone, points) for the counter-clockwise candidate of a
    normalized instance.  Raises ForcedClockwiseSignal when no such
    candidate exists and ClassificationFailure when the machinery cannot
    place the instance."""
    if depth > 2:
        raise ClassificationFailure("symmetry reduction did not terminate")
    c1, c2, c3, c4 = _memberships(n)
    case = _classify(c1, c2, c3, c4)
    if case in ("Case1a", "Case1b"):
        raise ClassificationFailure(f"{case} reached the pivot machinery")
    if c1 and c2 and forced_clockwise(n):
        raise ForcedClockwiseSignal(
            "tangent gap rules out a counter-clockwise sweep")
    if case == "Case2a":
        # the generic form admits an exchange of the robots' roles: the
        # same instance also supports parking the second robot mid-route
        # while the first one crosses; build both and keep the shorter
        tries = []
        errs = []
        try:
            tries.append(_case2_family(n))
        except (ForcedClockwiseSignal, ClassificationFailure,
                ConstructionFailure) as exc:
            errs.append(exc)
        swapped = Instance(n.s, Placement(n.b0, n.a0),
                           Placement(n.b1, n.a1))
        fsw, sw_n = normalize(swapped)
        try:
            sub_m, zone, sub_pts = _case2_family(sw_n)
            m = swap_roles(transform_motion(sub_m, fsw))
            pts = {k: fsw.apply(v) for k, v in sub_pts.items()}
            tries.append((m, zone, pts))
        except (ForcedClockwiseSignal, ClassificationFailure,
                ConstructionFailure) as exc:
            errs.append(exc)
        if not tries:
            for exc in errs:
                if isinstance(exc, ForcedClockwiseSignal):
                    raise exc
            raise errs[0]
        return min(tries, key=lambda item: item[0].length)
    if case == "Case3a":
        zone, pivot, pts = _case3_zones(n)
        pts["pivot"] = pivot
        return build_generic_motion(n, pivot), zone, pts
    if case == "Case2b":
        # time reversal swaps the placements and the sweep orientation
        rev = Instance(n.s, n.p1, n.p0)
        f2, rev_n = normalize(rev)
        sub_m, zone, sub_pts = _ccw_candidate(reflect_instance(rev_n),
                                              depth + 1)
        m = reverse_motion(transform_motion(reflect_motion(sub_m), f2))
        pts = {k: f2.apply(reflect_point(v)) for k, v in sub_pts.items()}
        return m, zone, pts
    # Case3b: swap the robots' roles; the placement angle shifts by pi, so
    # the orientation survives the swap
    swapped = Instance(n.s, Placement(n.b0, n.a0), Placement(n.b1, n.a1))
    f3, sw_n = normalize(swapped)
    sub_m, zone, sub_pts = _ccw_candidate(sw_n, depth + 1)
    m = swap_roles(transform_motion(sub_m, f3))
    pts = {k: f3.apply(v) for k, v in sub_pts.items()}
    return m, zone, pts


def classify_zone_case2(inst: Instance) -> ZoneLabel:
    """Zone of the second A placement for a Case-2a instance."""
    _, n = normalize(inst)
    zone, _, _ = _case2_zones(n)
    return zone


def compute_pivot_case2(inst: Instance, zone: ZoneLabel):
    """(pivot, trace) for a Case-2a instance, in the caller's coordinates.

    The zone argument is a handshake: it must match the classification.
    The clockwise-only subcases carry no pivot and raise the forced signal.
    """
    frame, n = normalize(inst)
    actual, pivot, pts = _case2_zones(n)
    if actual.zone != zone.zone:
        raise ClassificationFailure(
            f"instance classifies as zone {actual.zone}, not {zone.zone}")
    if pivot is None:
        raise ForcedClockwiseSignal(
            "this zone subcase admits no counter-clockwise pivot")
    pts["pivot"] = pivot
    trace = ConstructionTrace(points=tuple(
        (k, frame.apply(v)) for k, v in pts.items()))
    return frame.apply(pivot), trace


def classify_zone_case3(inst: Instance):
    """(zone, pivot, trace) for a Case-3a instance, in the caller's
    coordinates.  Clockwise-only situations raise the forced signal."""
    frame, n = normalize(inst)
    zone, pivot, pts = _case3_zones(n)
    pts["pivot"] = pivot
    trace = ConstructionTrace(points=tuple(
        (k, frame.apply(v)) for k, v in pts.items()))
    return zone, frame.apply(pivot), trace


compute_pivot_case3 = classify_zone_case3


def _arc_spans(m: Motion):
    spans = []
    names_a = iter(("departFirstCircle", "approachSecondCircle"))
    for pr in m.traj_a.primitives:
        if isinstance(pr, Arc):
            spans.append((next(names_a, "extraArc"),
                          (pr.start_angle, pr.end_angle)))
    for pr in m.traj_b.primitives:
        if isinstance(pr, Arc):
            spans.append(("carryAroundPivot",
                          (pr.start_angle, pr.end_angle)))
    return tuple(spans)


def plan(inst: Instance) -> PlanReport:
    """Shortest collision-free coordinated motion for the instance.

    Case 1 ships two straight segments in the safe order.  Everything else
    builds the counter-clockwise candidate (unless forced clockwise) and
    the clockwise candidate, keeps the shorter (ties go counter-clockwise),
    and verifies each constructed length against the support bound.
    """
    frame, n = normalize(inst)
    bound = optimal_length_bound(n)
    tol = 1e-6 * max(1.0, abs(bound.min))
    c1, c2, c3, c4 = _memberships(n)
    case = _classify(c1, c2, c3, c4)
    forced = False
    zone = None
    pts: dict = {}
    ccw_n = cw_n = None
    straight = case in ("Case1a", "Case1b")
    if straight:
        # in the caller's frame: the segments join the input placements
        chosen_n = _case1_motion(inst, b_first=(case == "Case1a"))
    else:
        zone_ccw = zone_cw = None
        pts_ccw: dict = {}
        pts_cw: dict = {}
        ccw_err = cw_err = None
        try:
            ccw_n, zone_ccw, pts_ccw = _ccw_candidate(n)
        except (ForcedClockwiseSignal, ClassificationFailure) as exc:
            ccw_err = exc
        try:
            sub_m, zone_cw, rpts = _ccw_candidate(reflect_instance(n))
            cw_n = reflect_motion(sub_m)
            pts_cw = {k: reflect_point(v) for k, v in rpts.items()}
        except (ForcedClockwiseSignal, ClassificationFailure) as exc:
            cw_err = exc
        # a candidate only counts if it attains its side of the support
        # bound; a miss means the construction took a wrong branch for
        # this orientation and the other side must carry the proof
        if ccw_n is not None and abs(ccw_n.length - bound.ccw) > tol:
            ccw_err = OptimalityCheckFailure(
                f"ccw candidate length {ccw_n.length} misses {bound.ccw}")
            ccw_n = None
        if cw_n is not None and abs(cw_n.length - bound.cw) > tol:
            cw_err = OptimalityCheckFailure(
                f"cw candidate length {cw_n.length} misses {bound.cw}")
            cw_n = None
        if ccw_n is None and cw_n is None:
            raise ConstructionFailure(
                "no candidate motion survives its length certificate "
                f"(ccw: {ccw_err}; cw: {cw_err})")
        if ccw_n is not None and (cw_n is None
                                  or ccw_n.length <= cw_n.length):
            chosen_n, zone, pts = ccw_n, zone_ccw, pts_ccw
        else:
            chosen_n, zone, pts = cw_n, zone_cw, pts_cw
        forced = (ccw_n is None and cw_n is not None
                  and bound.cw < bound.ccw - tol)

    if abs(chosen_n.length - bound.min) > tol:
        raise OptimalityCheckFailure(
            f"chosen length {chosen_n.length} does not certify against "
            f"{bound.min}")

    chosen = chosen_n if straight else transform_motion(chosen_n, frame)
    trace = ConstructionTrace(
        points=tuple((k, frame.apply(v)) for k, v in pts.items()),
        spans=_arc_spans(chosen))
    lengths = (None if ccw_n is None else ccw_n.length,
               None if cw_n is None else cw_n.length,
               chosen_n.length)
    return PlanReport(
        case=case, zone=zone, forced_clockwise=forced,
        ccw_motion=None if ccw_n is None else transform_motion(ccw_n, frame),
        cw_motion=None if cw_n is None else transform_motion(cw_n, frame),
        chosen=chosen, lengths=lengths, bound=bound, trace=trace,
        frame=frame)
