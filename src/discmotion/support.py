"""Support functions of the two centre segments and the optimal-length
integral, evaluated both in closed form and by adaptive quadrature.

The key quantity is the paired support value at angle theta: the support of
segment A0A1 in direction theta plus the support of segment B0B1 in the
opposite direction.  Integrating max(pair, s) over the swept interval and
the raw pair elsewhere, then subtracting both chord lengths, gives the
length bound for one orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import QuadratureFailure, UndefinedAngle
from .geom import TWO_PI, Instance, Placement, Point, angle_of, dist, dot, unit_vector


@dataclass(frozen=True)
class AngleInterval:
    """Counter-clockwise arc of directions from start to end (wrapping)."""

    start: float
    end: float
    full: bool = False

    def measure(self) -> float:
        if self.full:
            return TWO_PI
        return (self.end - self.start) % TWO_PI

    def contains(self, theta: float) -> bool:
        if self.full:
            return True
        return (theta - self.start) % TWO_PI <= self.measure()

    def complement(self) -> "AngleInterval":
        if self.full:
            return AngleInterval(self.start, self.start)
        if self.measure() == 0.0:
            return AngleInterval(self.end, self.start, full=True)
        return AngleInterval(self.end, self.start)

    def reversed_sweep(self) -> "AngleInterval":
        """Ccw interval from end back to start.  Equals the complement except
        in the degenerate measure-0 case, where it stays degenerate; the
        clockwise orientation of an identical-placement instance sweeps
        nothing, not everything."""
        return AngleInterval(self.end, self.start)


@dataclass(frozen=True)
class SupportEvaluator:
    a0: Point
    a1: Point
    b0: Point
    b1: Point

    def support_a(self, theta: float) -> float:
        return segment_support(self.a0, self.a1, theta)

    def support_b(self, theta: float) -> float:
        return segment_support(self.b0, self.b1, theta)


@dataclass(frozen=True)
class LengthBound:
    ccw: float
    cw: float
    chosen: str

    @property
    def min(self) -> float:
        return self.ccw if self.chosen == "ccw" else self.cw


def segment_support(e0: Point, e1: Point, theta: float) -> float:
    """Support value of the segment hull in direction theta."""
    u = unit_vector(theta)
    return max(dot(e0, u), dot(e1, u))


def pair_support(ev: SupportEvaluator, theta: float) -> float:
    """Support of A's segment at theta plus B's at theta + pi."""
    return ev.support_a(theta) + ev.support_b(theta + math.pi)


def placement_angle(p: Placement) -> float:
    """Angle of the vector from B's centre to A's centre, in [0, 2pi)."""
    v = p.a - p.b
    if v.x == 0.0 and v.y == 0.0:
        raise UndefinedAngle("coincident centres have no placement angle")
    return angle_of(v)


def swept_interval(inst: Instance) -> AngleInterval:
    """Ccw interval from the start placement angle to the goal's; angles
    that agree within the roundoff of the coordinates give the degenerate
    interval, never a full turn."""
    start, end = placement_angle(inst.p0), placement_angle(inst.p1)
    scale = max(abs(c) for p in (inst.a0, inst.b0, inst.a1, inst.b1)
                for c in p)
    tol = 1e-13 * (1.0 + scale / inst.s)
    if min((end - start) % TWO_PI, (start - end) % TWO_PI) <= tol:
        return AngleInterval(start, start)
    return AngleInterval(start, end)


def integrand(ev: SupportEvaluator, s: float, interval: AngleInterval,
              theta: float) -> float:
    h = pair_support(ev, theta)
    if interval.contains(theta % TWO_PI):
        return max(h, s)
    return h


def _active_pair(ev: SupportEvaluator, theta: float):
    """Endpoints attaining the two supports at theta (A at theta, B at
    theta + pi)."""
    u = unit_vector(theta)
    a = ev.a0 if dot(ev.a0, u) >= dot(ev.a1, u) else ev.a1
    b = ev.b0 if dot(ev.b0, u) <= dot(ev.b1, u) else ev.b1
    return a, b


def _switch_angles(e0: Point, e1: Point):
    """Angles where the active endpoint of a segment changes."""
    d = e0 - e1
    if d.x == 0.0 and d.y == 0.0:
        return []
    base = angle_of(Point(-d.y, d.x))
    return [base % TWO_PI, (base + math.pi) % TWO_PI]


def _breakpoints(ev: SupportEvaluator, interval: AngleInterval):
    pts = [0.0]
    pts += _switch_angles(ev.a0, ev.a1)
    pts += _switch_angles(ev.b0, ev.b1)
    if not interval.full:
        pts.append(interval.start % TWO_PI)
        pts.append(interval.end % TWO_PI)
    pts.sort()
    merged = []
    for t in pts:
        if not merged or t - merged[-1] > 1e-12:
            merged.append(t)
    if merged and TWO_PI - merged[-1] <= 1e-12:
        merged.pop()
    return merged


def _piece_angles(ev: SupportEvaluator, s: float, interval: AngleInterval):
    """Integration pieces: breakpoints plus crossings pair_support = s."""
    base = _breakpoints(ev, interval)
    pieces = []
    n = len(base)
    for i in range(n):
        lo = base[i]
        hi = base[(i + 1) % n] if i + 1 < n else base[0] + TWO_PI
        if hi <= lo:
            hi += TWO_PI
        mid = 0.5 * (lo + hi)
        a, b = _active_pair(ev, mid)
        rel = a - b
        r = math.hypot(rel.x, rel.y)
        inside = interval.contains(mid % TWO_PI)
        cuts = [lo, hi]
        if inside and r >= s and r > 0.0:
            phi = angle_of(rel)
            alpha = math.acos(min(1.0, s / r))
            for cand in (phi - alpha, phi + alpha):
                c = lo + ((cand - lo) % TWO_PI)
                if lo + 1e-12 < c < hi - 1e-12:
                    cuts.append(c)
        cuts.sort()
        for j in range(len(cuts) - 1):
            pieces.append((cuts[j], cuts[j + 1], a, b, inside))
    return pieces


def closed_form_bound(ev: SupportEvaluator, s: float,
                      interval: AngleInterval) -> float:
    """Exact value of the orientation integral minus both chord lengths."""
    total = 0.0
    for lo, hi, a, b, inside in _piece_angles(ev, s, interval):
        rel = a - b
        r = math.hypot(rel.x, rel.y)
        if inside:
            mid = 0.5 * (lo + hi)
            h_mid = r * math.cos(mid - angle_of(rel)) if r > 0.0 else 0.0
            if h_mid < s:
                total += s * (hi - lo)
                continue
        if r > 0.0:
            phi = angle_of(rel)
            total += r * (math.sin(hi - phi) - math.sin(lo - phi))
    return total - dist(ev.a0, ev.a1) - dist(ev.b0, ev.b1)


def _adaptive_simpson(f, lo, hi, tol, depth):
    mid = 0.5 * (lo + hi)
    flo, fmid, fhi = f(lo), f(mid), f(hi)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        if depth > 60:
            raise QuadratureFailure("adaptive quadrature exceeded max depth")
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, m, fa, flm, fm, left, tol / 2.0, depth + 1)
                + recurse(m, b, fm, frm, fb, right, tol / 2.0, depth + 1))

    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    return recurse(lo, hi, flo, fmid, fhi, whole, tol, depth)


def quadrature_bound(ev: SupportEvaluator, s: float, interval: AngleInterval,
                     tol: float = 1e-10) -> float:
    """Independent evaluation of the same integral by adaptive Simpson,
    seeded at every analytic breakpoint."""
    pieces = _piece_angles(ev, s, interval)
    if not pieces:
        return -dist(ev.a0, ev.a1) - dist(ev.b0, ev.b1)
    total = 0.0
    per_piece = tol / len(pieces)
    for lo, hi, _a, _b, inside in pieces:
        if hi - lo <= 0.0:
            continue
        if inside:
            f = lambda t: max(pair_support(ev, t), s)
        else:
            f = lambda t: pair_support(ev, t)
        total += _adaptive_simpson(f, lo, hi, per_piece, 0)
    return total - dist(ev.a0, ev.a1) - dist(ev.b0, ev.b1)


def evaluator_for(inst: Instance) -> SupportEvaluator:
    return SupportEvaluator(inst.a0, inst.a1, inst.b0, inst.b1)


def optimal_length_bound(inst: Instance) -> LengthBound:
    """Minimum motion length per sweep orientation, from the support
    integral."""
    ev = evaluator_for(inst)
    fwd = swept_interval(inst)
    ccw = closed_form_bound(ev, inst.s, fwd)
    cw = closed_form_bound(ev, inst.s, fwd.reversed_sweep())
    chosen = "ccw" if ccw <= cw else "cw"
    return LengthBound(ccw=ccw, cw=cw, chosen=chosen)
