"""Support functions of the two centre segments and the optimal-length
integral, evaluated both in closed form and by Gauss-Legendre quadrature.

The key quantity is the paired support value at angle theta: the support of
segment A0A1 in direction theta plus the support of segment B0B1 in the
opposite direction.  Integrating max(pair, s) over the swept interval and
the raw pair elsewhere, then subtracting both chord lengths, gives the
length bound for one orientation.  By Cauchy's formula the pair support
integrates to twice the chords over a full turn, so the closed form is the
chords plus the lift, (s - pair)+ integrated over the swept interval from
the sinusoid of the endpoint pair attaining both supports (`_active_pair`).
The quadrature twin integrates the full turn, so it also checks that step,
and never uses the active pair: it evaluates `pair_support` at every node
and finds its own kinks, so a wrong pair moves the closed form, not it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedAngle
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


@dataclass(frozen=True)
class LengthBound:
    ccw: float
    cw: float
    chosen: str

    @property
    def min(self) -> float:
        return self.ccw if self.chosen == "ccw" else self.cw


def segment_support(e0: Point, e1: Point, theta):
    """Support value of the segment hull in direction theta (a float or an
    array of angles)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.maximum(e0.x * c + e0.y * s, e1.x * c + e1.y * s)


def pair_support(ev: SupportEvaluator, theta):
    """Support of A's segment at theta plus B's at theta + pi (a float or
    an array of angles)."""
    return (segment_support(ev.a0, ev.a1, theta)
            + segment_support(ev.b0, ev.b1, theta + math.pi))


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
    return _sweep(inst.a0, inst.b0, inst.a1, inst.b1, inst.s)


def _sweep(a0: Point, b0: Point, a1: Point, b1: Point,
           s: float) -> AngleInterval:
    start = placement_angle(Placement(a0, b0))
    end = placement_angle(Placement(a1, b1))
    scale = max(map(abs, (*a0, *b0, *a1, *b1)))
    tol = 1e-13 * (1.0 + scale / s)
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


def _arcs(ev: SupportEvaluator, interval: AngleInterval):
    """Arcs (lo, hi) between consecutive breakpoints, covering one turn.
    On each, both active endpoints and membership in the interval are
    constant, so pair_support is one sinusoid r . u(theta)."""
    base = _breakpoints(ev, interval)
    return list(zip(base, base[1:] + [base[0] + TWO_PI]))


def _floor_cuts(lo: float, hi: float, rel: Point, s: float):
    """[lo, hi] split where the sinusoid rel . u(theta) crosses s."""
    cuts = [lo, hi]
    r = math.hypot(rel.x, rel.y)
    if r >= s and r > 0.0:
        phi = angle_of(rel)
        alpha = math.acos(min(1.0, s / r))
        for cand in (phi - alpha, phi + alpha):
            c = lo + ((cand - lo) % TWO_PI)
            if lo + 1e-12 < c < hi - 1e-12:
                cuts.append(c)
    cuts.sort()
    return cuts


def closed_form_bound(ev: SupportEvaluator, s: float,
                      interval: AngleInterval) -> float:
    """Exact length bound of one orientation: the two chord lengths plus
    the lift, the integral of (s - pair)+ over the interval, added on each
    arc inside it wherever the active pair's sinusoid is below s."""
    total = dist(ev.a0, ev.a1) + dist(ev.b0, ev.b1)
    if interval.measure() == 0.0:
        return total
    for lo, hi in _arcs(ev, interval):
        mid = 0.5 * (lo + hi)
        if not interval.contains(mid % TWO_PI):
            continue
        a, b = _active_pair(ev, mid)
        rel = a - b
        r = math.hypot(rel.x, rel.y)
        phi = angle_of(rel) if r > 0.0 else 0.0
        cuts = _floor_cuts(lo, hi, rel, s)
        for c0, c1 in zip(cuts, cuts[1:]):
            if r * math.cos(0.5 * (c0 + c1) - phi) < s:
                total += s * (c1 - c0) - r * (math.sin(c1 - phi)
                                              - math.sin(c0 - phi))
    return total


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _sampled_rel(ev: SupportEvaluator, lo: float, hi: float) -> Point:
    """The vector r with pair_support = r . u(theta) on an arc free of
    breakpoints, solved from two samples of pair_support itself."""
    t1, t2 = lo + (hi - lo) / 3.0, lo + 2.0 * (hi - lo) / 3.0
    h1, h2 = pair_support(ev, np.array([t1, t2]))
    det = math.sin(t2 - t1)
    return Point((h1 * math.sin(t2) - h2 * math.sin(t1)) / det,
                 (h2 * math.cos(t1) - h1 * math.cos(t2)) / det)


def quadrature_bound(ev: SupportEvaluator, s: float,
                     interval: AngleInterval) -> float:
    """Independent evaluation of the same integral: a 16-node
    Gauss-Legendre rule on each smooth piece, every node of every piece
    evaluated from the segment endpoints in one pass.  The pieces split at
    the breakpoints and, inside the interval, where the sampled sinusoid
    crosses s, so the integrand is analytic on each."""
    lo, hi, floor = [], [], []
    for t0, t1 in _arcs(ev, interval):
        inside = interval.contains(0.5 * (t0 + t1) % TWO_PI)
        cuts = (_floor_cuts(t0, t1, _sampled_rel(ev, t0, t1), s)
                if inside else [t0, t1])
        lo += cuts[:-1]
        hi += cuts[1:]
        floor += [inside] * (len(cuts) - 1)
    lo, hi = np.array(lo), np.array(hi)
    half = 0.5 * (hi - lo)
    theta = (lo + half)[:, None] + half[:, None] * _GL_NODES
    h = pair_support(ev, theta)
    f = np.where(np.array(floor)[:, None], np.maximum(h, s), h)
    total = float(half @ (f @ _GL_WEIGHTS))
    return total - dist(ev.a0, ev.a1) - dist(ev.b0, ev.b1)


def evaluator_for(inst: Instance) -> SupportEvaluator:
    return SupportEvaluator(inst.a0, inst.a1, inst.b0, inst.b1)


def optimal_length_bound(inst: Instance) -> LengthBound:
    """Minimum motion length per sweep orientation, from the support
    integral.  The clockwise bound is the counter-clockwise bound of the
    instance mirrored by y -> -y, built from the mirrored points directly;
    an instance symmetric about the x-axis thus ties exactly."""
    s = inst.s
    ccw = closed_form_bound(evaluator_for(inst), s, swept_interval(inst))
    a0, b0, a1, b1 = (Point(p.x, 0.0 - p.y)
                      for p in (inst.a0, inst.b0, inst.a1, inst.b1))
    cw = closed_form_bound(SupportEvaluator(a0, a1, b0, b1), s,
                           _sweep(a0, b0, a1, b1, s))
    chosen = "ccw" if ccw <= cw else "cw"
    return LengthBound(ccw=ccw, cw=cw, chosen=chosen)
