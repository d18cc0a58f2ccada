"""Trajectories, decoupled and coupled schedules, and motion queries.

A motion is a pair of per-robot trajectories plus a schedule.  Decoupled
schedules move one robot per phase; coupled schedules advance both along
their trajectories simultaneously, and are produced by couple(), which
keeps the trajectories and moves both robots together across every
reversal window of the placement-angle profile.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import CouplingFailure
from .geom import (TWO_PI, Frame, Placement, Point, angle_of, cross, dist,
                   distance_point_segment, dot, norm, perp, rotate,
                   unit_vector)
from .support import placement_angle


@dataclass(frozen=True)
class Segment:
    start: Point
    end: Point

    kind = "segment"

    @cached_property
    def length(self) -> float:
        return dist(self.start, self.end)

    def point_at(self, u: float) -> Point:
        return self.start + (self.end - self.start) * u

    def reversed(self) -> "Segment":
        return Segment(self.end, self.start)


def _ccw_sweep(start_angle: float, end_angle: float) -> float:
    s = (end_angle - start_angle) % TWO_PI
    # a numerically-full circle is a degenerate zero arc, never a loop
    if s > TWO_PI - 1e-9:
        return 0.0
    return s


@dataclass(frozen=True)
class Arc:
    center: Point
    radius: float
    start_angle: float
    end_angle: float
    direction: str  # "ccw" | "cw"

    kind = "arc"

    @cached_property
    def sweep(self) -> float:
        if self.direction == "ccw":
            return _ccw_sweep(self.start_angle, self.end_angle)
        return _ccw_sweep(self.end_angle, self.start_angle)

    @cached_property
    def length(self) -> float:
        return self.radius * self.sweep

    def angle_at(self, u: float) -> float:
        if self.direction == "ccw":
            return self.start_angle + self.sweep * u
        return self.start_angle - self.sweep * u

    def point_at(self, u: float) -> Point:
        return self.center + self.radius * unit_vector(self.angle_at(u))

    @property
    def start(self) -> Point:
        return self.point_at(0.0)

    @property
    def end(self) -> Point:
        return self.point_at(1.0)

    def reversed(self) -> "Arc":
        flip = "cw" if self.direction == "ccw" else "ccw"
        return Arc(self.center, self.radius, self.end_angle,
                   self.start_angle, flip)


Primitive = Union[Segment, Arc]


@dataclass(frozen=True)
class Trajectory:
    primitives: tuple

    def __post_init__(self):
        prev = None
        for p in self.primitives:
            if prev is not None:
                gap = dist(prev, p.start)
                scale = 1.0 + max(abs(prev.x), abs(prev.y))
                if gap > 1e-9 * scale:
                    raise ValueError(f"discontinuous trajectory (gap {gap})")
            prev = p.end

    @cached_property
    def cumulative(self) -> tuple:
        acc, out = 0.0, [0.0]
        for p in self.primitives:
            acc += p.length
            out.append(acc)
        return tuple(out)

    @property
    def length(self) -> float:
        return self.cumulative[-1]

    def point_at(self, arclen: float) -> Point:
        cum = self.cumulative
        if not self.primitives:
            raise ValueError("empty trajectory has no points")
        s = min(max(arclen, 0.0), cum[-1])
        i = bisect.bisect_right(cum, s) - 1
        i = min(i, len(self.primitives) - 1)
        p = self.primitives[i]
        span = cum[i + 1] - cum[i]
        u = (s - cum[i]) / span if span > 0.0 else 0.0
        return p.point_at(u)

    def slice(self, lo: float, hi: float):
        """Primitives covering the arc-length range [lo, hi], with partial
        pieces cut exactly; zero-length slivers are dropped."""
        cum = self.cumulative
        out = []
        tol = 1e-12 * (1.0 + cum[-1])
        for i, p in enumerate(self.primitives):
            a, b = cum[i], cum[i + 1]
            s0, s1 = max(a, lo), min(b, hi)
            if s1 - s0 <= tol:
                continue
            if s1 - s0 >= (b - a) - tol:
                out.append(p)
                continue
            u0 = (s0 - a) / (b - a)
            u1 = (s1 - a) / (b - a)
            if isinstance(p, Segment):
                out.append(Segment(p.point_at(u0), p.point_at(u1)))
            else:
                out.append(Arc(p.center, p.radius, p.angle_at(u0) % TWO_PI,
                               p.angle_at(u1) % TWO_PI, p.direction))
        return out


class Phase(NamedTuple):
    robot: str  # "A" | "B"
    start: int  # first primitive index in that robot's trajectory
    stop: int   # one past the last


class JointItem(NamedTuple):
    a_lo: float
    a_hi: float
    b_lo: float
    b_hi: float

    @property
    def duration(self) -> float:
        return (self.a_hi - self.a_lo) + (self.b_hi - self.b_lo)


@dataclass(frozen=True)
class Motion:
    traj_a: Trajectory
    traj_b: Trajectory
    schedule: tuple  # of Phase (decoupled) or JointItem (coupled)
    orientation: str  # "ccw" | "cw" | "straight"
    start: Placement
    end: Placement

    @property
    def is_coupled(self) -> bool:
        return bool(self.schedule) and isinstance(self.schedule[0], JointItem)

    @property
    def length(self) -> float:
        return self.traj_a.length + self.traj_b.length


def _phase_windows(m: Motion):
    """Decoupled phase spans: (s_lo, s_hi, robot, robot_arclen_lo)."""
    out = []
    s = 0.0
    consumed = {"A": 0.0, "B": 0.0}
    for ph in m.schedule:
        traj = m.traj_a if ph.robot == "A" else m.traj_b
        cum = traj.cumulative
        span = cum[ph.stop] - cum[ph.start]
        out.append((s, s + span, ph.robot, consumed[ph.robot]))
        consumed[ph.robot] += span
        s += span
    return out


def _item_windows(m: Motion):
    out = []
    s = 0.0
    for it in m.schedule:
        out.append((s, s + it.duration, it))
        s += it.duration
    return out


def _positions_at(m: Motion, s: float) -> Placement:
    if not m.schedule:
        return m.start
    if m.is_coupled:
        for lo, hi, it in _item_windows(m):
            if s <= hi or it is m.schedule[-1]:
                f = (s - lo) / (hi - lo) if hi > lo else 1.0
                f = min(max(f, 0.0), 1.0)
                a = m.traj_a.point_at(it.a_lo + f * (it.a_hi - it.a_lo)) \
                    if m.traj_a.primitives else m.start.a
                b = m.traj_b.point_at(it.b_lo + f * (it.b_hi - it.b_lo)) \
                    if m.traj_b.primitives else m.start.b
                return Placement(a, b)
    a_len, b_len = 0.0, 0.0
    for lo, hi, robot, base in _phase_windows(m):
        if s >= hi:
            if robot == "A":
                a_len = base + (hi - lo)
            else:
                b_len = base + (hi - lo)
            continue
        if robot == "A":
            a_len = base + (s - lo)
        else:
            b_len = base + (s - lo)
        break
    a = m.traj_a.point_at(a_len) if m.traj_a.primitives else m.start.a
    b = m.traj_b.point_at(b_len) if m.traj_b.primitives else m.start.b
    return Placement(a, b)


def sample(m: Motion, t: float) -> Placement:
    """Placement at normalized arc-length parameter t in [0, 1]."""
    if t <= 0.0:
        return m.start
    if t >= 1.0:
        return m.end
    total = m.length
    if total == 0.0:
        return m.start
    return _positions_at(m, t * total)


def _point_to_primitive_min(p: Point, prim: Primitive) -> float:
    if isinstance(prim, Segment):
        d = prim.end - prim.start
        dd = dot(d, d)
        if dd == 0.0:
            return dist(p, prim.start)
        u = dot(p - prim.start, d) / dd
        u = min(max(u, 0.0), 1.0)
        return dist(p, prim.point_at(u))
    v = p - prim.center
    dc = norm(v)
    best = min(dist(p, prim.start), dist(p, prim.end))
    if dc > 0.0 and prim.sweep > 0.0:
        ang = angle_of(v)
        if prim.direction == "ccw":
            rel = (ang - prim.start_angle) % TWO_PI
        else:
            rel = (prim.start_angle - ang) % TWO_PI
        if rel <= prim.sweep:
            best = min(best, abs(dc - prim.radius))
    return best


def min_separation(m: Motion) -> float:
    """Exact minimum centre separation over the motion."""
    best = min(dist(m.start.a, m.start.b), dist(m.end.a, m.end.b))
    if not m.schedule:
        return best
    if not m.is_coupled:
        for lo, hi, robot, base in _phase_windows(m):
            here = _positions_at(m, lo)
            static = here.b if robot == "A" else here.a
            traj = m.traj_a if robot == "A" else m.traj_b
            for prim in traj.slice(base, base + (hi - lo)):
                best = min(best, _point_to_primitive_min(static, prim))
        return best
    for lo, hi, it in _item_windows(m):
        p_lo = _positions_at(m, lo)
        p_hi = _positions_at(m, hi)
        a_span = it.a_hi - it.a_lo
        b_span = it.b_hi - it.b_lo
        if a_span > 0.0 and b_span > 0.0:
            # both paths are straight, so the relative vector is linear
            best = min(best, distance_point_segment(
                Point(0.0, 0.0), p_lo.a - p_lo.b, p_hi.a - p_hi.b))
            continue
        if a_span > 0.0:
            static, traj, rng = p_lo.b, m.traj_a, (it.a_lo, it.a_hi)
        elif b_span > 0.0:
            static, traj, rng = p_lo.a, m.traj_b, (it.b_lo, it.b_hi)
        else:
            continue
        for prim in traj.slice(*rng):
            best = min(best, _point_to_primitive_min(static, prim))
    return best


def min_separation_sampled(m: Motion, n: int = 4096) -> float:
    best = math.inf
    for i in range(n + 1):
        pl = sample(m, i / n)
        best = min(best, dist(pl.a, pl.b))
    return best


def _signed_angle(u: Point, v: Point) -> float:
    return math.atan2(cross(u, v), dot(u, v))


def _edge_list(tr: Trajectory, chord_start: Point, chord_end: Point):
    """Directed edges of the closed curve trace + chord, with internal
    turning for arcs."""
    scale = 1.0 + max((norm(p.end - p.start) for p in tr.primitives),
                      default=0.0)
    edges = []
    for p in tr.primitives:
        if isinstance(p, Segment):
            d = p.end - p.start
            if norm(d) > 1e-12 * scale:
                edges.append((d, d, 0.0))
        else:
            if p.sweep <= 1e-12:
                continue
            sgn = 1.0 if p.direction == "ccw" else -1.0
            din = perp(unit_vector(p.start_angle)) * sgn
            dout = perp(unit_vector(p.end_angle)) * sgn
            edges.append((din, dout, sgn * p.sweep))
    chord = chord_start - chord_end
    if norm(chord) > 1e-9 * scale:
        edges.append((chord, chord, 0.0))
    return edges


def is_trace_convex(tr: Trajectory, chord_start: Point,
                    chord_end: Point) -> bool:
    """Whether trace plus closing chord bounds a convex region: one-signed
    turning, total +-2pi (degenerate single-edge cases count as convex)."""
    edges = _edge_list(tr, chord_start, chord_end)
    if len(edges) <= 1:
        return True
    turns = [e[2] for e in edges if e[2] != 0.0]
    flips = []
    for i, (_, dout, _t) in enumerate(edges):
        din_next = edges[(i + 1) % len(edges)][0]
        ang = _signed_angle(dout, din_next)
        if abs(abs(ang) - math.pi) <= 1e-9:
            flips.append(ang)  # sign resolved by the majority below
        elif abs(ang) > 1e-9:
            turns.append(ang)
    majority = 1.0 if sum(turns) >= 0.0 else -1.0
    turns += [majority * math.pi for _ in flips]
    if not turns:
        return True
    sgn = 1.0 if turns[0] > 0.0 else -1.0
    if any(t * sgn < -1e-9 for t in turns):
        return False
    return abs(abs(sum(turns)) - TWO_PI) <= 1e-6


def _arclen_maps(m: Motion, s_values: np.ndarray):
    """A- and B-trajectory arc lengths consumed at each motion arc length."""
    if m.is_coupled:
        bounds, a_lo, a_hi, b_lo, b_hi = [0.0], [], [], [], []
        for lo, hi, it in _item_windows(m):
            bounds.append(hi)
            a_lo.append(it.a_lo)
            a_hi.append(it.a_hi)
            b_lo.append(it.b_lo)
            b_hi.append(it.b_hi)
        bounds = np.asarray(bounds)
        idx = np.clip(np.searchsorted(bounds, s_values, side="right") - 1,
                      0, len(m.schedule) - 1)
        width = bounds[idx + 1] - bounds[idx]
        f = np.where(width > 0.0, (s_values - bounds[idx]) / np.where(
            width > 0.0, width, 1.0), 1.0)
        f = np.clip(f, 0.0, 1.0)
        a_lo, a_hi = np.asarray(a_lo), np.asarray(a_hi)
        b_lo, b_hi = np.asarray(b_lo), np.asarray(b_hi)
        return (a_lo[idx] + f * (a_hi[idx] - a_lo[idx]),
                b_lo[idx] + f * (b_hi[idx] - b_lo[idx]))
    a_out = np.zeros_like(s_values)
    b_out = np.zeros_like(s_values)
    for lo, hi, robot, base in _phase_windows(m):
        span = hi - lo
        adv = np.clip(s_values - lo, 0.0, span)
        if robot == "A":
            a_out += adv
        else:
            b_out += adv
    return a_out, b_out


def _points_on_trajectory(tr: Trajectory, arclens: np.ndarray, fallback: Point):
    if not tr.primitives:
        return (np.full_like(arclens, fallback.x),
                np.full_like(arclens, fallback.y))
    cum = np.asarray(tr.cumulative)
    s = np.clip(arclens, 0.0, cum[-1])
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0,
                  len(tr.primitives) - 1)
    xs = np.empty_like(s)
    ys = np.empty_like(s)
    for i, prim in enumerate(tr.primitives):
        mask = idx == i
        if not mask.any():
            continue
        span = cum[i + 1] - cum[i]
        u = (s[mask] - cum[i]) / span if span > 0.0 else np.zeros(mask.sum())
        if isinstance(prim, Segment):
            xs[mask] = prim.start.x + (prim.end.x - prim.start.x) * u
            ys[mask] = prim.start.y + (prim.end.y - prim.start.y) * u
        else:
            sgn = 1.0 if prim.direction == "ccw" else -1.0
            ang = prim.start_angle + sgn * prim.sweep * u
            xs[mask] = prim.center.x + prim.radius * np.cos(ang)
            ys[mask] = prim.center.y + prim.radius * np.sin(ang)
    return xs, ys


def placement_angle_profile(m: Motion, n: int):
    """Placement angles at n uniform parameters, continuously unwrapped."""
    if n < 2:
        raise ValueError("profile needs at least two samples")
    total = m.length
    theta0 = placement_angle(m.start)
    if total == 0.0 or not m.schedule:
        return np.full(n, theta0)
    s_values = np.linspace(0.0, total, n)
    a_len, b_len = _arclen_maps(m, s_values)
    ax, ay = _points_on_trajectory(m.traj_a, a_len, m.start.a)
    bx, by = _points_on_trajectory(m.traj_b, b_len, m.start.b)
    raw = np.arctan2(ay - by, ax - bx)
    unwrapped = np.unwrap(raw)
    return unwrapped + (theta0 - unwrapped[0])


# ---------------------------------------------------------------------------
# coupling


class _Stretch(NamedTuple):
    s_lo: float
    s_hi: float
    theta_lo: float
    theta_hi: float
    robot: str
    prim: Primitive
    prim_u0: float  # fraction of prim at s_lo
    prim_u1: float
    static: Point


def _stretch_theta_delta(prim: Primitive, static: Point, moving_is_a: bool,
                         u0: float, u1: float) -> float:
    """Exact signed angle change of the placement angle along one primitive
    portion, one robot moving."""
    p0, p1 = prim.point_at(u0), prim.point_at(u1)
    if isinstance(prim, Arc):
        if dist(prim.center, static) > 1e-9 * (1.0 + prim.radius):
            raise CouplingFailure("arc is not centred on the parked robot")
        sgn = 1.0 if prim.direction == "ccw" else -1.0
        return sgn * prim.sweep * (u1 - u0)
    v0 = (p0 - static) if moving_is_a else (static - p0)
    v1 = (p1 - static) if moving_is_a else (static - p1)
    return _signed_angle(v0, v1)


def _build_stretches(m: Motion):
    stretches = []
    theta = placement_angle(m.start)
    for lo, hi, robot, base in _phase_windows(m):
        here = _positions_at(m, lo)
        static = here.b if robot == "A" else here.a
        traj = m.traj_a if robot == "A" else m.traj_b
        cum = traj.cumulative
        for i, prim in enumerate(traj.primitives):
            if cum[i + 1] <= base or cum[i] >= base + (hi - lo):
                continue
            s0 = lo + (max(cum[i], base) - base)
            s1 = lo + (min(cum[i + 1], base + (hi - lo)) - base)
            if s1 - s0 <= 0.0:
                continue
            span = cum[i + 1] - cum[i]
            u0 = (max(cum[i], base) - cum[i]) / span if span else 0.0
            u1 = (min(cum[i + 1], base + hi - lo) - cum[i]) / span \
                if span else 1.0
            d = _stretch_theta_delta(prim, static, robot == "A", u0, u1)
            stretches.append(_Stretch(s0, s1, theta, theta + d, robot,
                                      prim, u0, u1, static))
            theta += d
    return stretches, theta


def _crossing(st: _Stretch, target: float) -> float:
    """Motion arc length where the stretch's monotone placement angle
    reaches target, in closed form: on an arc about the parked robot the
    angle is linear in arc length, and on a segment cross(r0 + f d, e) = 0,
    with e the target direction, is linear in f."""
    if st.theta_hi == st.theta_lo:
        return st.s_lo
    if isinstance(st.prim, Arc):
        f = (target - st.theta_lo) / (st.theta_hi - st.theta_lo)
    else:
        sgn = 1.0 if st.robot == "A" else -1.0
        r0 = (st.prim.point_at(st.prim_u0) - st.static) * sgn
        d = (st.prim.point_at(st.prim_u1) - st.static) * sgn - r0
        e = rotate(r0, target - st.theta_lo)
        den = cross(d, e)
        f = -cross(r0, e) / den if den != 0.0 else 0.0
    return st.s_lo + (st.s_hi - st.s_lo) * min(max(f, 0.0), 1.0)


def _find_windows(stretches, theta_end, sgn, total):
    """Reversal windows as (s_open, s_close) pairs, in one forward pass.

    Working in the signed space (angles times sgn) the coupled profile is
    the running max clamped at the final angle: a falling stretch opens a
    window at its start, a rising one closes it where it regains the
    window's level, and once the profile passes the final angle one last
    window runs to the end."""
    cap = sgn * theta_end
    level = sgn * stretches[0].theta_lo
    windows, open_s = [], None
    for st in stretches:
        lo, hi = sgn * st.theta_lo, sgn * st.theta_hi
        if hi < lo:
            if open_s is None:
                open_s = st.s_lo
            continue
        if open_s is not None and hi >= level:
            windows.append((open_s, _crossing(st, sgn * level)))
            open_s = None
        if open_s is None:
            if hi > cap:
                s_cap = _crossing(st, theta_end)
                if windows and windows[-1][1] >= s_cap:
                    s_cap = windows.pop()[0]
                return windows + [(s_cap, total)]
            level = max(level, hi)
    if open_s is not None:
        windows.append((open_s, total))
    return windows


def _is_straight(tr: Trajectory, lo: float, hi: float, tol: float) -> bool:
    if hi <= lo:
        return True
    return hi - lo - dist(tr.point_at(lo), tr.point_at(hi)) <= tol


def couple(m: Motion) -> Motion:
    """Monotone (coupled) re-timing of a decoupled optimal motion.

    The trajectories are kept; only the schedule changes.  Outside the
    reversal windows of the unwrapped placement-angle profile each phase
    becomes one single-robot item; across each window both robots move
    together in one item.  A window's ends have the same angle and, the
    input being optimal, each robot's path through it is straight, so the
    angle stays constant there."""
    if m.is_coupled or not m.schedule or m.length == 0.0:
        return m
    spans = _phase_windows(m)
    total = spans[-1][1]
    stretches, theta_end = _build_stretches(m)
    if m.orientation == "ccw":
        sgn = 1.0
    elif m.orientation == "cw":
        sgn = -1.0
    else:
        sgn = 1.0 if theta_end >= stretches[0].theta_lo else -1.0
    windows = _find_windows(stretches, theta_end, sgn, total)
    cuts = [0.0, *(s for w in windows for s in w), total]
    phase_ends = [hi for _, hi, _, _ in spans]
    tol = 1e-9 * (1.0 + m.length)
    items = []
    for k in range(len(cuts) - 1):
        s0, s1 = cuts[k], cuts[k + 1]
        in_window = k % 2 == 1
        marks = [s0, *(e for e in phase_ends
                       if not in_window and s0 < e < s1), s1]
        a, b = (v.tolist() for v in _arclen_maps(m, np.asarray(marks)))
        if in_window and not (_is_straight(m.traj_a, a[0], a[-1], tol)
                              and _is_straight(m.traj_b, b[0], b[-1], tol)):
            raise CouplingFailure(
                "a robot's path through a reversal window is not straight")
        items += [JointItem(a[i], a[i + 1], b[i], b[i + 1])
                  for i in range(len(marks) - 1) if marks[i + 1] > marks[i]]
    return Motion(m.traj_a, m.traj_b, tuple(items), m.orientation,
                  m.start, m.end)


# ---------------------------------------------------------------------------
# rigid transforms used by the planner's symmetry reductions


def _flip(orientation: str) -> str:
    if orientation == "ccw":
        return "cw"
    if orientation == "cw":
        return "ccw"
    return orientation


def _reverse_trajectory(tr: Trajectory) -> Trajectory:
    return Trajectory(tuple(p.reversed() for p in reversed(tr.primitives)))


def reverse_motion(m: Motion) -> Motion:
    """Time reversal: swap endpoints, reverse primitives and phases."""
    if m.is_coupled:
        raise ValueError("reverse_motion expects a decoupled motion")
    na, nb = len(m.traj_a.primitives), len(m.traj_b.primitives)
    phases = []
    for ph in reversed(m.schedule):
        n = na if ph.robot == "A" else nb
        phases.append(Phase(ph.robot, n - ph.stop, n - ph.start))
    return Motion(_reverse_trajectory(m.traj_a), _reverse_trajectory(m.traj_b),
                  tuple(phases), _flip(m.orientation), m.end, m.start)


def _map_primitive(p: Primitive, frame: Frame) -> Primitive:
    if isinstance(p, Segment):
        return Segment(frame.apply(p.start), frame.apply(p.end))
    direction = p.direction
    if frame.flips_orientation:
        direction = "cw" if direction == "ccw" else "ccw"
    return Arc(frame.apply(p.center), p.radius,
               frame.apply_angle(p.start_angle),
               frame.apply_angle(p.end_angle), direction)


def transform_motion(m: Motion, frame: Frame) -> Motion:
    orientation = _flip(m.orientation) if frame.flips_orientation \
        else m.orientation
    mapped_start = Placement(frame.apply(m.start.a), frame.apply(m.start.b))
    mapped_end = Placement(frame.apply(m.end.a), frame.apply(m.end.b))
    return Motion(
        Trajectory(tuple(_map_primitive(p, frame) for p in m.traj_a.primitives)),
        Trajectory(tuple(_map_primitive(p, frame) for p in m.traj_b.primitives)),
        m.schedule, orientation, mapped_start, mapped_end)


REFLECT_FRAME = Frame(rotation=0.0, translation=Point(0.0, 0.0),
                      reflected=True)


def reflect_motion(m: Motion) -> Motion:
    return transform_motion(m, REFLECT_FRAME)


def swap_roles(m: Motion) -> Motion:
    """Relabel the robots; the placement angle shifts by pi, so the net
    orientation is preserved."""
    phases = tuple(Phase("A" if ph.robot == "B" else "B", ph.start, ph.stop)
                   for ph in m.schedule) if not m.is_coupled else tuple(
        JointItem(it.b_lo, it.b_hi, it.a_lo, it.a_hi) for it in m.schedule)
    return Motion(m.traj_b, m.traj_a, phases, m.orientation,
                  Placement(m.start.b, m.start.a),
                  Placement(m.end.b, m.end.a))
