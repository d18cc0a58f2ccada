"""Independent cross-checks for planner output.

Two instruments: a grid search over the decoupled three-leg motion family
(an upper-bound oracle; the planner optimizes over the same family, so the
grid can never beat it by more than roundoff) and a certificate bundling
that search with the quadrature twin of the length bound, feasibility,
convexity and primitive-count checks.

The search is exact over its lattice but evaluates few of its points.
Every leg is at least its chord, so a pivot can only match an upper bound
on its mover order's best total inside an ellipse around the two ends of
the outer robot's move; only the lattice points in that ellipse are
evaluated.  The bound is the better endpoint seed's total or, when
neither seed is feasible, the best total over a coarse sub-lattice of the
search's own lattice.  It never comes from the plan being checked, so the
oracle stays independent of the planner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import OracleExhausted
from .geom import Circle, Instance, Point, dist, normalize
from .motion import (Motion, Phase, Trajectory, is_trace_convex,
                     min_separation, placement_angle_profile)
from .planner import shortest_path_avoiding_disc
from .support import evaluator_for, quadrature_bound, swept_interval


@dataclass(frozen=True)
class GridSpec:
    """Pivot lattice: pitch `step`, box expansion `margin` beyond the
    endpoints and the corridor."""

    step: float
    margin: float

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"grid step must be positive and finite, "
                             f"not {self.step}")
        if not (math.isfinite(self.margin) and self.margin >= 0.0):
            raise ValueError(f"grid margin must be nonnegative and finite, "
                             f"not {self.margin}")

    def index_ranges(self, n: Instance):
        """Index ranges (ix0, ix1, iy0, iy1) of the lattice over the search
        box of a normalized instance, found before anything is allocated;
        ValueError if the box holds more than _MAX_LATTICE_POINTS."""
        pad, h = n.s + self.margin, self.step
        xs = (n.a0.x, n.a1.x, n.b0.x, n.b1.x)
        ys = (n.a0.y, n.a1.y, n.b0.y, n.b1.y)
        ends = ((min(xs) - pad) / h, (max(xs) + pad) / h,
                (min(ys) - pad) / h, (max(ys) + pad) / h)
        if all(map(math.isfinite, ends)):
            ix0, ix1 = math.ceil(ends[0]), math.floor(ends[1])
            iy0, iy1 = math.ceil(ends[2]), math.floor(ends[3])
            if (ix1 - ix0 + 1) * (iy1 - iy0 + 1) <= _MAX_LATTICE_POINTS:
                return ix0, ix1, iy0, iy1
        raise ValueError(f"grid step {h} puts more than "
                         f"{_MAX_LATTICE_POINTS} points in the search box")


# 60 times a box-10 default lattice (at most about 270k points), twice the
# largest default lattice (about 2,800 steps a side when s nears the diameter)
_MAX_LATTICE_POINTS = 1 << 24


def default_grid(inst: Instance) -> GridSpec:
    return GridSpec(step=max(0.05, inst.diameter / 400.0),
                    margin=2.0 * inst.s)


@dataclass(frozen=True)
class OracleResult:
    best_length: float
    best_pivot: Point
    order: str        # "ABA" | "BAB"
    orientation: str  # "ccw" | "cw"
    motion: Motion


def _avoid_lengths(ux, uy, vx, vy, cx, cy, r):
    """Length of the shortest route between endpoints staying outside the
    open disc (straight when clear, tangent-arc-tangent otherwise).
    Arguments broadcast; endpoints must not lie strictly inside."""
    dx, dy = vx - ux, vy - uy
    seg2 = dx * dx + dy * dy
    seg = np.sqrt(seg2)
    denom = np.where(seg2 > 0.0, seg2, 1.0)
    t = np.clip(((cx - ux) * dx + (cy - uy) * dy) / denom, 0.0, 1.0)
    dseg = np.hypot(cx - (ux + t * dx), cy - (uy + t * dy))
    du = np.maximum(np.hypot(ux - cx, uy - cy), r)
    dv = np.maximum(np.hypot(vx - cx, vy - cy), r)
    gamma = np.arctan2(
        np.abs((ux - cx) * (vy - cy) - (uy - cy) * (vx - cx)),
        (ux - cx) * (vx - cx) + (uy - cy) * (vy - cy))
    arc = np.maximum(gamma - np.arccos(np.clip(r / du, 0.0, 1.0))
                     - np.arccos(np.clip(r / dv, 0.0, 1.0)), 0.0)
    wrap = (np.sqrt(np.maximum(du * du - r * r, 0.0))
            + np.sqrt(np.maximum(dv * dv - r * r, 0.0)) + r * arc)
    return np.where(dseg >= r - 1e-12, seg, wrap)


def _lattice(n: Instance, grid: GridSpec, ellipse=None, stride: int = 1):
    """Pivot lattice anchored at the normalized B0 (the origin): only the
    multiples of step inside the box, so halving the step yields a strict
    superset and refinement is monotone.  With ellipse = (f0, f1, reach),
    only the box points p with |p - f0| + |p - f1| <= reach.  With a
    stride, only the box points whose two integer indices are multiples
    of it; their coordinates are computed as the full lattice's, so each
    is bit-for-bit one of its points."""
    h = grid.step
    ix0, ix1, iy0, iy1 = grid.index_ranges(n)
    ix, iy = np.arange(ix0, ix1 + 1), np.arange(iy0, iy1 + 1)
    ix, iy = ix[ix % stride == 0], iy[iy % stride == 0]
    if ix.size == 0 or iy.size == 0:
        return np.empty(0), np.empty(0)
    if ellipse is not None:
        return _ellipse_points(ix, iy, h, *ellipse)
    px = np.repeat(ix * h, iy.size)
    py = np.tile(iy * h, ix.size)
    return px, py


def _ellipse_points(ix, iy, h, f0: Point, f1: Point, reach: float):
    """Lattice points (i*h, j*h), i in ix and j in iy, with
    |p - f0| + |p - f1| <= reach.

    The lattice lines are walked along the axis nearer the ellipse's major
    axis.  With centre c, half focal vector d and semi-major axis a, the
    ellipse is a^2 |q|^2 - (q.d)^2 <= a^2 (a^2 - |d|^2) for q = p - c, so
    on each line the points inside form one run whose ends solve a
    quadratic.  The runs are taken for a slightly larger a, which covers
    their roundoff; the chord test then decides each point."""
    cx, cy = 0.5 * (f0.x + f1.x), 0.5 * (f0.y + f1.y)
    dx, dy = 0.5 * (f1.x - f0.x), 0.5 * (f1.y - f0.y)
    a = 0.5 * reach
    a += 1e-6 * (1.0 + a + abs(cx) + abs(cy))
    swap = abs(dy) > abs(dx)
    if swap:
        ix, iy, cx, cy, dx, dy = iy, ix, cy, cx, dy, dx
    lead = a * a - dy * dy          # >= a^2 / 2, since dy^2 <= |d|^2 / 2
    ab = a * math.sqrt(max(lead - dx * dx, 0.0))
    half_u = math.sqrt(lead)
    u = ix[(ix * h >= cx - half_u) & (ix * h <= cx + half_u)]
    qu = u * h - cx
    w = ab * np.sqrt(np.maximum(lead - qu * qu, 0.0))
    lo = np.maximum(np.ceil((cy + (qu * dx * dy - w) / lead) / h), iy[0])
    hi = np.minimum(np.floor((cy + (qu * dx * dy + w) / lead) / h), iy[-1])
    counts = np.maximum(hi - lo + 1, 0).astype(np.int64)
    first = lo.astype(np.int64) - (np.cumsum(counts) - counts)
    pu = np.repeat(u * h, counts)
    pv = (np.repeat(first, counts) + np.arange(counts.sum())) * h
    px, py = (pv, pu) if swap else (pu, pv)
    inside = (np.hypot(px - f0.x, py - f0.y)
              + np.hypot(px - f1.x, py - f1.y) <= reach)
    return px[inside], py[inside]


def _order_totals(px, py, src, mid0, mid1, dst, s):
    """Totals of the three-leg plan through each pivot: src->pivot around
    mid0's circle, mid0->mid1 around the pivot circle, pivot->dst around
    mid1's circle.  Pivots inside either endpoint circle are infeasible."""
    feasible = ((np.hypot(px - mid0.x, py - mid0.y) >= s - 1e-12)
                & (np.hypot(px - mid1.x, py - mid1.y) >= s - 1e-12))
    l1 = _avoid_lengths(src.x, src.y, px, py, mid0.x, mid0.y, s)
    l2 = _avoid_lengths(mid0.x, mid0.y, mid1.x, mid1.y, px, py, s)
    l3 = _avoid_lengths(px, py, dst.x, dst.y, mid1.x, mid1.y, s)
    return np.where(feasible, l1 + l2 + l3, np.inf)


# pitch, in lattice steps, of the sub-lattice that bounds a search whose
# endpoint seeds are both infeasible
_SUB_STRIDE = 8


def _best_for_order(n: Instance, grid: GridSpec, order: str):
    """Best total and pivot over the lattice plus the endpoint seeds.

    A pivot p costs at least |src - p| + |p - dst| + |mid0 - mid1|, so
    only the lattice points whose chord bound is at most an upper bound on
    the best total, plus a slack, are evaluated.  The bound is the better
    seed's total; with both seeds infeasible it is the best total over the
    sub-lattice of every _SUB_STRIDE-th point in each direction, whose
    points are lattice members.  The slack covers the legs' roundoff,
    which near the circles (square roots and arccosines of nearly
    tangent quantities) reaches about 1e-7 s.  Only when the sub-lattice
    has no feasible point either is the whole lattice searched."""
    if order == "ABA":
        src, dst, mid0, mid1 = n.a0, n.a1, n.b0, n.b1
    else:
        src, dst, mid0, mid1 = n.b0, n.b1, n.a0, n.a1
    sx, sy = np.array([src.x, dst.x]), np.array([src.y, dst.y])
    seed_totals = _order_totals(sx, sy, src, mid0, mid1, dst, n.s)
    best = seed_totals.min()
    if not np.isfinite(best):
        px, py = _lattice(n, grid, stride=_SUB_STRIDE)
        best = _order_totals(px, py, src, mid0, mid1, dst,
                             n.s).min(initial=np.inf)
    if np.isfinite(best):
        reach = best + 1e-6 * (n.s + best) - dist(mid0, mid1)
        px, py = _lattice(n, grid, (src, dst, reach))
    else:
        px, py = _lattice(n, grid)
    cx, cy = np.concatenate([px, sx]), np.concatenate([py, sy])
    totals = np.concatenate(
        [_order_totals(px, py, src, mid0, mid1, dst, n.s), seed_totals])
    best = totals.min()
    if not np.isfinite(best):
        return np.inf, None
    ties = np.flatnonzero(totals == best)
    k = min(ties, key=lambda i: (cx[i], cy[i]))
    return float(best), Point(float(cx[k]), float(cy[k]))


def _build_decoupled(inst: Instance, pivot: Point, order: str) -> Motion:
    s = inst.s
    if order == "ABA":
        src, dst, mid0, mid1 = inst.a0, inst.a1, inst.b0, inst.b1
    else:
        src, dst, mid0, mid1 = inst.b0, inst.b1, inst.a0, inst.a1
    leg1 = shortest_path_avoiding_disc(src, pivot, Circle(mid0, s))
    leg2 = shortest_path_avoiding_disc(mid0, mid1, Circle(pivot, s))
    leg3 = shortest_path_avoiding_disc(pivot, dst, Circle(mid1, s))
    outer = leg1.primitives + leg3.primitives
    n1, n2, n3 = (len(leg1.primitives), len(leg2.primitives),
                  len(leg3.primitives))
    mover = "A" if order == "ABA" else "B"
    other = "B" if order == "ABA" else "A"
    phases = []
    if n1:
        phases.append(Phase(mover, 0, n1))
    if n2:
        phases.append(Phase(other, 0, n2))
    if n3:
        phases.append(Phase(mover, n1, n1 + n3))
    traj_outer = Trajectory(tuple(outer))
    traj_inner = Trajectory(tuple(leg2.primitives))
    if order == "ABA":
        traj_a, traj_b = traj_outer, traj_inner
    else:
        traj_a, traj_b = traj_inner, traj_outer
    return Motion(traj_a, traj_b, tuple(phases), "straight",
                  inst.p0, inst.p1)


def _net_orientation(m: Motion) -> str:
    if m.length == 0.0:
        return "ccw"
    prof = placement_angle_profile(m, 256)
    net = float(prof[-1] - prof[0])
    return "cw" if net < -1e-9 else "ccw"


def pivot_grid_search(inst: Instance,
                      grid: Optional[GridSpec] = None) -> OracleResult:
    """Best decoupled three-leg motion over lattice pivots plus the
    endpoint seeds, for both mover orders.

    The seeds make the single-detour and straight plans exact lattice
    members, so corridor-free instances are matched with zero grid error.
    At desk scale the grid best exceeds the true family optimum by at most
    about four pitches.  Ties prefer order ABA, then the lexicographically
    smallest pivot.
    """
    if grid is None:
        grid = default_grid(inst)
    frame, n = normalize(inst)
    best_aba, pivot_aba = _best_for_order(n, grid, "ABA")
    best_bab, pivot_bab = _best_for_order(n, grid, "BAB")
    if pivot_aba is None and pivot_bab is None:
        raise OracleExhausted("no feasible pivot in the search box")
    if pivot_bab is None or best_aba <= best_bab:
        order, pivot_n = "ABA", pivot_aba
    else:
        order, pivot_n = "BAB", pivot_bab
    pivot = frame.apply(pivot_n)
    motion = _build_decoupled(inst, pivot, order)
    if min_separation(motion) < inst.s - 1e-7:
        raise OracleExhausted(
            f"best grid motion through {pivot} is not feasible")
    return OracleResult(best_length=motion.length, best_pivot=pivot,
                        order=order, orientation=_net_orientation(motion),
                        motion=motion)


@dataclass(frozen=True)
class Certificate:
    """Six named checks; failures are recorded, not raised."""

    checks: tuple  # of (name, passed, residual)
    oracle: Optional[OracleResult]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def residual(self, name: str):
        for n, _ok, r in self.checks:
            if n == name:
                return r
        raise KeyError(name)


def certify(inst: Instance, report, grid: Optional[GridSpec] = None,
            quad_tol: float = 1e-10) -> Certificate:
    """Certificate for a plan report: feasibility, convexity, agreement of
    the constructed length with the closed-form bound, agreement of closed
    form with quadrature, the grid oracle as an upper bound, and the
    primitive budget."""
    s = inst.s
    m = report.chosen
    sep = min_separation(m)
    conv = (is_trace_convex(m.traj_a, m.start.a, m.end.a)
            and is_trace_convex(m.traj_b, m.start.b, m.end.b))
    res_bound = abs(m.length - report.bound.min)
    _, n = normalize(inst)
    ev = evaluator_for(n)
    fwd = swept_interval(n)
    interval = fwd if report.bound.chosen == "ccw" else fwd.reversed_sweep()
    quad = quadrature_bound(ev, s, interval)
    res_quad = abs(report.bound.min - quad)
    oracle = pivot_grid_search(inst, grid)
    res_oracle = oracle.best_length - m.length
    n_a = len(m.traj_a.primitives)
    n_b = len(m.traj_b.primitives)
    checks = (
        ("feasibility", bool(sep >= s - 1e-7), sep - s),
        ("convexity", bool(conv), 0.0),
        ("boundAgreement", bool(res_bound <= 1e-6), res_bound),
        ("quadratureAgreement", bool(res_quad <= quad_tol + 1e-9), res_quad),
        ("oracleUpperBound", bool(res_oracle >= -1e-9), res_oracle),
        ("primitiveBudget", bool(n_a <= 6 and n_b <= 6),
         float(max(n_a, n_b))),
    )
    return Certificate(checks=checks, oracle=oracle)
